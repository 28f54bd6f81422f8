// Blocking HTTP/1.0 helpers for the tests that query an admin port
// (oij_server or oij_router).

#ifndef OIJ_TESTS_HTTP_TEST_UTIL_H_
#define OIJ_TESTS_HTTP_TEST_UTIL_H_

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>

#include "net/socket.h"

namespace oij {

/// One blocking HTTP/1.0 request; a non-empty `body` goes out with its
/// Content-Length. Returns the response body and stores the status code
/// in `*code`, which stays 0 when the port refused the connection (a
/// process may be mid-restart), so callers assert on `*code`.
inline std::string HttpSend(uint16_t port, const std::string& method,
                            const std::string& path, const std::string& body,
                            int* code) {
  *code = 0;
  int fd = -1;
  if (!ConnectTcp("127.0.0.1", port, &fd).ok()) return "";
  std::string request = method + " " + path + " HTTP/1.0\r\n";
  if (!body.empty()) {
    request += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  }
  request += "\r\n" + body;
  if (!SendAll(fd, request.data(), request.size()).ok()) {
    CloseFd(fd);
    return "";
  }
  std::string response;
  char buf[8192];
  int64_t n;
  while ((n = RecvSome(fd, buf, sizeof(buf))) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  CloseFd(fd);
  const size_t sp = response.find(' ');
  if (sp != std::string::npos) *code = std::atoi(response.c_str() + sp + 1);
  const size_t split = response.find("\r\n\r\n");
  return split == std::string::npos ? "" : response.substr(split + 4);
}

inline std::string HttpGet(uint16_t port, const std::string& path, int* code,
                           const std::string& method = "GET") {
  return HttpSend(port, method, path, "", code);
}

/// Pulls `"key":<number>` out of a /statz body. All keys probed by the
/// tests are unique within the document. A `null` value (e.g. the
/// router's watermarks before the first ack) counts as absent.
inline bool StatzNumber(const std::string& body, const std::string& key,
                        double* out) {
  const std::string needle = "\"" + key + "\":";
  const size_t pos = body.find(needle);
  if (pos == std::string::npos) return false;
  const char* value = body.c_str() + pos + needle.size();
  if (std::strncmp(value, "null", 4) == 0) return false;
  *out = std::strtod(value, nullptr);
  return true;
}

/// StatzNumber over a fresh GET /statz; `fallback` when either fails.
inline double StatzNumberOr(uint16_t admin_port, const std::string& key,
                            double fallback) {
  int code = 0;
  const std::string body = HttpGet(admin_port, "/statz", &code);
  double v = fallback;
  if (code != 200 || !StatzNumber(body, key, &v)) return fallback;
  return v;
}

}  // namespace oij

#endif  // OIJ_TESTS_HTTP_TEST_UTIL_H_
