#ifndef OIJ_NET_HTTP_H_
#define OIJ_NET_HTTP_H_

#include <functional>
#include <initializer_list>
#include <string>
#include <string_view>

namespace oij {

/// Minimal HTTP/1.0 support for the admin endpoint: parse
/// `METHOD /path HTTP/x.y` plus headers, build a fixed-length response,
/// close. No keep-alive, no chunking. Request bodies are supported via
/// Content-Length only (for POST /queries), capped at 64 KiB.

struct HttpRequest {
  std::string method;
  std::string path;  ///< query string stripped
  std::string body;  ///< Content-Length bytes (empty without the header)
};

enum class HttpParseResult : uint8_t {
  kOk,        ///< a full request was parsed; `consumed` bytes are done
  kNeedMore,  ///< header terminator not seen yet
  kBad,       ///< malformed (or oversized) request; drop the connection
};

/// Parses one request out of `in` (headers end at CRLFCRLF; bare LFLF is
/// tolerated). Requests whose headers exceed 8 KiB are rejected.
HttpParseResult ParseHttpRequest(std::string_view in, HttpRequest* out,
                                 size_t* consumed);

/// Serializes a complete HTTP/1.0 response with Content-Length and
/// Connection: close.
std::string BuildHttpResponse(int status_code, std::string_view content_type,
                              std::string_view body);

/// "200 OK", "404 Not Found", ... (a handful the admin endpoint uses).
std::string_view HttpStatusText(int status_code);

/// Content types of the admin pages.
inline constexpr std::string_view kTextContentType =
    "text/plain; charset=utf-8";
inline constexpr std::string_view kJsonContentType = "application/json";
inline constexpr std::string_view kMetricsContentType =
    "text/plain; version=0.0.4; charset=utf-8";

/// One GET page of an admin endpoint. `render` returns the body and may
/// replace the status code, which starts at 200 (e.g. 503 on /healthz).
struct AdminPage {
  std::string_view path;
  std::string_view content_type;
  std::function<std::string(int* status_code)> render;
};

/// Answers a GET-only admin request from `pages`: 405 for any other
/// method, 404 for a path no page serves. oij_server and oij_router both
/// answer through this, so their error bodies and content types agree.
std::string ServeAdminPages(const HttpRequest& request,
                            std::initializer_list<AdminPage> pages);

}  // namespace oij

#endif  // OIJ_NET_HTTP_H_
