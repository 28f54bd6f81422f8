#include "net/http.h"

namespace oij {

namespace {
constexpr size_t kMaxHeaderBytes = 8 * 1024;
constexpr size_t kMaxBodyBytes = 64 * 1024;

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    const char ca = a[i] >= 'A' && a[i] <= 'Z' ? a[i] + 32 : a[i];
    const char cb = b[i] >= 'A' && b[i] <= 'Z' ? b[i] + 32 : b[i];
    if (ca != cb) return false;
  }
  return true;
}

std::string_view Trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' ||
                        s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}
}  // namespace

HttpParseResult ParseHttpRequest(std::string_view in, HttpRequest* out,
                                 size_t* consumed) {
  size_t end = in.find("\r\n\r\n");
  size_t terminator = 4;
  if (end == std::string_view::npos) {
    end = in.find("\n\n");
    terminator = 2;
  }
  if (end == std::string_view::npos) {
    return in.size() > kMaxHeaderBytes ? HttpParseResult::kBad
                                       : HttpParseResult::kNeedMore;
  }
  if (end > kMaxHeaderBytes) return HttpParseResult::kBad;

  std::string_view head = in.substr(0, end);
  const size_t line_end = head.find_first_of("\r\n");
  std::string_view request_line =
      line_end == std::string_view::npos ? head : head.substr(0, line_end);

  const size_t sp1 = request_line.find(' ');
  if (sp1 == std::string_view::npos || sp1 == 0) return HttpParseResult::kBad;
  const size_t sp2 = request_line.find(' ', sp1 + 1);
  if (sp2 == std::string_view::npos || sp2 == sp1 + 1) {
    return HttpParseResult::kBad;
  }
  std::string_view version = request_line.substr(sp2 + 1);
  if (version.substr(0, 5) != "HTTP/") return HttpParseResult::kBad;

  std::string_view path = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
  const size_t query = path.find('?');
  if (query != std::string_view::npos) path = path.substr(0, query);
  if (path.empty() || path[0] != '/') return HttpParseResult::kBad;

  // Headers are ignored except Content-Length, which gates how many body
  // bytes must follow the terminator before the request is complete.
  size_t content_length = 0;
  std::string_view headers =
      line_end == std::string_view::npos ? std::string_view{}
                                         : head.substr(line_end + 1);
  while (!headers.empty()) {
    const size_t nl = headers.find('\n');
    std::string_view line = headers.substr(0, nl);
    headers = nl == std::string_view::npos ? std::string_view{}
                                           : headers.substr(nl + 1);
    const size_t colon = line.find(':');
    if (colon == std::string_view::npos) continue;
    if (!EqualsIgnoreCase(Trim(line.substr(0, colon)), "content-length")) {
      continue;
    }
    std::string_view value = Trim(line.substr(colon + 1));
    if (value.empty()) return HttpParseResult::kBad;
    uint64_t parsed = 0;
    for (char c : value) {
      if (c < '0' || c > '9') return HttpParseResult::kBad;
      parsed = parsed * 10 + static_cast<uint64_t>(c - '0');
      if (parsed > kMaxBodyBytes) return HttpParseResult::kBad;
    }
    content_length = static_cast<size_t>(parsed);
  }

  const size_t body_start = end + terminator;
  if (in.size() < body_start + content_length) {
    return HttpParseResult::kNeedMore;
  }

  out->method = std::string(request_line.substr(0, sp1));
  out->path = std::string(path);
  out->body = std::string(in.substr(body_start, content_length));
  *consumed = body_start + content_length;
  return HttpParseResult::kOk;
}

std::string_view HttpStatusText(int status_code) {
  switch (status_code) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 500:
      return "Internal Server Error";
    case 503:
      return "Service Unavailable";
    default:
      return "Unknown";
  }
}

std::string BuildHttpResponse(int status_code, std::string_view content_type,
                              std::string_view body) {
  std::string out;
  out.reserve(body.size() + 128);
  out += "HTTP/1.0 " + std::to_string(status_code) + " ";
  out += HttpStatusText(status_code);
  out += "\r\nContent-Type: ";
  out += content_type;
  out += "\r\nContent-Length: " + std::to_string(body.size());
  out += "\r\nConnection: close\r\n\r\n";
  out += body;
  return out;
}

std::string ServeAdminPages(const HttpRequest& request,
                            std::initializer_list<AdminPage> pages) {
  if (request.method != "GET") {
    return BuildHttpResponse(405, kTextContentType, "only GET is supported\n");
  }
  for (const AdminPage& page : pages) {
    if (request.path != page.path) continue;
    int code = 200;
    const std::string body = page.render(&code);
    return BuildHttpResponse(code, page.content_type, body);
  }
  return BuildHttpResponse(404, kTextContentType,
                           "unknown path: " + request.path + "\n");
}

}  // namespace oij
