#ifndef OIJ_METRICS_JSON_OUT_H_
#define OIJ_METRICS_JSON_OUT_H_

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <type_traits>

namespace oij {

/// Minimal append-style JSON emitter shared by the server's and the
/// router's /statz pages. Objects and arrays are nested by hand at the
/// call site; this only handles separators, string escaping and number
/// forms. Integers print exactly; non-finite doubles print as null.
class JsonOut {
 public:
  void Key(std::string_view name) {
    String(name);  // String() emits the separating comma
    out_ += ':';
    pending_comma_ = false;
  }

  void Number(double v) {
    if (!std::isfinite(v)) {
      Null();
      return;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf),
                  v == std::floor(v) && std::abs(v) < 1e15 ? "%.0f" : "%.6g",
                  v);
    Literal(buf);
  }
  void Number(uint64_t v) { Integer(v); }
  void Number(int64_t v) { Integer(v); }

  void Null() { Literal("null"); }

  /// `"key":value`.
  template <typename T>
  void Field(std::string_view key, const T& value) {
    Key(key);
    Value(value);
  }

  /// `"key":[v0,v1,...]` over any range of values.
  template <typename Range>
  void Array(std::string_view key, const Range& values) {
    Key(key);
    Open('[');
    for (const auto& v : values) Value(v);
    Close(']');
  }

  void Open(char bracket) {
    Comma();
    out_ += bracket;
    pending_comma_ = false;
  }
  void Close(char bracket) {
    out_ += bracket;
    pending_comma_ = true;
  }

  std::string Take() { return std::move(out_); }

 private:
  /// One value, its form picked from its type: bool, string, floating
  /// point, or exact integer of any width.
  template <typename T>
  void Value(const T& value) {
    if constexpr (std::is_same_v<T, bool>) {
      Bool(value);
    } else if constexpr (std::is_convertible_v<const T&, std::string_view>) {
      String(value);
    } else if constexpr (std::is_floating_point_v<T>) {
      Number(static_cast<double>(value));
    } else if constexpr (std::is_signed_v<T>) {
      Number(static_cast<int64_t>(value));
    } else {
      Number(static_cast<uint64_t>(value));
    }
  }

  void String(std::string_view s) {
    Comma();
    out_ += '"';
    for (char c : s) {
      switch (c) {
        case '"':
          out_ += "\\\"";
          break;
        case '\\':
          out_ += "\\\\";
          break;
        case '\n':
          out_ += "\\n";
          break;
        case '\r':
          out_ += "\\r";
          break;
        case '\t':
          out_ += "\\t";
          break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out_ += buf;
          } else {
            out_ += c;
          }
      }
    }
    out_ += '"';
    pending_comma_ = true;
  }

  void Bool(bool v) { Literal(v ? "true" : "false"); }

  void Comma() {
    if (pending_comma_) out_ += ',';
    pending_comma_ = false;
  }
  void Literal(std::string_view text) {
    Comma();
    out_ += text;
    pending_comma_ = true;
  }
  template <typename Int>
  void Integer(Int v) {
    char buf[24];
    const auto result = std::to_chars(buf, buf + sizeof(buf), v);
    Literal(std::string_view(buf, static_cast<size_t>(result.ptr - buf)));
  }

  std::string out_;
  bool pending_comma_ = false;
};

}  // namespace oij

#endif  // OIJ_METRICS_JSON_OUT_H_
