#include "util/string_util.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <type_traits>

namespace ems {

std::vector<std::string> Split(std::string_view s, char delim) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      break;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string_view Trim(std::string_view s) {
  size_t b = 0;
  while (b < s.size() && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  size_t e = s.size();
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::string FormatDouble(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

std::string XmlEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '&':
        out += "&amp;";
        break;
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      case '"':
        out += "&quot;";
        break;
      case '\'':
        out += "&apos;";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

template <typename T>
std::optional<T> ParseNumber(std::string_view text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return std::nullopt;  // "inf", "nan"
  }
  return value;
}

template <typename T>
Status ParseFlagNumber(std::string_view flag, std::string_view text, T* out) {
  const std::optional<T> value = ParseNumber<T>(text);
  if (!value) {
    return Status::InvalidArgument(
        "--" + std::string(flag) + " expects " +
        (std::is_integral_v<T> ? "an integer" : "a number") + ", got '" +
        std::string(text) + "'");
  }
  *out = *value;
  return Status::OK();
}

#define EMS_PARSE_NUMBER(T)                                          \
  template std::optional<T> ParseNumber<T>(std::string_view);        \
  template Status ParseFlagNumber<T>(std::string_view, std::string_view, T*);
EMS_PARSE_NUMBER(int)
EMS_PARSE_NUMBER(long)
EMS_PARSE_NUMBER(long long)
EMS_PARSE_NUMBER(unsigned long)
EMS_PARSE_NUMBER(unsigned long long)
EMS_PARSE_NUMBER(double)
#undef EMS_PARSE_NUMBER

}  // namespace ems
