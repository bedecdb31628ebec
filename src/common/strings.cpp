#include "src/common/strings.hpp"

#include <cctype>
#include <charconv>

#include "src/common/types.hpp"

namespace rtlb {

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) s.remove_prefix(1);
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) s.remove_suffix(1);
  return s;
}

std::vector<std::string> split_ws(std::string_view s) {
  std::vector<std::string_view> views;
  split_ws_views(s, views);
  return {views.begin(), views.end()};
}

void split_ws_views(std::string_view s, std::vector<std::string_view>& out) {
  out.clear();
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    std::size_t start = i;
    while (i < s.size() && !std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    if (i > start) out.push_back(s.substr(start, i - start));
  }
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i) out += sep;
    out += parts[i];
  }
  return out;
}

std::int64_t parse_int(std::string_view s, std::string_view context) {
  s = trim(s);
  std::int64_t value = 0;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc{} || ptr != s.data() + s.size()) {
    throw ModelError("expected integer for " + std::string(context) + ", got '" +
                     std::string(s) + "'");
  }
  return value;
}

std::string brace_set(const std::vector<std::string>& names) {
  if (names.empty()) return "-";
  return "{" + join(names, ",") + "}";
}

}  // namespace rtlb
