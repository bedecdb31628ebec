#include "src/common/strings.hpp"

#include <charconv>
#include <limits>

#include "src/common/types.hpp"

namespace rtlb {

namespace {

/// std::isspace in the "C" locale (the program never sets another), inline.
constexpr bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

}  // namespace

std::string_view trim(std::string_view s) {
  while (!s.empty() && is_space(s.front())) s.remove_prefix(1);
  while (!s.empty() && is_space(s.back())) s.remove_suffix(1);
  return s;
}

std::vector<std::string> split_ws(std::string_view s) {
  std::vector<std::string_view> views;
  split_ws_views(s, views);
  return {views.begin(), views.end()};
}

std::string_view next_token(std::string_view& s) {
  std::size_t i = 0;
  while (i < s.size() && is_space(s[i])) ++i;
  const std::size_t start = i;
  while (i < s.size() && !is_space(s[i])) ++i;
  const std::string_view token = s.substr(start, i - start);
  s.remove_prefix(i);
  return token;
}

void split_ws_views(std::string_view s, std::vector<std::string_view>& out) {
  out.clear();
  for (std::string_view t = next_token(s); !t.empty(); t = next_token(s)) out.push_back(t);
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

std::optional<int> parse_int_arg(std::string_view s) {
  try {
    const std::int64_t value = parse_int(s, "argument");
    if (value >= std::numeric_limits<int>::min() && value <= std::numeric_limits<int>::max()) {
      return static_cast<int>(value);
    }
  } catch (const ModelError&) {
  }
  return std::nullopt;
}

std::string brace_set(const std::vector<std::string>& names) {
  if (names.empty()) return "-";
  return "{" + join(names, ",") + "}";
}

}  // namespace rtlb
