// Small string utilities used by the text I/O format and report printers.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace rtlb {

/// Strip leading/trailing whitespace.
std::string_view trim(std::string_view s);

/// Call `f` on each `delim`-separated field of `s` (views into `s`); empty
/// fields are preserved, so "" has one empty field.
template <typename F>
void for_each_field(std::string_view s, char delim, const F& f) {
  for (std::size_t start = 0;;) {
    const std::size_t end = s.find(delim, start);
    f(s.substr(start, end == s.npos ? s.npos : end - start));
    if (end == s.npos) return;
    start = end + 1;
  }
}

/// Split on arbitrary whitespace runs; empty fields are dropped.
std::vector<std::string> split_ws(std::string_view s);

/// The first whitespace-separated token of `s` (empty when there is none);
/// `s` is advanced past it.
std::string_view next_token(std::string_view& s);

/// split_ws into views of `s`, reusing `out`'s storage: no allocation once
/// `out` has grown (the instance parser tokenizes every line this way).
void split_ws_views(std::string_view s, std::vector<std::string_view>& out);

/// True if `s` begins with `prefix`.
bool starts_with(std::string_view s, std::string_view prefix);

/// Join the elements with a separator.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// Parse a signed integer; throws ModelError with context on failure.
std::int64_t parse_int(std::string_view s, std::string_view context);

/// parse_int() for a command-line value that must fit an int: nullopt on
/// junk ("foo", "1x") or out of range, so a tool can answer with usage.
std::optional<int> parse_int_arg(std::string_view s);

/// Render a set of names as "{a,b,c}" or "-" when empty (Table 1 style).
std::string brace_set(const std::vector<std::string>& names);

}  // namespace rtlb
