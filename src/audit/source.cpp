#include "src/audit/source.hpp"

#include <cctype>
#include <cstring>

namespace rtlb::audit {

namespace {

bool ident_start(char c) { return std::isalpha(static_cast<unsigned char>(c)) || c == '_'; }
bool ident_char(char c) { return std::isalnum(static_cast<unsigned char>(c)) || c == '_'; }

/// Multi-character punctuators, longest first for maximal munch. Only the
/// ones the rule matchers distinguish matter; anything else falls through to
/// single characters.
constexpr const char* kPuncts[] = {
    "<<=", ">>=", "->*", "...", "::", "->", "++", "--", "+=", "-=", "*=", "/=",
    "%=",  "&=",  "|=",  "^=",  "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
};

/// Parse one `audit-ok: RTLB-Axxx reason...` directive out of a comment
/// body. Returns false when the comment is not a suppression.
bool parse_suppression(const std::string& comment, Suppression& out) {
  const std::size_t at = comment.find("audit-ok:");
  if (at == std::string::npos) return false;
  std::size_t i = at + std::strlen("audit-ok:");
  while (i < comment.size() && std::isspace(static_cast<unsigned char>(comment[i]))) ++i;
  std::size_t code_end = i;
  while (code_end < comment.size() &&
         !std::isspace(static_cast<unsigned char>(comment[code_end]))) {
    ++code_end;
  }
  out.code = comment.substr(i, code_end - i);
  if (out.code.rfind("RTLB-A", 0) != 0) return false;
  std::size_t r = code_end;
  while (r < comment.size() && std::isspace(static_cast<unsigned char>(comment[r]))) ++r;
  std::size_t r_end = comment.size();
  while (r_end > r && std::isspace(static_cast<unsigned char>(comment[r_end - 1]))) --r_end;
  out.reason = comment.substr(r, r_end - r);
  return true;
}

}  // namespace

std::string module_of(const std::string& path) {
  if (path.rfind("src/", 0) != 0) return "";
  const std::size_t slash = path.find('/', 4);
  if (slash == std::string::npos) return "";
  return path.substr(4, slash - 4);
}

bool SourceFile::suppressed(std::string_view code, int line) const {
  for (int l : {line, line - 1}) {
    auto [lo, hi] = suppressions.equal_range(l);
    for (auto it = lo; it != hi; ++it) {
      if (it->second.code != code || it->second.reason.empty()) continue;
      if (l == line || it->second.alone_on_line) return true;
    }
  }
  return false;
}

SourceFile scan_source(std::string path, const std::string& text) {
  SourceFile out;
  out.path = std::move(path);
  out.module = module_of(out.path);

  const std::size_t n = text.size();
  std::size_t i = 0;
  int line = 1;
  bool line_has_code = false;  // any token seen on the current line yet

  auto record_comment = [&](const std::string& body, int comment_line, bool alone) {
    Suppression s;
    if (parse_suppression(body, s)) {
      s.alone_on_line = alone;
      out.suppressions.emplace(comment_line, s);
    }
  };

  while (i < n) {
    const char c = text[i];
    if (c == '\n') {
      ++line;
      line_has_code = false;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // Line comment.
    if (c == '/' && i + 1 < n && text[i + 1] == '/') {
      const std::size_t start = i + 2;
      while (i < n && text[i] != '\n') ++i;
      record_comment(text.substr(start, i - start), line, /*alone=*/!line_has_code);
      continue;
    }
    // Block comment (may span lines; a suppression is anchored to the line
    // the comment STARTS on).
    if (c == '/' && i + 1 < n && text[i + 1] == '*') {
      const int start_line = line;
      const bool alone = !line_has_code;
      const std::size_t start = i + 2;
      i += 2;
      while (i + 1 < n && !(text[i] == '*' && text[i + 1] == '/')) {
        if (text[i] == '\n') ++line;
        ++i;
      }
      const std::size_t end = (i + 1 < n) ? i : n;
      record_comment(text.substr(start, end - start), start_line, alone);
      i = (i + 1 < n) ? i + 2 : n;
      // A block comment followed by code on the same line does not clear
      // line_has_code; it never set it.
      continue;
    }
    // Preprocessor directive: extract quoted project includes, skip the
    // rest of the line (no token soup from macros/conditions).
    if (c == '#' && !line_has_code) {
      const std::size_t eol = text.find('\n', i);
      const std::size_t end = eol == std::string::npos ? n : eol;
      const std::string directive = text.substr(i, end - i);
      if (directive.find("include") != std::string::npos) {
        const std::size_t q1 = directive.find('"');
        if (q1 != std::string::npos) {
          const std::size_t q2 = directive.find('"', q1 + 1);
          if (q2 != std::string::npos) {
            IncludeEdge e;
            e.target = directive.substr(q1 + 1, q2 - q1 - 1);
            e.target_module = module_of(e.target);
            e.line = line;
            out.includes.push_back(e);
          }
        }
      }
      i = end;
      continue;
    }
    // Raw string literal R"delim( ... )delim".
    if (c == 'R' && i + 1 < n && text[i + 1] == '"') {
      std::size_t p = i + 2;
      std::string delim;
      while (p < n && text[p] != '(' && delim.size() <= 16) delim += text[p++];
      const std::string closer = ")" + delim + "\"";
      const std::size_t close = text.find(closer, p);
      const std::size_t end = close == std::string::npos ? n : close + closer.size();
      out.tokens.push_back({Token::Kind::kString, "", line});
      for (std::size_t k = i; k < end && k < n; ++k) {
        if (text[k] == '\n') ++line;
      }
      line_has_code = true;
      i = end;
      continue;
    }
    if (c == '"' || c == '\'') {
      const char quote = c;
      std::size_t p = i + 1;
      std::string body;
      while (p < n && text[p] != quote) {
        if (text[p] == '\\' && p + 1 < n) {
          body += text[p];
          body += text[p + 1];
          p += 2;
          continue;
        }
        if (text[p] == '\n') break;  // unterminated; stop at EOL
        body += text[p++];
      }
      out.tokens.push_back(
          {quote == '"' ? Token::Kind::kString : Token::Kind::kChar, body, line});
      line_has_code = true;
      i = (p < n && text[p] == quote) ? p + 1 : p;
      continue;
    }
    if (ident_start(c)) {
      std::size_t p = i;
      while (p < n && ident_char(text[p])) ++p;
      out.tokens.push_back({Token::Kind::kIdent, text.substr(i, p - i), line});
      line_has_code = true;
      i = p;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::size_t p = i;
      while (p < n && (ident_char(text[p]) || text[p] == '.' ||
                       ((text[p] == '+' || text[p] == '-') && p > i &&
                        (text[p - 1] == 'e' || text[p - 1] == 'E' ||
                         text[p - 1] == 'p' || text[p - 1] == 'P')))) {
        ++p;
      }
      out.tokens.push_back({Token::Kind::kNumber, text.substr(i, p - i), line});
      line_has_code = true;
      i = p;
      continue;
    }
    // Punctuation, maximal munch.
    std::string punct(1, c);
    for (const char* m : kPuncts) {
      const std::size_t len = std::strlen(m);
      if (text.compare(i, len, m) == 0) {
        punct = m;
        break;
      }
    }
    out.tokens.push_back({Token::Kind::kPunct, punct, line});
    line_has_code = true;
    i += punct.size();
  }
  return out;
}

}  // namespace rtlb::audit
