#include "sql/lexer.h"

#include <algorithm>
#include <iterator>

#include "util/string_util.h"

namespace logr::sql {

namespace {

// Reserved words, sorted for binary search.
constexpr std::string_view kKeywords[] = {
    "ALL",    "ALTER",   "AND",    "AS",      "ASC",     "BETWEEN",
    "BY",     "CALL",    "CASE",   "CAST",    "CREATE",  "CROSS",
    "DELETE", "DESC",    "DISTINCT", "DROP",  "ELSE",    "END",
    "ESCAPE", "EXEC",    "EXECUTE", "EXISTS", "FALSE",   "FROM",
    "FULL",   "GLOB",    "GROUP",  "HAVING",  "IN",      "INDEX",
    "INNER",  "INSERT",  "INTO",   "IS",      "JOIN",    "LEFT",
    "LIKE",   "LIMIT",   "NATURAL", "NOT",    "NULL",    "OFFSET",
    "ON",     "OR",      "ORDER",  "OUTER",   "REGEXP",  "RIGHT",
    "SELECT", "SET",     "TABLE",  "THEN",    "TRUE",    "UNION",
    "UPDATE", "USING",   "VALUES", "VIEW",    "WHEN",    "WHERE",
};
constexpr std::size_t kMaxKeywordLength = 8;  // DISTINCT

// ASCII character classes, matching <cctype> in the "C" locale the
// library runs in, without a call per character.
bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }
bool IsDigit(char c) { return c >= '0' && c <= '9'; }
bool IsAlpha(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}
bool IsIdentStart(char c) { return IsAlpha(c) || c == '_'; }
bool IsIdentChar(char c) { return IsIdentStart(c) || IsDigit(c); }

// The reserved word `word` spells in any case, or an empty view. The
// returned view is the static uppercase spelling.
std::string_view FindKeyword(std::string_view word) {
  if (word.size() > kMaxKeywordLength) return {};
  char upper[kMaxKeywordLength];
  for (std::size_t i = 0; i < word.size(); ++i) {
    const char c = word[i];
    upper[i] = (c >= 'a' && c <= 'z') ? static_cast<char>(c - 'a' + 'A') : c;
  }
  const std::string_view key(upper, word.size());
  const auto* end = std::end(kKeywords);
  const auto* it = std::lower_bound(std::begin(kKeywords), end, key);
  return it != end && *it == key ? *it : std::string_view();
}

}  // namespace

std::vector<Token> Lex(std::string_view in) {
  std::vector<Token> out;
  std::size_t i = 0;
  const std::size_t n = in.size();
  out.reserve(n / 4 + 2);  // log statements run ~5 bytes per token

  auto error = [&](std::size_t pos, std::string msg) {
    out.push_back({TokenType::kError, std::move(msg), pos});
  };

  while (i < n) {
    char c = in[i];
    // Whitespace.
    if (IsSpace(c)) {
      ++i;
      continue;
    }
    // Line comment.
    if (c == '-' && i + 1 < n && in[i + 1] == '-') {
      while (i < n && in[i] != '\n') ++i;
      continue;
    }
    // Block comment.
    if (c == '/' && i + 1 < n && in[i + 1] == '*') {
      std::size_t start = i;
      i += 2;
      while (i + 1 < n && !(in[i] == '*' && in[i + 1] == '/')) ++i;
      if (i + 1 >= n) {
        error(start, "unterminated block comment");
        return out;
      }
      i += 2;
      continue;
    }
    // String literal.
    if (c == '\'') {
      std::size_t start = i;
      ++i;
      std::string text;
      bool closed = false;
      while (i < n) {
        if (in[i] == '\'') {
          if (i + 1 < n && in[i + 1] == '\'') {  // escaped quote
            text.push_back('\'');
            i += 2;
            continue;
          }
          closed = true;
          ++i;
          break;
        }
        text.push_back(in[i]);
        ++i;
      }
      if (!closed) {
        error(start, "unterminated string literal");
        return out;
      }
      out.push_back({TokenType::kString, std::move(text), start});
      continue;
    }
    // Quoted identifier: "name" or [name] or `name`.
    if (c == '"' || c == '[' || c == '`') {
      char close = c == '[' ? ']' : c;
      std::size_t start = i;
      ++i;
      std::string text;
      bool closed = false;
      while (i < n) {
        if (in[i] == close) {
          closed = true;
          ++i;
          break;
        }
        text.push_back(in[i]);
        ++i;
      }
      if (!closed) {
        error(start, "unterminated quoted identifier");
        return out;
      }
      out.push_back({TokenType::kIdentifier, std::move(text), start});
      continue;
    }
    // Number.
    if (IsDigit(c) || (c == '.' && i + 1 < n && IsDigit(in[i + 1]))) {
      std::size_t start = i;
      bool is_float = false;
      while (i < n && IsDigit(in[i])) ++i;
      if (i < n && in[i] == '.') {
        is_float = true;
        ++i;
        while (i < n && IsDigit(in[i])) ++i;
      }
      if (i < n && (in[i] == 'e' || in[i] == 'E')) {
        std::size_t save = i;
        ++i;
        if (i < n && (in[i] == '+' || in[i] == '-')) ++i;
        if (i < n && IsDigit(in[i])) {
          is_float = true;
          while (i < n && IsDigit(in[i])) ++i;
        } else {
          i = save;  // not an exponent, e.g. "1e" in "1end"
        }
      }
      out.push_back({is_float ? TokenType::kFloat : TokenType::kInteger,
                     std::string(in.substr(start, i - start)), start});
      continue;
    }
    // Parameters.
    if (c == '?') {
      out.push_back({TokenType::kParameter, "?", i});
      ++i;
      continue;
    }
    if ((c == ':' || c == '$') && i + 1 < n && IsIdentChar(in[i + 1])) {
      std::size_t start = i;
      ++i;
      while (i < n && IsIdentChar(in[i])) ++i;
      out.push_back({TokenType::kParameter, "?", start});
      continue;
    }
    // Identifier or keyword.
    if (IsIdentStart(c)) {
      std::size_t start = i;
      while (i < n && IsIdentChar(in[i])) ++i;
      const std::string_view word = in.substr(start, i - start);
      const std::string_view keyword = FindKeyword(word);
      if (!keyword.empty()) {
        out.push_back({TokenType::kKeyword, std::string(keyword), start});
      } else {
        out.push_back({TokenType::kIdentifier, std::string(word), start});
      }
      continue;
    }
    // Multi-char operators.
    auto two = (i + 1 < n) ? in.substr(i, 2) : std::string_view();
    if (two == "!=" || two == "<>" || two == "<=" || two == ">=" ||
        two == "||") {
      out.push_back({TokenType::kOperator,
                     two == "<>" ? "!=" : std::string(two), i});
      i += 2;
      continue;
    }
    // Single-char operators.
    static const std::string kSingle = "=<>+-*/%.,();";
    if (kSingle.find(c) != std::string::npos) {
      out.push_back({TokenType::kOperator, std::string(1, c), i});
      ++i;
      continue;
    }
    error(i, StrFormat("unexpected character '%c'", c));
    return out;
  }
  out.push_back({TokenType::kEndOfInput, "", n});
  return out;
}

}  // namespace logr::sql
