// Token model for the SQL lexer.
#ifndef LOGR_SQL_TOKEN_H_
#define LOGR_SQL_TOKEN_H_

#include <string>
#include <string_view>

namespace logr::sql {

enum class TokenType {
  kIdentifier,   // messages, "Quoted Name", [bracketed]
  kKeyword,      // SELECT, FROM, WHERE, ... (uppercased in `text`)
  kInteger,      // 42
  kFloat,        // 4.2, .5, 1e9
  kString,       // 'literal' (quotes stripped, '' unescaped)
  kParameter,    // ? or :name or $1
  kOperator,     // = != <> < <= > >= + - * / % || . , ( ) ;
  kEndOfInput,
  kError,        // lexical error; message in `text`
};

struct Token {
  TokenType type = TokenType::kEndOfInput;
  std::string text;       // normalized text (keywords uppercased)
  std::size_t position = 0;  // byte offset in the input

  bool IsKeyword(std::string_view kw) const {
    return type == TokenType::kKeyword && text == kw;
  }
  bool IsOperator(std::string_view op) const {
    return type == TokenType::kOperator && text == op;
  }
};

}  // namespace logr::sql

#endif  // LOGR_SQL_TOKEN_H_
