// Recursive-descent SQL parser for SELECT / UNION statements.
//
// The parser mirrors the paper's analysis funnel: the bank log contains
// stored-procedure invocations and other non-SELECT operations that are
// classified (and counted) but not parsed into ASTs. Parse errors are
// reported via ParseResult rather than exceptions.
#ifndef LOGR_SQL_PARSER_H_
#define LOGR_SQL_PARSER_H_

#include <memory>
#include <string>
#include <string_view>

#include "sql/ast.h"

namespace logr::sql {

/// Coarse statement classification used by the log-loading funnel.
enum class StatementKind {
  kSelect,           // parsed successfully into `statement`
  kInsert,
  kUpdate,
  kDelete,
  kDdl,              // CREATE / DROP / ALTER
  kProcedureCall,    // EXEC / EXECUTE / CALL
  kOther,            // recognized lexically but not a supported statement
  kParseError,       // lexical or syntactic error
};

struct ParseResult {
  StatementKind kind = StatementKind::kParseError;
  StatementPtr statement;     // non-null iff kind == kSelect
  std::string error;          // non-empty iff kind == kParseError
  std::size_t error_position = 0;

  bool ok() const { return kind == StatementKind::kSelect; }
};

/// How deep a statement Parse accepts. It bounds both the nesting of
/// brackets, subqueries and prefix operators (NOT, unary minus) and the
/// height of the syntax tree, which a chain of binary operators or joins
/// (`a AND b AND c ...`) grows by one level per operator. Every later
/// pass over the tree (regularize, print, extract, clone, destroy)
/// recurses once per level, so this bound is what keeps one hostile line
/// from overflowing the stack. Deeper input is a kParseError. The parser
/// itself recurses about ten calls per bracket level, ~2 KB of stack in
/// a Release build and ~15 KB under AddressSanitizer, so 256 levels stay
/// under 4 MB of an 8 MB stack in every build the suite runs.
inline constexpr int kMaxParseDepth = 256;

/// Parses one SQL statement (trailing semicolon permitted).
ParseResult Parse(std::string_view sql);

}  // namespace logr::sql

#endif  // LOGR_SQL_PARSER_H_
