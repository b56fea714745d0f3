// AST -> SQL text rendering.
//
// Printing is canonical: keywords uppercase, identifiers as stored (the
// normalizer lowercases them), minimal parentheses driven by operator
// precedence. Round-tripping Parse(Print(ast)) yields an equal AST, which
// the test-suite checks property-style.
//
// The Append* functions render into the end of a caller-owned buffer, so
// a whole tree costs one growing string instead of one per node; the
// Print* functions are wrappers that start from an empty one.
#ifndef LOGR_SQL_PRINTER_H_
#define LOGR_SQL_PRINTER_H_

#include <string>

#include "sql/ast.h"

namespace logr::sql {

/// Appends the rendering of `e` / `s` to `out`.
void AppendExpr(const Expr& e, std::string* out);
void AppendSelect(const SelectStmt& s, std::string* out);

/// Renders an expression.
std::string PrintExpr(const Expr& e);

/// Renders one SELECT block.
std::string PrintSelect(const SelectStmt& s);

/// Renders a full (possibly UNION'ed) statement.
std::string PrintStatement(const Statement& s);

}  // namespace logr::sql

#endif  // LOGR_SQL_PRINTER_H_
