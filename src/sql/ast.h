// Abstract syntax tree for the supported SQL dialect (SELECT statements,
// possibly UNION'ed; other statement kinds are recognized by the parser
// but rejected, matching the paper's SELECT-only analysis funnel).
#ifndef LOGR_SQL_AST_H_
#define LOGR_SQL_AST_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace logr::sql {

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

enum class ExprKind {
  kColumnRef,   // [table.]column
  kLiteral,     // 42, 4.2, 'str', NULL, TRUE/FALSE
  kParameter,   // ? (all parameter syntaxes are normalized to ?)
  kStar,        // * or table.*
  kUnary,       // NOT x, -x, +x
  kBinary,      // x op y  (comparison, arithmetic, AND/OR, ||)
  kFunction,    // f(args...), COUNT(DISTINCT x), CAST(x AS t)
  kInList,      // x [NOT] IN (a, b, ...)
  kInSubquery,  // x [NOT] IN (SELECT ...)
  kBetween,     // x [NOT] BETWEEN lo AND hi
  kIsNull,      // x IS [NOT] NULL
  kLike,        // x [NOT] LIKE pattern [ESCAPE e]
  kExists,      // [NOT] EXISTS (SELECT ...)
  kCase,        // CASE [x] WHEN .. THEN .. [ELSE ..] END
  kSubquery,    // scalar subquery
};

enum class LiteralKind { kInteger, kFloat, kString, kNull, kBool };

enum class BinaryOp {
  kEq, kNe, kLt, kLe, kGt, kGe,      // comparisons
  kAdd, kSub, kMul, kDiv, kMod,       // arithmetic
  kAnd, kOr,                          // boolean
  kConcat,                            // ||
};

enum class UnaryOp { kNot, kNeg, kPlus };

struct SelectStmt;  // forward

struct Expr {
  ExprKind kind;

  // kColumnRef
  std::string table;   // optional qualifier (may be empty)
  std::string column;  // also function name for kFunction

  // kLiteral
  LiteralKind literal_kind = LiteralKind::kNull;
  std::string literal_text;  // original spelling ('value' for strings)
  bool bool_value = false;

  // kUnary / kBinary
  UnaryOp unary_op = UnaryOp::kNot;
  BinaryOp binary_op = BinaryOp::kEq;

  // Children. Layout by kind:
  //   kUnary:      [operand]
  //   kBinary:     [lhs, rhs]
  //   kFunction:   args
  //   kInList:     [lhs, item0, item1, ...]
  //   kBetween:    [x, lo, hi]
  //   kIsNull:     [x]
  //   kLike:       [x, pattern(, escape)]
  //   kCase:       [operand?] + when/then pairs + [else?]  (see case fields)
  std::vector<std::unique_ptr<Expr>> children;

  // kFunction extras
  bool distinct_arg = false;  // COUNT(DISTINCT x)

  // kInList / kBetween / kIsNull / kLike / kExists negation
  bool negated = false;

  // kCase bookkeeping: children = [operand (if has_case_operand)] then
  // n_when (when,then) pairs, then [else (if has_else)].
  bool has_case_operand = false;
  bool has_else = false;
  std::size_t n_when = 0;

  // kSubquery / kInSubquery / kExists
  std::unique_ptr<SelectStmt> subquery;

  Expr() : kind(ExprKind::kLiteral) {}
  explicit Expr(ExprKind k) : kind(k) {}

  /// Deep copy.
  std::unique_ptr<Expr> Clone() const;
};

using ExprPtr = std::unique_ptr<Expr>;

// Convenience constructors.
ExprPtr MakeColumnRef(std::string table, std::string column);
ExprPtr MakeParameter();
ExprPtr MakeNullLiteral();
ExprPtr MakeBinary(BinaryOp op, ExprPtr lhs, ExprPtr rhs);
ExprPtr MakeUnary(UnaryOp op, ExprPtr operand);
ExprPtr MakeStar();

// ---------------------------------------------------------------------------
// Table references
// ---------------------------------------------------------------------------

enum class TableRefKind { kBaseTable, kDerived, kJoin };
enum class JoinType { kInner, kLeft, kRight, kFull, kCross };

struct TableRef {
  TableRefKind kind = TableRefKind::kBaseTable;

  // kBaseTable
  std::string table_name;

  // kBaseTable / kDerived
  std::string alias;

  // kDerived
  std::unique_ptr<SelectStmt> derived;

  // kJoin
  JoinType join_type = JoinType::kInner;
  std::unique_ptr<TableRef> left;
  std::unique_ptr<TableRef> right;
  ExprPtr join_condition;  // may be null (CROSS / NATURAL)

  std::unique_ptr<TableRef> Clone() const;
};

using TableRefPtr = std::unique_ptr<TableRef>;

// ---------------------------------------------------------------------------
// SELECT statement
// ---------------------------------------------------------------------------

struct SelectItem {
  ExprPtr expr;
  std::string alias;  // empty if none

  SelectItem Clone() const;
};

struct OrderItem {
  ExprPtr expr;
  bool ascending = true;

  OrderItem Clone() const;
};

struct SelectStmt {
  bool distinct = false;
  std::vector<SelectItem> items;
  std::vector<TableRefPtr> from;  // comma-separated FROM list
  ExprPtr where;                  // may be null
  std::vector<ExprPtr> group_by;
  ExprPtr having;                 // may be null
  std::vector<OrderItem> order_by;
  ExprPtr limit;                  // may be null
  ExprPtr offset;                 // may be null

  std::unique_ptr<SelectStmt> Clone() const;
};

using SelectPtr = std::unique_ptr<SelectStmt>;

/// A full statement: one or more SELECT blocks combined with UNION [ALL].
struct Statement {
  std::vector<SelectPtr> selects;  // size >= 1
  bool union_all = false;          // true if any combinator was UNION ALL

  std::unique_ptr<Statement> Clone() const;
};

using StatementPtr = std::unique_ptr<Statement>;

}  // namespace logr::sql

#endif  // LOGR_SQL_AST_H_
