#include "sql/ast.h"

namespace logr::sql {

std::unique_ptr<Expr> Expr::Clone() const {
  auto out = std::make_unique<Expr>(kind);
  out->table = table;
  out->column = column;
  out->literal_kind = literal_kind;
  out->literal_text = literal_text;
  out->bool_value = bool_value;
  out->unary_op = unary_op;
  out->binary_op = binary_op;
  out->distinct_arg = distinct_arg;
  out->negated = negated;
  out->has_case_operand = has_case_operand;
  out->has_else = has_else;
  out->n_when = n_when;
  out->children.reserve(children.size());
  for (const auto& c : children) {
    out->children.push_back(c ? c->Clone() : nullptr);
  }
  if (subquery) out->subquery = subquery->Clone();
  return out;
}

ExprPtr MakeColumnRef(std::string table, std::string column) {
  auto e = std::make_unique<Expr>(ExprKind::kColumnRef);
  e->table = std::move(table);
  e->column = std::move(column);
  return e;
}

ExprPtr MakeParameter() {
  return std::make_unique<Expr>(ExprKind::kParameter);
}

ExprPtr MakeNullLiteral() {
  auto e = std::make_unique<Expr>(ExprKind::kLiteral);
  e->literal_kind = LiteralKind::kNull;
  e->literal_text = "NULL";
  return e;
}

ExprPtr MakeBinary(BinaryOp op, ExprPtr lhs, ExprPtr rhs) {
  auto e = std::make_unique<Expr>(ExprKind::kBinary);
  e->binary_op = op;
  e->children.push_back(std::move(lhs));
  e->children.push_back(std::move(rhs));
  return e;
}

ExprPtr MakeUnary(UnaryOp op, ExprPtr operand) {
  auto e = std::make_unique<Expr>(ExprKind::kUnary);
  e->unary_op = op;
  e->children.push_back(std::move(operand));
  return e;
}

ExprPtr MakeStar() { return std::make_unique<Expr>(ExprKind::kStar); }

std::unique_ptr<TableRef> TableRef::Clone() const {
  auto out = std::make_unique<TableRef>();
  out->kind = kind;
  out->table_name = table_name;
  out->alias = alias;
  if (derived) out->derived = derived->Clone();
  out->join_type = join_type;
  if (left) out->left = left->Clone();
  if (right) out->right = right->Clone();
  if (join_condition) out->join_condition = join_condition->Clone();
  return out;
}

SelectItem SelectItem::Clone() const {
  SelectItem out;
  out.expr = expr ? expr->Clone() : nullptr;
  out.alias = alias;
  return out;
}

OrderItem OrderItem::Clone() const {
  OrderItem out;
  out.expr = expr ? expr->Clone() : nullptr;
  out.ascending = ascending;
  return out;
}

std::unique_ptr<SelectStmt> SelectStmt::Clone() const {
  auto out = std::make_unique<SelectStmt>();
  out->distinct = distinct;
  out->items.reserve(items.size());
  for (const auto& item : items) out->items.push_back(item.Clone());
  out->from.reserve(from.size());
  for (const auto& t : from) out->from.push_back(t->Clone());
  if (where) out->where = where->Clone();
  for (const auto& g : group_by) out->group_by.push_back(g->Clone());
  if (having) out->having = having->Clone();
  for (const auto& o : order_by) out->order_by.push_back(o.Clone());
  if (limit) out->limit = limit->Clone();
  if (offset) out->offset = offset->Clone();
  return out;
}

std::unique_ptr<Statement> Statement::Clone() const {
  auto out = std::make_unique<Statement>();
  out->union_all = union_all;
  out->selects.reserve(selects.size());
  for (const auto& s : selects) out->selects.push_back(s->Clone());
  return out;
}

}  // namespace logr::sql
