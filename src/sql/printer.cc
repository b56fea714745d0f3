#include "sql/printer.h"

#include "util/check.h"

namespace logr::sql {

namespace {

// Precedence levels for parenthesization (higher binds tighter).
constexpr int kComparison = 4;

int Precedence(const Expr& e) {
  switch (e.kind) {
    case ExprKind::kBinary:
      switch (e.binary_op) {
        case BinaryOp::kOr: return 1;
        case BinaryOp::kAnd: return 2;
        case BinaryOp::kEq: case BinaryOp::kNe: case BinaryOp::kLt:
        case BinaryOp::kLe: case BinaryOp::kGt: case BinaryOp::kGe:
          return kComparison;
        case BinaryOp::kConcat: return 5;
        case BinaryOp::kAdd: case BinaryOp::kSub: return 6;
        case BinaryOp::kMul: case BinaryOp::kDiv: case BinaryOp::kMod:
          return 7;
      }
      return 9;
    case ExprKind::kUnary:
      return e.unary_op == UnaryOp::kNot ? 3 : 8;
    case ExprKind::kInList:
    case ExprKind::kInSubquery:
    case ExprKind::kBetween:
    case ExprKind::kIsNull:
    case ExprKind::kLike:
      return kComparison;
    default:
      return 10;  // primaries never need parens
  }
}

const char* BinaryOpText(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq: return "=";
    case BinaryOp::kNe: return "!=";
    case BinaryOp::kLt: return "<";
    case BinaryOp::kLe: return "<=";
    case BinaryOp::kGt: return ">";
    case BinaryOp::kGe: return ">=";
    case BinaryOp::kAdd: return "+";
    case BinaryOp::kSub: return "-";
    case BinaryOp::kMul: return "*";
    case BinaryOp::kDiv: return "/";
    case BinaryOp::kMod: return "%";
    case BinaryOp::kAnd: return "AND";
    case BinaryOp::kOr: return "OR";
    case BinaryOp::kConcat: return "||";
  }
  return "?";
}

// `right` marks a binary operator's right operand. An equal-precedence
// child keeps its brackets where the parser would regroup it: on the
// right (operators associate left: `a - (b - c)`) and on either side of
// a comparison, which does not chain. AND/OR chains print flat: their
// grouping never changes the meaning, and the normalizer rebuilds them
// as balanced trees.
void AppendChild(const Expr& parent, const Expr& child, std::string* out,
                 bool right = false) {
  const int parent_prec = Precedence(parent);
  const int child_prec = Precedence(child);
  const bool and_or = parent.binary_op == BinaryOp::kAnd ||
                      parent.binary_op == BinaryOp::kOr;
  const bool paren = child_prec < parent_prec ||
                     (child_prec == parent_prec &&
                      (parent_prec == kComparison || (right && !and_or)));
  if (paren) out->push_back('(');
  AppendExpr(child, out);
  if (paren) out->push_back(')');
}

// Appends the items of `list` from index `begin` on, comma-separated.
template <typename List, typename AppendOne>
void AppendList(const List& list, std::size_t begin, std::string* out,
                AppendOne append_one) {
  for (std::size_t i = begin; i < list.size(); ++i) {
    if (i > begin) out->append(", ");
    append_one(list[i]);
  }
}

void AppendTableRef(const TableRef& t, std::string* out) {
  switch (t.kind) {
    case TableRefKind::kBaseTable:
      out->append(t.table_name);
      break;
    case TableRefKind::kDerived:
      out->push_back('(');
      AppendSelect(*t.derived, out);
      out->push_back(')');
      break;
    case TableRefKind::kJoin: {
      const char* kw = "JOIN";
      switch (t.join_type) {
        case JoinType::kInner: kw = "JOIN"; break;
        case JoinType::kLeft: kw = "LEFT JOIN"; break;
        case JoinType::kRight: kw = "RIGHT JOIN"; break;
        case JoinType::kFull: kw = "FULL JOIN"; break;
        case JoinType::kCross: kw = "CROSS JOIN"; break;
      }
      AppendTableRef(*t.left, out);
      out->push_back(' ');
      out->append(kw);
      out->push_back(' ');
      AppendTableRef(*t.right, out);
      if (t.join_condition) {
        out->append(" ON ");
        AppendExpr(*t.join_condition, out);
      }
      return;
    }
  }
  if (!t.alias.empty()) {
    out->push_back(' ');
    out->append(t.alias);
  }
}

void AppendQuoted(const std::string& raw, std::string* out) {
  out->push_back('\'');
  for (char c : raw) {
    if (c == '\'') out->push_back('\'');
    out->push_back(c);
  }
  out->push_back('\'');
}

}  // namespace

void AppendExpr(const Expr& e, std::string* out) {
  switch (e.kind) {
    case ExprKind::kColumnRef:
      if (!e.table.empty()) {
        out->append(e.table);
        out->push_back('.');
      }
      out->append(e.column);
      return;
    case ExprKind::kLiteral:
      switch (e.literal_kind) {
        case LiteralKind::kString: AppendQuoted(e.literal_text, out); return;
        case LiteralKind::kNull: out->append("NULL"); return;
        case LiteralKind::kBool:
          out->append(e.bool_value ? "TRUE" : "FALSE");
          return;
        default: out->append(e.literal_text); return;
      }
    case ExprKind::kParameter:
      out->push_back('?');
      return;
    case ExprKind::kStar:
      if (!e.table.empty()) {
        out->append(e.table);
        out->push_back('.');
      }
      out->push_back('*');
      return;
    case ExprKind::kUnary:
      switch (e.unary_op) {
        case UnaryOp::kNot: out->append("NOT "); break;
        case UnaryOp::kNeg: out->push_back('-'); break;
        case UnaryOp::kPlus: out->push_back('+'); break;
      }
      AppendChild(e, *e.children[0], out);
      return;
    case ExprKind::kBinary:
      AppendChild(e, *e.children[0], out);
      out->push_back(' ');
      out->append(BinaryOpText(e.binary_op));
      out->push_back(' ');
      AppendChild(e, *e.children[1], out, /*right=*/true);
      return;
    case ExprKind::kFunction:
      if (e.column == "CAST" && e.children.size() == 1) {
        out->append("CAST(");
        AppendExpr(*e.children[0], out);
        out->append(" AS ");
        out->append(e.table);
        out->push_back(')');
        return;
      }
      out->append(e.column);
      out->push_back('(');
      if (e.distinct_arg) out->append("DISTINCT ");
      AppendList(e.children, 0, out,
                 [out](const ExprPtr& c) { AppendExpr(*c, out); });
      out->push_back(')');
      return;
    case ExprKind::kInList:
      AppendChild(e, *e.children[0], out);
      out->append(e.negated ? " NOT IN (" : " IN (");
      AppendList(e.children, 1, out,
                 [out](const ExprPtr& c) { AppendExpr(*c, out); });
      out->push_back(')');
      return;
    case ExprKind::kInSubquery:
      AppendChild(e, *e.children[0], out);
      out->append(e.negated ? " NOT IN (" : " IN (");
      AppendSelect(*e.subquery, out);
      out->push_back(')');
      return;
    case ExprKind::kBetween:
      AppendChild(e, *e.children[0], out);
      out->append(e.negated ? " NOT BETWEEN " : " BETWEEN ");
      AppendChild(e, *e.children[1], out);
      out->append(" AND ");
      AppendChild(e, *e.children[2], out);
      return;
    case ExprKind::kIsNull:
      AppendChild(e, *e.children[0], out);
      out->append(e.negated ? " IS NOT NULL" : " IS NULL");
      return;
    case ExprKind::kLike:
      AppendChild(e, *e.children[0], out);
      out->append(e.negated ? " NOT LIKE " : " LIKE ");
      AppendChild(e, *e.children[1], out);
      if (e.children.size() > 2) {
        out->append(" ESCAPE ");
        AppendExpr(*e.children[2], out);
      }
      return;
    case ExprKind::kExists:
      if (e.negated) out->append("NOT ");
      out->append("EXISTS (");
      AppendSelect(*e.subquery, out);
      out->push_back(')');
      return;
    case ExprKind::kCase: {
      out->append("CASE");
      std::size_t idx = 0;
      if (e.has_case_operand) {
        out->push_back(' ');
        AppendExpr(*e.children[idx++], out);
      }
      for (std::size_t w = 0; w < e.n_when; ++w) {
        out->append(" WHEN ");
        AppendExpr(*e.children[idx++], out);
        out->append(" THEN ");
        AppendExpr(*e.children[idx++], out);
      }
      if (e.has_else) {
        out->append(" ELSE ");
        AppendExpr(*e.children[idx++], out);
      }
      out->append(" END");
      return;
    }
    case ExprKind::kSubquery:
      out->push_back('(');
      AppendSelect(*e.subquery, out);
      out->push_back(')');
      return;
  }
}

void AppendSelect(const SelectStmt& s, std::string* out) {
  out->append(s.distinct ? "SELECT DISTINCT " : "SELECT ");
  AppendList(s.items, 0, out, [out](const SelectItem& item) {
    AppendExpr(*item.expr, out);
    if (!item.alias.empty()) {
      out->append(" AS ");
      out->append(item.alias);
    }
  });
  if (!s.from.empty()) {
    out->append(" FROM ");
    AppendList(s.from, 0, out,
               [out](const TableRefPtr& t) { AppendTableRef(*t, out); });
  }
  if (s.where) {
    out->append(" WHERE ");
    AppendExpr(*s.where, out);
  }
  if (!s.group_by.empty()) {
    out->append(" GROUP BY ");
    AppendList(s.group_by, 0, out,
               [out](const ExprPtr& g) { AppendExpr(*g, out); });
  }
  if (s.having) {
    out->append(" HAVING ");
    AppendExpr(*s.having, out);
  }
  if (!s.order_by.empty()) {
    out->append(" ORDER BY ");
    AppendList(s.order_by, 0, out, [out](const OrderItem& o) {
      AppendExpr(*o.expr, out);
      if (!o.ascending) out->append(" DESC");
    });
  }
  if (s.limit) {
    out->append(" LIMIT ");
    AppendExpr(*s.limit, out);
  }
  if (s.offset) {
    out->append(" OFFSET ");
    AppendExpr(*s.offset, out);
  }
}

std::string PrintExpr(const Expr& e) {
  std::string out;
  AppendExpr(e, &out);
  return out;
}

std::string PrintSelect(const SelectStmt& s) {
  std::string out;
  AppendSelect(s, &out);
  return out;
}

std::string PrintStatement(const Statement& s) {
  LOGR_CHECK(!s.selects.empty());
  std::string out;
  AppendSelect(*s.selects[0], &out);
  for (std::size_t i = 1; i < s.selects.size(); ++i) {
    out.append(s.union_all ? " UNION ALL " : " UNION ");
    AppendSelect(*s.selects[i], &out);
  }
  return out;
}

}  // namespace logr::sql
