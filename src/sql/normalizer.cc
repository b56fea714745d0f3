#include "sql/normalizer.h"

#include <algorithm>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "sql/printer.h"
#include "util/check.h"

namespace logr::sql {

namespace {

// ASCII lowercasing, as std::tolower does in the "C" locale.
void LowerInPlace(std::string* s) {
  for (char& c : *s) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
}

void LowercaseExpr(Expr* e);
void LowercaseSelect(SelectStmt* s);

void LowercaseTableRef(TableRef* t) {
  LowerInPlace(&t->table_name);
  LowerInPlace(&t->alias);
  if (t->derived) LowercaseSelect(t->derived.get());
  if (t->left) LowercaseTableRef(t->left.get());
  if (t->right) LowercaseTableRef(t->right.get());
  if (t->join_condition) LowercaseExpr(t->join_condition.get());
}

void LowercaseExpr(Expr* e) {
  LowerInPlace(&e->table);
  if (e->kind == ExprKind::kColumnRef || e->kind == ExprKind::kFunction) {
    LowerInPlace(&e->column);
  }
  for (auto& c : e->children) {
    if (c) LowercaseExpr(c.get());
  }
  if (e->subquery) LowercaseSelect(e->subquery.get());
}

void LowercaseSelect(SelectStmt* s) {
  for (auto& item : s->items) {
    LowercaseExpr(item.expr.get());
    LowerInPlace(&item.alias);
  }
  for (auto& t : s->from) LowercaseTableRef(t.get());
  if (s->where) LowercaseExpr(s->where.get());
  for (auto& g : s->group_by) LowercaseExpr(g.get());
  if (s->having) LowercaseExpr(s->having.get());
  for (auto& o : s->order_by) LowercaseExpr(o.expr.get());
  if (s->limit) LowercaseExpr(s->limit.get());
  if (s->offset) LowercaseExpr(s->offset.get());
}

void AnonymizeExpr(Expr* e);
void AnonymizeSelect(SelectStmt* s, bool keep_limit);

void AnonymizeTableRef(TableRef* t, bool keep_limit) {
  if (t->derived) AnonymizeSelect(t->derived.get(), keep_limit);
  if (t->left) AnonymizeTableRef(t->left.get(), keep_limit);
  if (t->right) AnonymizeTableRef(t->right.get(), keep_limit);
  if (t->join_condition) AnonymizeExpr(t->join_condition.get());
}

void AnonymizeExpr(Expr* e) {
  if (e->kind == ExprKind::kLiteral) {
    *e = Expr(ExprKind::kParameter);
    return;
  }
  for (auto& c : e->children) {
    if (c) AnonymizeExpr(c.get());
  }
  if (e->subquery) AnonymizeSelect(e->subquery.get(), /*keep_limit=*/true);
}

void AnonymizeSelect(SelectStmt* s, bool keep_limit) {
  for (auto& item : s->items) AnonymizeExpr(item.expr.get());
  for (auto& t : s->from) AnonymizeTableRef(t.get(), keep_limit);
  if (s->where) AnonymizeExpr(s->where.get());
  for (auto& g : s->group_by) AnonymizeExpr(g.get());
  if (s->having) AnonymizeExpr(s->having.get());
  for (auto& o : s->order_by) AnonymizeExpr(o.expr.get());
  if (!keep_limit) {
    if (s->limit) AnonymizeExpr(s->limit.get());
    if (s->offset) AnonymizeExpr(s->offset.get());
  }
}

BinaryOp InvertComparison(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq: return BinaryOp::kNe;
    case BinaryOp::kNe: return BinaryOp::kEq;
    case BinaryOp::kLt: return BinaryOp::kGe;
    case BinaryOp::kLe: return BinaryOp::kGt;
    case BinaryOp::kGt: return BinaryOp::kLe;
    case BinaryOp::kGe: return BinaryOp::kLt;
    default: LOGR_CHECK(false); return op;
  }
}

bool IsComparison(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq: case BinaryOp::kNe: case BinaryOp::kLt:
    case BinaryOp::kLe: case BinaryOp::kGt: case BinaryOp::kGe:
      return true;
    default:
      return false;
  }
}

// Joins terms [lo, hi) with `op` as a balanced tree. It prints exactly
// like the left-deep chain `t0 op t1 op ...` (equal precedences take no
// parentheses) and expands to the same DNF in the same order, but its
// height is logarithmic, so an IN list or conjunction of any length
// stays within the recursion depth every later pass can afford.
ExprPtr JoinBalanced(BinaryOp op, std::vector<ExprPtr>* terms,
                     std::size_t lo, std::size_t hi) {
  if (hi - lo == 1) return std::move((*terms)[lo]);
  const std::size_t mid = lo + (hi - lo) / 2;
  ExprPtr l = JoinBalanced(op, terms, lo, mid);
  ExprPtr r = JoinBalanced(op, terms, mid, hi);
  return MakeBinary(op, std::move(l), std::move(r));
}

// Normalizes with an optional pending negation.
ExprPtr NormalizeNeg(ExprPtr e, bool negate) {
  switch (e->kind) {
    case ExprKind::kUnary:
      if (e->unary_op == UnaryOp::kNot) {
        ExprPtr child = std::move(e->children[0]);
        return NormalizeNeg(std::move(child), !negate);
      }
      return negate ? MakeUnary(UnaryOp::kNot, std::move(e)) : std::move(e);
    case ExprKind::kBinary: {
      BinaryOp op = e->binary_op;
      if (op == BinaryOp::kAnd || op == BinaryOp::kOr) {
        e->children[0] = NormalizeNeg(std::move(e->children[0]), negate);
        e->children[1] = NormalizeNeg(std::move(e->children[1]), negate);
        if (negate) {
          e->binary_op =
              (op == BinaryOp::kAnd) ? BinaryOp::kOr : BinaryOp::kAnd;
        }
        return e;
      }
      if (IsComparison(op)) {
        if (negate) e->binary_op = InvertComparison(op);
        return e;
      }
      // Arithmetic / concat under negation: wrap.
      return negate ? MakeUnary(UnaryOp::kNot, std::move(e)) : std::move(e);
    }
    case ExprKind::kBetween: {
      bool effective_neg = e->negated != negate;
      ExprPtr x = std::move(e->children[0]);
      ExprPtr lo = std::move(e->children[1]);
      ExprPtr hi = std::move(e->children[2]);
      ExprPtr x_copy = x->Clone();
      if (!effective_neg) {
        // x >= lo AND x <= hi
        ExprPtr lo_atom = MakeBinary(BinaryOp::kGe, std::move(x_copy),
                                     std::move(lo));
        ExprPtr hi_atom = MakeBinary(BinaryOp::kLe, std::move(x),
                                     std::move(hi));
        return MakeBinary(BinaryOp::kAnd, std::move(lo_atom),
                          std::move(hi_atom));
      }
      // x < lo OR x > hi
      ExprPtr lo_atom = MakeBinary(BinaryOp::kLt, std::move(x_copy),
                                   std::move(lo));
      ExprPtr hi_atom = MakeBinary(BinaryOp::kGt, std::move(x),
                                   std::move(hi));
      return MakeBinary(BinaryOp::kOr, std::move(lo_atom),
                        std::move(hi_atom));
    }
    case ExprKind::kInList: {
      bool effective_neg = e->negated != negate;
      BinaryOp op = effective_neg ? BinaryOp::kNe : BinaryOp::kEq;
      // Expand to (in)equalities, deduplicating identical terms (after
      // constant removal all items are `?`). A dropped duplicate hands
      // its copy of the lhs on to the next term.
      std::vector<ExprPtr> terms;
      std::unordered_set<std::string> seen;
      ExprPtr spare_lhs = std::move(e->children[0]);
      for (std::size_t i = 1; i < e->children.size(); ++i) {
        ExprPtr lhs = spare_lhs ? std::move(spare_lhs)
                                : terms[0]->children[0]->Clone();
        ExprPtr term =
            MakeBinary(op, std::move(lhs), std::move(e->children[i]));
        if (seen.insert(PrintExpr(*term)).second) {
          terms.push_back(std::move(term));
        } else {
          spare_lhs = std::move(term->children[0]);
        }
      }
      LOGR_CHECK(!terms.empty());
      // IN = disjunction of equalities; NOT IN = conjunction of !=.
      return JoinBalanced(effective_neg ? BinaryOp::kAnd : BinaryOp::kOr,
                          &terms, 0, terms.size());
    }
    case ExprKind::kIsNull:
    case ExprKind::kLike:
    case ExprKind::kExists:
    case ExprKind::kInSubquery:
      if (negate) e->negated = !e->negated;
      return e;
    default:
      return negate ? MakeUnary(UnaryOp::kNot, std::move(e)) : std::move(e);
  }
}

// One disjunct of a DNF: the owning slots of its conjunct atoms.
using Conjunct = std::vector<ExprPtr*>;

// Collects the atoms of the AND tree in `*slot`, in order. False if an OR
// joins the atoms, i.e. the DNF has more than one disjunct.
bool CollectConjuncts(ExprPtr* slot, Conjunct* atoms) {
  Expr& e = **slot;
  if (e.kind == ExprKind::kBinary && e.binary_op == BinaryOp::kOr) {
    return false;
  }
  if (e.kind == ExprKind::kBinary && e.binary_op == BinaryOp::kAnd) {
    return CollectConjuncts(&e.children[0], atoms) &&
           CollectConjuncts(&e.children[1], atoms);
  }
  atoms->push_back(slot);
  return true;
}

// DNF expansion of the tree in `*slot`. Returns false if the expansion
// exceeds `cap`.
bool ToDnf(ExprPtr* slot, std::size_t cap, std::vector<Conjunct>* out) {
  Expr& e = **slot;
  if (e.kind == ExprKind::kBinary && e.binary_op == BinaryOp::kOr) {
    std::vector<Conjunct> l, r;
    if (!ToDnf(&e.children[0], cap, &l)) return false;
    if (!ToDnf(&e.children[1], cap, &r)) return false;
    out->clear();
    out->reserve(l.size() + r.size());
    for (auto& d : l) out->push_back(std::move(d));
    for (auto& d : r) out->push_back(std::move(d));
    return out->size() <= cap;
  }
  if (e.kind == ExprKind::kBinary && e.binary_op == BinaryOp::kAnd) {
    std::vector<Conjunct> l, r;
    if (!ToDnf(&e.children[0], cap, &l)) return false;
    if (!ToDnf(&e.children[1], cap, &r)) return false;
    if (l.size() * r.size() > cap) return false;
    out->clear();
    out->reserve(l.size() * r.size());
    for (const auto& dl : l) {
      for (const auto& dr : r) {
        Conjunct merged = dl;
        merged.insert(merged.end(), dr.begin(), dr.end());
        out->push_back(std::move(merged));
      }
    }
    return true;
  }
  out->assign(1, Conjunct{slot});
  return true;
}

// Rebuilds a conjunction from atoms, deduplicating by printed form (the
// first occurrence wins) and sorting for canonical ordering. With
// `take_atoms` the atoms are moved out of their slots, which is only
// right when no other disjunct shares them; otherwise they are cloned.
ExprPtr BuildConjunction(const Conjunct& atoms, bool take_atoms) {
  // Every atom's key is printed into one buffer.
  std::string buffer;
  std::vector<std::size_t> ends;
  ends.reserve(atoms.size());
  for (ExprPtr* a : atoms) {
    AppendExpr(**a, &buffer);
    ends.push_back(buffer.size());
  }
  const std::string_view keys = buffer;
  std::vector<std::pair<std::string_view, ExprPtr*>> keyed;
  keyed.reserve(atoms.size());
  for (std::size_t i = 0; i < atoms.size(); ++i) {
    const std::size_t begin = i == 0 ? 0 : ends[i - 1];
    keyed.emplace_back(keys.substr(begin, ends[i] - begin), atoms[i]);
  }
  std::stable_sort(
      keyed.begin(), keyed.end(),
      [](const auto& x, const auto& y) { return x.first < y.first; });
  std::vector<ExprPtr> terms;
  terms.reserve(keyed.size());
  for (std::size_t i = 0; i < keyed.size(); ++i) {
    if (i > 0 && keyed[i].first == keyed[i - 1].first) continue;
    ExprPtr* slot = keyed[i].second;
    terms.push_back(take_atoms ? std::move(*slot) : (*slot)->Clone());
  }
  return JoinBalanced(BinaryOp::kAnd, &terms, 0, terms.size());
}

}  // namespace

namespace {

// Would the NOT-normalized form of `e` (under a pending negation `neg`)
// contain a disjunction? Works structurally so that a multi-item
// IN (?, ?) counts as disjunctive even when its items print identically
// (JDBC parameters) — Table 1 classifies the *original* query.
bool HasDisjunction(const Expr& e, bool neg) {
  switch (e.kind) {
    case ExprKind::kUnary:
      if (e.unary_op == UnaryOp::kNot) {
        return HasDisjunction(*e.children[0], !neg);
      }
      return false;
    case ExprKind::kBinary:
      if (e.binary_op == BinaryOp::kAnd) {
        // NOT (a AND b) = NOT a OR NOT b: disjunctive under negation.
        if (neg) return true;
        return HasDisjunction(*e.children[0], false) ||
               HasDisjunction(*e.children[1], false);
      }
      if (e.binary_op == BinaryOp::kOr) {
        if (!neg) return true;
        // NOT (a OR b) = NOT a AND NOT b.
        return HasDisjunction(*e.children[0], true) ||
               HasDisjunction(*e.children[1], true);
      }
      return false;  // comparisons / arithmetic: negation flips operator
    case ExprKind::kInList: {
      bool is_in = (e.negated == neg);  // effective IN vs NOT IN
      bool multi = e.children.size() > 2;
      // x IN (a, b, ...) is a disjunction; NOT IN is a conjunction of !=.
      return is_in && multi;
    }
    case ExprKind::kBetween:
      // NOT BETWEEN = (x < lo OR x > hi).
      return e.negated != neg;
    default:
      return false;
  }
}

}  // namespace

bool IsConjunctive(const Statement& stmt) {
  if (stmt.selects.size() != 1) return false;
  const SelectStmt& s = *stmt.selects[0];
  auto boolean_expr_disjunctive = [](const Expr& raw) {
    return HasDisjunction(raw, /*neg=*/false);
  };
  if (s.where && boolean_expr_disjunctive(*s.where)) return false;
  if (s.having && boolean_expr_disjunctive(*s.having)) return false;
  // Join conditions are conjuncts of the WHERE in spirit.
  std::vector<const TableRef*> stack;
  for (const auto& t : s.from) stack.push_back(t.get());
  while (!stack.empty()) {
    const TableRef* t = stack.back();
    stack.pop_back();
    if (t->kind == TableRefKind::kJoin) {
      if (t->join_condition &&
          boolean_expr_disjunctive(*t->join_condition)) {
        return false;
      }
      stack.push_back(t->left.get());
      stack.push_back(t->right.get());
    }
  }
  return true;
}

void LowercaseIdentifiers(Statement* stmt) {
  for (auto& s : stmt->selects) LowercaseSelect(s.get());
}

void AnonymizeConstants(Statement* stmt, bool keep_limit_constants) {
  for (auto& s : stmt->selects) {
    AnonymizeSelect(s.get(), keep_limit_constants);
  }
}

ExprPtr NormalizeBooleanExpr(ExprPtr e) {
  return NormalizeNeg(std::move(e), /*negate=*/false);
}

StatementPtr Regularize(StatementPtr stmt, const RegularizeOptions& opts,
                        RegularizeInfo* info) {
  // Conjunctive-ness is a property of the original query, judged before
  // constant removal can merge IN-list items (Table 1 semantics).
  if (info) info->conjunctive = IsConjunctive(*stmt);
  LowercaseIdentifiers(stmt.get());
  if (opts.anonymize_constants) {
    AnonymizeConstants(stmt.get(), opts.keep_limit_constants);
  }

  auto out = std::make_unique<Statement>();
  out->union_all = stmt->union_all;
  bool all_rewritable = true;

  for (SelectPtr& select : stmt->selects) {
    if (!select->where) {
      out->selects.push_back(std::move(select));
      continue;
    }
    ExprPtr where = NormalizeBooleanExpr(std::move(select->where));
    Conjunct atoms;
    if (CollectConjuncts(&where, &atoms)) {
      // Conjunctive: canonicalize the atom order in place.
      select->where = BuildConjunction(atoms, /*take_atoms=*/true);
      out->selects.push_back(std::move(select));
      continue;
    }
    std::vector<Conjunct> dnf;
    if (!ToDnf(&where, opts.max_dnf_disjuncts, &dnf)) {
      all_rewritable = false;
      select->where = std::move(where);
      out->selects.push_back(std::move(select));
      continue;
    }
    // One UNION branch per disjunct; dedupe identical branches. Disjuncts
    // share atoms, so each branch gets copies; the last branch reuses the
    // (now WHERE-less) select itself.
    std::unordered_set<std::string> seen_branches;
    for (std::size_t d = 0; d < dnf.size(); ++d) {
      SelectPtr branch =
          d + 1 < dnf.size() ? select->Clone() : std::move(select);
      branch->where = BuildConjunction(dnf[d], /*take_atoms=*/false);
      if (seen_branches.insert(PrintSelect(*branch)).second) {
        out->selects.push_back(std::move(branch));
      }
    }
  }

  if (info) info->rewritable = all_rewritable;
  return out;
}

StatementPtr Regularize(const Statement& stmt, const RegularizeOptions& opts,
                        RegularizeInfo* info) {
  return Regularize(stmt.Clone(), opts, info);
}

}  // namespace logr::sql
