#include "workload/extractor.h"

#include <algorithm>
#include <functional>
#include <numeric>
#include <string>
#include <tuple>

#include "sql/printer.h"
#include "util/check.h"

namespace logr {

namespace {

using sql::Expr;
using sql::ExprKind;
using sql::BinaryOp;
using sql::SelectStmt;
using sql::TableRef;
using sql::TableRefKind;

/// Walks the features of one statement in clause order.
class Collector {
 public:
  Collector(const ExtractOptions& opts,
            const std::function<void(const Feature&)>& visit)
      : opts_(opts), visit_(visit) {}

  void AddStatement(const sql::Statement& stmt) {
    for (const auto& s : stmt.selects) AddSelect(*s);
  }

 private:
  // Renders `prefix` + `e` into the scratch feature and visits it.
  void AddExpr(FeatureClause clause, const char* prefix, const Expr& e) {
    feature_.clause = clause;
    feature_.text.assign(prefix);
    sql::AppendExpr(e, &feature_.text);
    visit_(feature_);
  }

  void AddSelect(const SelectStmt& s) {
    for (const auto& item : s.items) {
      AddExpr(FeatureClause::kSelect, "", *item.expr);
    }
    for (const auto& t : s.from) AddTableRef(*t);
    if (s.where) AddConjunction(*s.where);
    if (s.having) AddConjunction(*s.having);
    if (opts_.extended_clauses) {
      for (const auto& g : s.group_by) {
        AddExpr(FeatureClause::kGroupBy, "", *g);
      }
      for (const auto& o : s.order_by) {
        AddExpr(FeatureClause::kOrderBy, o.ascending ? "asc " : "desc ",
                *o.expr);
      }
      if (s.limit) AddExpr(FeatureClause::kLimit, "limit ", *s.limit);
    }
  }

  void AddTableRef(const TableRef& t) {
    switch (t.kind) {
      case TableRefKind::kBaseTable:
        feature_.clause = FeatureClause::kFrom;
        feature_.text = t.table_name;
        visit_(feature_);
        break;
      case TableRefKind::kDerived:
        // A subquery in FROM is a single feature (Aligon); its own
        // clauses are not flattened into the outer query.
        feature_.clause = FeatureClause::kFrom;
        feature_.text.assign("(");
        sql::AppendSelect(*t.derived, &feature_.text);
        feature_.text.push_back(')');
        visit_(feature_);
        break;
      case TableRefKind::kJoin:
        AddTableRef(*t.left);
        AddTableRef(*t.right);
        if (t.join_condition) AddConjunction(*t.join_condition);
        break;
    }
  }

  // Splits a (normalized) boolean expression on AND and records each
  // conjunctive atom. OR subtrees that survived regularization are kept
  // as one opaque atom so no information is silently dropped.
  void AddConjunction(const Expr& e) {
    if (e.kind == ExprKind::kBinary && e.binary_op == BinaryOp::kAnd) {
      AddConjunction(*e.children[0]);
      AddConjunction(*e.children[1]);
      return;
    }
    AddExpr(FeatureClause::kWhere, "", e);
  }

  const ExtractOptions& opts_;
  const std::function<void(const Feature&)>& visit_;
  Feature feature_;  // scratch: the feature being rendered
};

// Calls `visit` for every feature occurrence of `stmt`, in clause order;
// a feature that occurs twice is visited twice. The Feature passed is
// only valid during the call.
void VisitFeatures(const sql::Statement& stmt, const ExtractOptions& opts,
                   const std::function<void(const Feature&)>& visit) {
  Collector(opts, visit).AddStatement(stmt);
}

}  // namespace

std::vector<Feature> ListFeatures(const sql::Statement& stmt,
                                  const ExtractOptions& opts) {
  std::vector<Feature> all;
  VisitFeatures(stmt, opts, [&](const Feature& f) { all.push_back(f); });
  // Keep the first occurrence of each feature: sort positions by feature,
  // earlier positions first among equals, and drop the later ones.
  std::vector<std::size_t> order(all.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return std::tie(all[a].clause, all[a].text) <
                            std::tie(all[b].clause, all[b].text);
                   });
  std::vector<bool> repeat(all.size(), false);
  for (std::size_t i = 1; i < order.size(); ++i) {
    repeat[order[i]] = all[order[i]] == all[order[i - 1]];
  }
  std::vector<Feature> out;
  out.reserve(all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (!repeat[i]) out.push_back(std::move(all[i]));
  }
  return out;
}

FeatureVec ExtractFeatures(const sql::Statement& stmt,
                           const ExtractOptions& opts, Vocabulary* vocab) {
  // Interning in walk order assigns new ids in first-seen order; the
  // FeatureVec drops repeated ids.
  std::vector<FeatureId> ids;
  VisitFeatures(stmt, opts,
                [&](const Feature& f) { ids.push_back(vocab->Intern(f)); });
  return FeatureVec(std::move(ids));
}

FeatureVec ExtractFeaturesFrozen(const sql::Statement& stmt,
                                 const ExtractOptions& opts,
                                 const Vocabulary& vocab) {
  std::vector<FeatureId> ids;
  VisitFeatures(stmt, opts, [&](const Feature& f) {
    FeatureId id = vocab.Find(f);
    if (id != Vocabulary::kNotFound) ids.push_back(id);
  });
  return FeatureVec(std::move(ids));
}

}  // namespace logr
