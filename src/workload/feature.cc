#include "workload/feature.h"

#include "util/check.h"

namespace logr {

const char* FeatureClauseName(FeatureClause clause) {
  switch (clause) {
    case FeatureClause::kSelect: return "SELECT";
    case FeatureClause::kFrom: return "FROM";
    case FeatureClause::kWhere: return "WHERE";
    case FeatureClause::kGroupBy: return "GROUPBY";
    case FeatureClause::kOrderBy: return "ORDERBY";
    case FeatureClause::kLimit: return "LIMIT";
  }
  return "?";
}

std::string Feature::ToString() const {
  return "<" + text + ", " + FeatureClauseName(clause) + ">";
}

FeatureId Vocabulary::Intern(const Feature& f) {
  const FeatureId next = static_cast<FeatureId>(features_.size());
  const auto [it, inserted] =
      index_[static_cast<std::size_t>(f.clause)].try_emplace(f.text, next);
  if (inserted) features_.push_back(f);
  return it->second;
}

FeatureId Vocabulary::Find(const Feature& f) const {
  const auto& index = index_[static_cast<std::size_t>(f.clause)];
  auto it = index.find(f.text);
  return it == index.end() ? kNotFound : it->second;
}

const Feature& Vocabulary::Get(FeatureId id) const {
  LOGR_CHECK(id < features_.size());
  return features_[id];
}

}  // namespace logr
