#include "maxent/scaling.h"

#include <cmath>

#include "maxent/entropy.h"
#include "util/check.h"

namespace logr {

namespace {

// Current model marginal of constraint j: sum of class probabilities over
// classes whose signature has bit j.
double ModelMarginal(const std::vector<double>& class_prob, std::size_t j) {
  double acc = 0.0;
  const std::size_t bit = std::size_t(1) << j;
  for (std::size_t s = 0; s < class_prob.size(); ++s) {
    if (s & bit) acc += class_prob[s];
  }
  return acc;
}

}  // namespace

MaxEntModel::MaxEntModel(const SignatureSpace* space,
                         std::vector<double> marginals,
                         const ScalingOptions& opts)
    : space_(space), target_marginals_(std::move(marginals)) {
  const std::size_t m = space_->num_patterns();
  LOGR_CHECK(target_marginals_.size() == m);
  const std::size_t classes = space_->num_classes();

  // Start from the uniform distribution over the space: class probability
  // proportional to class size.
  class_prob_.assign(classes, 0.0);
  double total = 0.0;
  for (std::size_t s = 0; s < classes; ++s) {
    class_prob_[s] = space_->ClassFraction(static_cast<std::uint32_t>(s));
    total += class_prob_[s];
  }
  LOGR_CHECK(total > 0.0);
  for (double& p : class_prob_) p /= total;

  // Iterative proportional fitting: sweep constraints, rescaling the
  // containing / non-containing halves of the lattice to match each
  // target marginal. Fixed point = unique max-ent distribution.
  for (iterations_ = 0; iterations_ < opts.max_iterations; ++iterations_) {
    double worst = 0.0;
    for (std::size_t j = 0; j < m; ++j) {
      const std::size_t bit = std::size_t(1) << j;
      double pj = ModelMarginal(class_prob_, j);
      double qj = target_marginals_[j];
      worst = std::max(worst, std::fabs(pj - qj));
      // Scale factors; degenerate constraints (0 or 1) zero one side.
      double scale_in = (pj > 0.0) ? qj / pj : 0.0;
      double scale_out = (pj < 1.0) ? (1.0 - qj) / (1.0 - pj) : 0.0;
      for (std::size_t s = 0; s < class_prob_.size(); ++s) {
        class_prob_[s] *= (s & bit) ? scale_in : scale_out;
      }
    }
    if (worst < opts.tolerance) {
      converged_ = true;
      break;
    }
  }
  // Final renormalization guards against drift.
  double z = 0.0;
  for (double p : class_prob_) z += p;
  if (z > 0.0) {
    for (double& p : class_prob_) p /= z;
  }
}

double MaxEntModel::EntropyNats() const {
  double h = 0.0;
  for (std::size_t s = 0; s < class_prob_.size(); ++s) {
    double ps = class_prob_[s];
    if (ps <= 0.0) continue;
    // -P_S ln P_S + P_S ln |class|
    h -= ps * std::log(ps);
    h += ps * space_->LogClassSize(static_cast<std::uint32_t>(s));
  }
  return h;
}

double MaxEntModel::MarginalOf(const FeatureVec& b) const {
  std::vector<double> with_b = space_->ClassFractionsContaining(b);
  double acc = 0.0;
  for (std::size_t s = 0; s < class_prob_.size(); ++s) {
    double frac = space_->ClassFraction(static_cast<std::uint32_t>(s));
    if (frac <= 0.0 || class_prob_[s] <= 0.0) continue;
    // Within class s the model is uniform, so the containment
    // probability is the fraction of the class that contains b.
    acc += class_prob_[s] * (with_b[s] / frac);
  }
  return acc;
}

double MaxEntModel::MaxResidual() const {
  double worst = 0.0;
  for (std::size_t j = 0; j < target_marginals_.size(); ++j) {
    worst = std::max(worst, std::fabs(ModelMarginal(class_prob_, j) -
                                      target_marginals_[j]));
  }
  return worst;
}

}  // namespace logr
