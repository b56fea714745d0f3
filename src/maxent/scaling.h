// Generalized iterative scaling for pattern-constrained maximum entropy
// (paper Section 4.1; the iterative-scaling alternative it cites [17,20,40]).
//
// The max-ent distribution subject to marginal constraints
// p(Q ⊇ b_j) = q_j is of product form and hence uniform within each
// containment-equivalence class, so fitting runs over the 2^m class
// lattice of a SignatureSpace instead of the 2^n query space.
#ifndef LOGR_MAXENT_SCALING_H_
#define LOGR_MAXENT_SCALING_H_

#include <vector>

#include "maxent/signature_space.h"

namespace logr {

struct ScalingOptions {
  int max_iterations = 2000;
  /// Convergence threshold on the max absolute marginal residual.
  double tolerance = 1e-9;
};

/// A fitted max-ent model over a signature space.
class MaxEntModel {
 public:
  /// Fits the max-ent distribution with p(Q ⊇ b_j) = marginals[j] via
  /// iterative proportional fitting. Marginals must be consistent (they
  /// are whenever they were measured from an actual log).
  MaxEntModel(const SignatureSpace* space, std::vector<double> marginals,
              const ScalingOptions& opts = ScalingOptions());

  bool converged() const { return converged_; }
  int iterations() const { return iterations_; }

  /// Probability mass assigned to each signature class.
  const std::vector<double>& class_probabilities() const {
    return class_prob_;
  }

  /// Entropy (nats) of the model over the full 2^n space:
  /// H = -Σ_S P_S ln(P_S / |S|).
  double EntropyNats() const;

  /// Model marginal p(Q ⊇ b) of an arbitrary pattern.
  double MarginalOf(const FeatureVec& b) const;

  /// Max absolute deviation between fitted and requested marginals.
  double MaxResidual() const;

 private:
  const SignatureSpace* space_;
  std::vector<double> target_marginals_;
  std::vector<double> class_prob_;
  bool converged_ = false;
  int iterations_ = 0;
};

}  // namespace logr

#endif  // LOGR_MAXENT_SCALING_H_
