// Agglomerative hierarchical clustering with average linkage
// (paper Sec. 6.1.1 [29]).
//
// Unlike k-means/spectral, the dendrogram yields *monotone* cluster
// assignments: cutting at K+1 always refines the cut at K, giving
// monotone Error/Verbosity trade-off control. Implemented with the
// nearest-neighbor-chain algorithm (O(N^2) time, exact for reducible
// linkages such as weighted average linkage).
#ifndef LOGR_CLUSTER_HIERARCHICAL_H_
#define LOGR_CLUSTER_HIERARCHICAL_H_

#include <vector>

#include "cluster/distance.h"

namespace logr {

/// A full merge tree over N leaves. Merge i combines nodes `a[i]` and
/// `b[i]` (node ids: 0..N-1 = leaves, N+i = result of merge i) at height
/// `height[i]`, in non-decreasing height order after reordering.
struct Dendrogram {
  std::size_t num_leaves = 0;
  std::vector<int> merge_a;
  std::vector<int> merge_b;
  std::vector<double> height;

  /// Flat assignment for a K-cluster cut (the K-1 highest merges undone).
  /// Cluster ids are dense in [0, K).
  std::vector<int> CutToK(std::size_t k) const;
};

/// Average-linkage agglomeration from a pairwise distance matrix.
/// `weights` (optional) give leaf masses for the weighted average.
///
/// The fast path of the NN-chain algorithm: a per-slot cached-nearest
/// array (lazily invalidated when a slot's cached neighbor merges) makes
/// most nearest() calls O(1), and the remaining full scans plus the
/// Lance-Williams row updates run across `pool` (nullptr = serial).
/// Bit-identical to the original serial NN-chain (full nearest scans, no
/// cache; the test oracle in tests/support/agglomerate_reference.h) for
/// every pool size: the cache is exact (deterministic index tie-breaks
/// preserved) and all parallel stages write index-addressed slots with
/// serial, index-ordered reductions.
Dendrogram AgglomerativeAverageLinkage(const Matrix& distances,
                                       const std::vector<double>& weights,
                                       ThreadPool* pool = nullptr);

}  // namespace logr

#endif  // LOGR_CLUSTER_HIERARCHICAL_H_
