// Distance measures over binary sparse feature vectors (paper Sec. 6.1).
//
// The paper evaluates KMeans with Euclidean distance and Spectral
// clustering with Manhattan, Minkowski (p=4) and Hamming distances, and
// mentions Chebyshev and Canberra as also-rans. On 0/1 vectors every one
// of these is a function of the symmetric-difference count, which both
// kernels exploit:
//
//  - the sparse merge kernel walks two sorted id lists
//    (SymmetricDifference over FeatureVecs — the reference path), and
//  - the packed kernel XOR+popcounts dense u64 blocks (PackedVecPool),
//    which is what DistanceMatrix and DistancePairs run on.
//
// Both produce the same exact integer, so every derived metric is
// bit-identical between them.
#ifndef LOGR_CLUSTER_DISTANCE_H_
#define LOGR_CLUSTER_DISTANCE_H_

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "linalg/matrix.h"
#include "util/thread_pool.h"
#include "workload/feature_vec.h"

namespace logr {

enum class Metric {
  kEuclidean,
  kManhattan,
  kMinkowski,  // l_p, parameterized by DistanceSpec::p
  kHamming,    // count(x != y) / n  (paper's normalized form)
  kChebyshev,
  kCanberra,
};

struct DistanceSpec {
  Metric metric = Metric::kEuclidean;
  double p = 4.0;  // Minkowski order (paper uses p = 4)

  std::string Name() const;
};

/// Number of coordinates on which `a` and `b` differ (sparse merge
/// kernel — the packed pool computes the identical integer).
std::size_t SymmetricDifference(const FeatureVec& a, const FeatureVec& b);

/// Maps an exact symmetric-difference count to the metric value. Shared
/// by the merge and packed kernels, so the two are bit-identical by
/// construction.
double DistanceFromSymmetricDifference(std::size_t diff, std::size_t n,
                                       const DistanceSpec& spec);

/// Distance between two binary sparse vectors in an `n`-feature universe.
double Distance(const FeatureVec& a, const FeatureVec& b, std::size_t n,
                const DistanceSpec& spec);

/// Full pairwise distance matrix of `vecs`, computed across the shared
/// thread pool (LOGR_THREADS workers). Packs the vectors once into a
/// PackedVecPool and schedules balanced upper-triangle tiles over the
/// pool; falls back to the merge kernel when packing would exceed its
/// memory budget. Bit-identical to DistanceMatrixMerge for any pool.
Matrix DistanceMatrix(const std::vector<FeatureVec>& vecs, std::size_t n,
                      const DistanceSpec& spec);

/// As above but on an explicit pool; `pool == nullptr` runs serially.
Matrix DistanceMatrix(const std::vector<FeatureVec>& vecs, std::size_t n,
                      const DistanceSpec& spec, ThreadPool* pool);

/// Pairwise distance matrix over an already-packed pool (callers that
/// keep the pool alive across stages skip re-packing). The pool must
/// have been built with columns (the default).
Matrix DistanceMatrix(const PackedVecPool& packed, const DistanceSpec& spec,
                      ThreadPool* pool);

/// Merge-kernel matrix (row-parallel upper triangle over sorted id
/// lists). DistanceMatrix falls back to it when the packed pool would
/// not fit its memory budget (PackedPoolFits); tests and benches also
/// use it as the bit-identity baseline of the packed fast path.
Matrix DistanceMatrixMerge(const std::vector<FeatureVec>& vecs,
                           std::size_t n, const DistanceSpec& spec,
                           ThreadPool* pool);

/// Distances for an explicit (i, j) pair list over a packed pool,
/// for callers that need scattered pairs without materializing a full
/// matrix (k-means seeding reads the pool's SymmetricDifference
/// directly since its pairs share one endpoint). out[p] =
/// distance(pairs[p]). Works on pools built without columns.
std::vector<double> DistancePairs(
    const PackedVecPool& packed,
    const std::vector<std::pair<std::size_t, std::size_t>>& pairs,
    const DistanceSpec& spec, ThreadPool* pool);

/// True when packing `count` vectors over `n` features fits the packed
/// kernel's memory budget; the matrix/pair entry points consult this and
/// callers embedding a PackedVecPool of their own should too. Pass
/// `with_columns = false` when the pool will skip the transposed
/// planes — the budget then charges only the row-major data.
bool PackedPoolFits(std::size_t count, std::size_t n,
                    bool with_columns = true);

}  // namespace logr

#endif  // LOGR_CLUSTER_DISTANCE_H_
