#include "cluster/hierarchical.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "cluster/nn_chain.h"
#include "util/check.h"

namespace logr {

namespace {

/// Union-find over leaf ids.
class DisjointSets {
 public:
  explicit DisjointSets(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  int Find(int x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  bool Union(int a, int b) {
    int ra = Find(a), rb = Find(b);
    if (ra == rb) return false;
    parent_[ra] = rb;
    return true;
  }

 private:
  std::vector<int> parent_;
};

/// Leaf masses for the weighted average linkage.
std::vector<double> ResolveMasses(std::size_t n,
                                  const std::vector<double>& weights) {
  std::vector<double> mass(n, 1.0);
  if (!weights.empty()) {
    LOGR_CHECK(weights.size() == n);
    for (std::size_t i = 0; i < n; ++i) {
      mass[i] = weights[i] > 0.0 ? weights[i] : 1e-12;
    }
  }
  return mass;
}

/// Chunk edge for the parallel nearest() scan. Each chunk reduces to a
/// local (dist, arg) minimum in ascending index order; the chunk minima
/// are then folded serially in chunk order, so the winner is the exact
/// smallest-index argmin a serial scan would pick, for any pool size.
constexpr std::size_t kScanChunk = 128;

/// Grain of the scan / row-update loops: below this many iterations they
/// run inline, since their bodies are a handful of ops and the dispatch
/// round trip costs more than the loop until N is large. Results are
/// identical either way.
constexpr std::size_t kMinParallelIters = 4096;

}  // namespace

std::vector<int> Dendrogram::CutToK(std::size_t k) const {
  LOGR_CHECK(k >= 1);
  const std::size_t n = num_leaves;
  k = std::min(k, n);

  // Node -> representative leaf: a merge's subtree is represented by the
  // representative of its first argument, resolved transitively.
  std::vector<int> rep(n + merge_a.size());
  for (std::size_t i = 0; i < n; ++i) rep[i] = static_cast<int>(i);
  for (std::size_t i = 0; i < merge_a.size(); ++i) {
    rep[n + i] = rep[merge_a[i]];
  }

  // Apply merges in ascending height order until K components remain.
  std::vector<std::size_t> order(merge_a.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a,
                                                   std::size_t b) {
    return height[a] < height[b];
  });
  DisjointSets sets(n);
  std::size_t components = n;
  for (std::size_t idx : order) {
    if (components <= k) break;
    if (sets.Union(rep[merge_a[idx]], rep[merge_b[idx]])) --components;
  }

  // Densify component labels.
  std::vector<int> label(n, -1);
  std::vector<int> assignment(n);
  int next = 0;
  for (std::size_t i = 0; i < n; ++i) {
    int root = sets.Find(static_cast<int>(i));
    if (label[root] < 0) label[root] = next++;
    assignment[i] = label[root];
  }
  return assignment;
}

Dendrogram AgglomerativeAverageLinkage(const Matrix& distances,
                                       const std::vector<double>& weights,
                                       ThreadPool* pool) {
  const std::size_t n = distances.rows();
  LOGR_CHECK(distances.cols() == n && n >= 1);

  Dendrogram out;
  out.num_leaves = n;
  if (n == 1) return out;

  // Working distance matrix over active nodes; node ids grow as merges
  // happen, but we reuse the slot of the first merged node for the
  // result to keep the matrix n x n.
  Matrix d = distances;
  std::vector<double> mass = ResolveMasses(n, weights);
  // slot -> current dendrogram node id occupying it
  std::vector<int> node_of_slot(n);
  std::iota(node_of_slot.begin(), node_of_slot.end(), 0);

  // Chain walk, active-slot list, and deterministic chunked argmin come
  // from cluster/nn_chain.h (shared with the mixture reconcile).
  NNChainScan scan(n, kScanChunk, kMinParallelIters / kScanChunk, pool);

  // Cached nearest neighbor per slot. A valid entry equals exactly what
  // a full serial scan would return — value and smallest-index tie-break
  // — so the merge sequence matches the reference bit for bit. Entries
  // go stale only when their cached neighbor itself merges (lazy
  // invalidation, rescanned on next use); the Lance-Williams pass keeps
  // all other entries exact in place (see the update rule below).
  constexpr std::size_t kNone = NNChainScan::kNone;
  std::vector<std::size_t> cached_arg(n, kNone);
  std::vector<double> cached_dist(n, 0.0);

  auto nearest = [&](std::size_t a) {
    if (cached_arg[a] != kNone) {
      return std::make_pair(cached_arg[a], cached_dist[a]);
    }
    const double* row = d.Row(a);
    const std::pair<std::size_t, double> found =
        scan.Argmin(a, [row](std::size_t j) { return row[j]; });
    cached_arg[a] = found.first;
    cached_dist[a] = found.second;
    return found;
  };

  // Reciprocal pair (a, b) found: record the merge, then the
  // Lance-Williams weighted average-linkage update into slot a, fused
  // with the exact cache maintenance. Each iteration writes only its
  // own j-indexed slots, so the schedule never changes a bit. Cache
  // rule: entries pointing at a or b go stale (their distance changed /
  // their node vanished); any other valid entry stays the true minimum
  // because the updated d(j, a) is a weighted average of two old
  // distances, both >= the cached minimum — only an exact tie with a
  // smaller index (a < cached_arg[j]) can re-point it.
  auto merge = [&](std::size_t a, std::size_t b, double dist_ab) {
    out.merge_a.push_back(node_of_slot[a]);
    out.merge_b.push_back(node_of_slot[b]);
    out.height.push_back(dist_ab);
    const double ma = mass[a], mb = mass[b];
    const std::vector<std::uint32_t>& slots = scan.slots();
    const std::uint32_t* list = slots.data();
    ParallelFor(pool, 0, slots.size(), kMinParallelIters, [&](std::size_t p) {
      const std::size_t j2 = list[p];
      if (!scan.IsActive(j2) || j2 == a) return;
      double nd = (ma * d(a, j2) + mb * d(b, j2)) / (ma + mb);
      d(a, j2) = nd;
      d(j2, a) = nd;
      if (cached_arg[j2] == kNone) return;
      if (cached_arg[j2] == a || cached_arg[j2] == b) {
        cached_arg[j2] = kNone;
      } else if (nd < cached_dist[j2] ||
                 (nd == cached_dist[j2] && a < cached_arg[j2])) {
        cached_arg[j2] = a;
        cached_dist[j2] = nd;
      }
    });
    mass[a] = ma + mb;
    cached_arg[a] = kNone;
    node_of_slot[a] = static_cast<int>(n + out.merge_a.size() - 1);
  };

  // Average linkage is reducible, so the chain survives merges.
  NNChainAgglomerate(scan, 1, /*reducible=*/true, nearest, merge);
  return out;
}

}  // namespace logr
