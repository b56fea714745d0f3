// Tests for the fast clustering core: packed-kernel vs merge-kernel
// distance bit-identity (all six metrics, fuzzed vectors), the pair-list
// variant, cached-NN agglomeration vs the pre-change serial reference,
// spectral bit-determinism across pool sizes, and the multi-core perf
// guardrail and small-work cutoff of the parallel distance matrix.
#include <algorithm>
#include <chrono>
#include <thread>
#include <vector>

#include "cluster/distance.h"
#include "cluster/hierarchical.h"
#include "cluster/spectral.h"
#include "support/agglomerate_reference.h"
#include "data/bank.h"
#include "data/pocketdata.h"
#include "data/sql_log.h"
#include "gtest/gtest.h"
#include "util/prng.h"
#include "workload/loader.h"

namespace logr {
namespace {

QueryLog PocketLog() {
  PocketDataOptions gen;
  gen.num_distinct = 150;
  gen.total_queries = 30000;
  return LoadEntries(GeneratePocketDataLog(gen)).TakeLog();
}

QueryLog BankLog() {
  BankLogOptions gen;
  gen.num_templates = 200;
  gen.total_queries = 60000;
  gen.noise_entries = 20;
  return LoadEntries(GenerateBankLog(gen)).TakeLog();
}

std::vector<FeatureVec> Vectors(const QueryLog& log) {
  std::vector<FeatureVec> vecs;
  vecs.reserve(log.NumDistinct());
  for (std::size_t i = 0; i < log.NumDistinct(); ++i) {
    vecs.push_back(log.Vector(i));
  }
  return vecs;
}

std::vector<DistanceSpec> AllMetrics() {
  std::vector<DistanceSpec> specs;
  for (Metric m : {Metric::kEuclidean, Metric::kManhattan, Metric::kMinkowski,
                   Metric::kHamming, Metric::kChebyshev, Metric::kCanberra}) {
    DistanceSpec s;
    s.metric = m;
    specs.push_back(s);
  }
  return specs;
}

/// Random sparse vectors over an n-feature universe; may be empty, may
/// repeat (duplicate vectors are legal distance-matrix inputs).
std::vector<FeatureVec> FuzzVectors(Pcg32* rng, std::size_t count,
                                    std::size_t n) {
  std::vector<FeatureVec> vecs;
  vecs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t len = rng->NextBounded(41);  // 0..40 ids
    std::vector<FeatureId> ids;
    ids.reserve(len);
    for (std::size_t j = 0; j < len; ++j) {
      ids.push_back(static_cast<FeatureId>(
          rng->NextBounded(static_cast<std::uint32_t>(n))));
    }
    vecs.push_back(FeatureVec(std::move(ids)));  // sorts + dedups
  }
  return vecs;
}

TEST(PackedDistanceTest, SymmetricDifferenceMatchesMergeKernelFuzzed) {
  Pcg32 rng(7);
  for (int round = 0; round < 20; ++round) {
    const std::size_t n = 1 + rng.NextBounded(400);
    std::vector<FeatureVec> vecs = FuzzVectors(&rng, 24, n);
    PackedVecPool packed(vecs, n);
    for (std::size_t i = 0; i < vecs.size(); ++i) {
      for (std::size_t j = 0; j < vecs.size(); ++j) {
        ASSERT_EQ(packed.SymmetricDifference(i, j),
                  SymmetricDifference(vecs[i], vecs[j]))
            << "round " << round << " pair (" << i << ", " << j << ")";
      }
    }
  }
}

TEST(PackedDistanceTest, MatrixBitIdenticalToMergeKernelAllMetrics) {
  Pcg32 rng(11);
  for (int round = 0; round < 6; ++round) {
    const std::size_t n = 1 + rng.NextBounded(300);
    std::vector<FeatureVec> vecs = FuzzVectors(&rng, 40, n);
    for (const DistanceSpec& spec : AllMetrics()) {
      Matrix reference = DistanceMatrixMerge(vecs, n, spec, /*pool=*/nullptr);
      Matrix packed = DistanceMatrix(vecs, n, spec, /*pool=*/nullptr);
      ThreadPool pool(4);
      Matrix parallel = DistanceMatrix(vecs, n, spec, &pool);
      ASSERT_EQ(packed.rows(), reference.rows());
      for (std::size_t i = 0; i < vecs.size(); ++i) {
        for (std::size_t j = 0; j < vecs.size(); ++j) {
          // Exact equality: both kernels map the same exact integer
          // through the same metric function.
          ASSERT_EQ(packed(i, j), reference(i, j))
              << spec.Name() << " (" << i << ", " << j << ")";
          ASSERT_EQ(parallel(i, j), reference(i, j))
              << spec.Name() << " parallel (" << i << ", " << j << ")";
        }
      }
    }
  }
}

TEST(PackedDistanceTest, MatrixBitIdenticalOnRealLogs) {
  for (const QueryLog& log : {PocketLog(), BankLog()}) {
    const std::vector<FeatureVec> vecs = Vectors(log);
    DistanceSpec spec;
    spec.metric = Metric::kHamming;
    Matrix reference =
        DistanceMatrixMerge(vecs, log.NumFeatures(), spec, nullptr);
    Matrix packed = DistanceMatrix(vecs, log.NumFeatures(), spec, nullptr);
    for (std::size_t i = 0; i < vecs.size(); ++i) {
      for (std::size_t j = 0; j < vecs.size(); ++j) {
        ASSERT_EQ(packed(i, j), reference(i, j)) << i << " " << j;
      }
    }
  }
}

TEST(PackedDistanceTest, PairListMatchesDirectDistances) {
  Pcg32 rng(23);
  const std::size_t n = 200;
  std::vector<FeatureVec> vecs = FuzzVectors(&rng, 30, n);
  PackedVecPool packed(vecs, n);
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  for (int p = 0; p < 200; ++p) {
    pairs.emplace_back(rng.NextBounded(30), rng.NextBounded(30));
  }
  DistanceSpec spec;
  spec.metric = Metric::kMinkowski;
  ThreadPool pool(3);
  std::vector<double> out = DistancePairs(packed, pairs, spec, &pool);
  ASSERT_EQ(out.size(), pairs.size());
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    EXPECT_EQ(out[p],
              Distance(vecs[pairs[p].first], vecs[pairs[p].second], n, spec));
  }
}

void ExpectDendrogramsEqual(const Dendrogram& a, const Dendrogram& b) {
  ASSERT_EQ(a.num_leaves, b.num_leaves);
  ASSERT_EQ(a.merge_a, b.merge_a);
  ASSERT_EQ(a.merge_b, b.merge_b);
  ASSERT_EQ(a.height.size(), b.height.size());
  for (std::size_t i = 0; i < a.height.size(); ++i) {
    // Exact: the fast path performs the identical arithmetic.
    ASSERT_EQ(a.height[i], b.height[i]) << "merge " << i;
  }
}

TEST(FastAgglomerationTest, MatchesReferenceOnRealLogsAcrossPools) {
  for (const QueryLog& log : {PocketLog(), BankLog()}) {
    const std::vector<FeatureVec> vecs = Vectors(log);
    DistanceSpec spec;
    spec.metric = Metric::kHamming;
    Matrix d = DistanceMatrix(vecs, log.NumFeatures(), spec, nullptr);
    std::vector<double> weights;
    for (std::size_t i = 0; i < log.NumDistinct(); ++i) {
      weights.push_back(static_cast<double>(log.Multiplicity(i)));
    }
    const Dendrogram reference =
        AgglomerativeAverageLinkageReference(d, weights);
    // Dendrogram equality vs the pre-change serial output, for every
    // pool size (LOGR_THREADS ∈ {1, 4} territory).
    ExpectDendrogramsEqual(AgglomerativeAverageLinkage(d, weights, nullptr),
                           reference);
    ThreadPool one(1);
    ExpectDendrogramsEqual(AgglomerativeAverageLinkage(d, weights, &one),
                           reference);
    ThreadPool four(4);
    ExpectDendrogramsEqual(AgglomerativeAverageLinkage(d, weights, &four),
                           reference);
    // Unweighted variant exercises the uniform-mass path.
    ExpectDendrogramsEqual(AgglomerativeAverageLinkage(d, {}, &four),
                           AgglomerativeAverageLinkageReference(d, {}));
  }
}

TEST(FastAgglomerationTest, MatchesReferenceOnFuzzedMatricesWithTies) {
  Pcg32 rng(31);
  for (int round = 0; round < 10; ++round) {
    const std::size_t n = 2 + rng.NextBounded(60);
    // Small integer distances force plenty of exact ties, stressing the
    // deterministic index tie-break in the cached-nearest path.
    Matrix d(n, n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        const double v = static_cast<double>(rng.NextBounded(4));
        d(i, j) = v;
        d(j, i) = v;
      }
    }
    ThreadPool pool(4);
    ExpectDendrogramsEqual(AgglomerativeAverageLinkage(d, {}, &pool),
                           AgglomerativeAverageLinkageReference(d, {}));
  }
}

TEST(SpectralTest, BitIdenticalAcrossPoolSizes) {
  const QueryLog log = PocketLog();
  const std::vector<FeatureVec> vecs = Vectors(log);
  std::vector<double> weights;
  for (std::size_t i = 0; i < log.NumDistinct(); ++i) {
    weights.push_back(static_cast<double>(log.Multiplicity(i)));
  }
  auto run = [&](ThreadPool* pool) {
    SpectralOptions so;
    so.k = 6;
    so.seed = 5;
    so.n_init = 2;
    so.distance.metric = Metric::kManhattan;
    so.pool = pool;
    return SpectralCluster(vecs, weights, log.NumFeatures(), so).assignment;
  };
  ThreadPool one(1);
  const std::vector<int> baseline = run(&one);
  for (std::size_t threads : {2u, 4u}) {
    ThreadPool pool(threads);
    EXPECT_EQ(run(&pool), baseline) << threads << " threads";
  }
}

TEST(SpectralTest, MedianAndAffinityMatchSerialAcrossPools) {
  Pcg32 rng(43);
  const std::size_t n = 80;
  Matrix d(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double v = static_cast<double>(rng.NextBounded(10)) / 3.0;
      d(i, j) = v;
      d(j, i) = v;
    }
  }
  const double serial_sigma = MedianNonzeroDistance(d, nullptr);
  Vector serial_degree;
  Matrix serial_w = GaussianAffinity(d, serial_sigma, &serial_degree, nullptr);
  ThreadPool pool(4);
  EXPECT_EQ(MedianNonzeroDistance(d, &pool), serial_sigma);
  Vector degree;
  Matrix w = GaussianAffinity(d, serial_sigma, &degree, &pool);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(degree[i], serial_degree[i]) << i;
    for (std::size_t j = 0; j < n; ++j) {
      ASSERT_EQ(w(i, j), serial_w(i, j)) << i << " " << j;
    }
  }
}

TEST(PerfGuardrailTest, ParallelDistanceMatrixBeatsSerialOnMultiCore) {
  // The multi-core guardrail: with >= 4 hardware cores the pooled
  // block-tiled matrix must beat the single-thread packed path on the
  // paper-scale bank log (1,712 templates, 105 tiles), and the pool's
  // dispatch counter proves the pooled run really used the workers.
  // Skipped on smaller machines (CI containers with 1-2 cores would
  // measure nothing but scheduler noise).
  const unsigned cores = std::thread::hardware_concurrency();
  if (cores < 4) {
    GTEST_SKIP() << "needs >= 4 cores, have " << cores;
  }
  const QueryLog log = LoadEntries(GenerateBankLog(BankLogOptions())).TakeLog();
  const std::vector<FeatureVec> vecs = Vectors(log);
  DistanceSpec spec;
  spec.metric = Metric::kHamming;
  auto time_run = [&](ThreadPool* pool) {
    const auto start = std::chrono::steady_clock::now();
    Matrix d = DistanceMatrix(vecs, log.NumFeatures(), spec, pool);
    const auto stop = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(stop - start).count() +
           0.0 * d(0, 0);  // keep the result alive
  };
  ThreadPool pool(4);
  // Warm-up pass of each, then serial and pooled runs alternate so both
  // see the same background load, and each keeps its best of five: the
  // minimum is far less sensitive to noisy-neighbor contention on
  // shared runners than a mean or median.
  time_run(nullptr);
  time_run(&pool);
  double serial = time_run(nullptr);
  double parallel = time_run(&pool);
  for (int r = 1; r < 5; ++r) {
    serial = std::min(serial, time_run(nullptr));
    parallel = std::min(parallel, time_run(&pool));
  }
  EXPECT_EQ(pool.JobsDispatched(), 6u);  // warm-up + five timed runs
  EXPECT_LT(parallel, serial)
      << "parallel " << parallel << "s vs serial " << serial << "s";
}

TEST(PerfGuardrailTest, SmallDistanceMatrixRunsInline) {
  // The 200-template log is 3 tiles, below DistanceMatrix's measured
  // parallel cutoff (6 tiles): there a 4-thread pool only breaks even,
  // so the matrix must stay on the caller — no job reaches the workers.
  const QueryLog log = BankLog();
  const std::vector<FeatureVec> vecs = Vectors(log);
  ASSERT_LE(vecs.size(), 256u);  // at most two 128-row tile bands
  DistanceSpec spec;
  spec.metric = Metric::kHamming;
  ThreadPool pool(4);
  const Matrix d = DistanceMatrix(vecs, log.NumFeatures(), spec, &pool);
  EXPECT_EQ(d.rows(), vecs.size());
  EXPECT_EQ(pool.JobsDispatched(), 0u);
}

}  // namespace
}  // namespace logr
