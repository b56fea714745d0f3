#include "core/sharded.h"

#include <algorithm>
#include <limits>

#include "util/check.h"
#include "util/stopwatch.h"

namespace logr {

namespace {

/// FNV-1a over the vector's id bytes: a stable hash (unlike std::hash)
/// so shard membership never varies across runs, platforms, or library
/// versions. Takes the view's raw id span — the same bytes whether the
/// log lives on the heap or in an mmap'd .logrl — so both backings
/// shard identically.
std::uint64_t StableVectorHash(const FeatureId* ids, std::size_t len) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < len; ++i) {
    const FeatureId f = ids[i];
    for (int shift = 0; shift < 32; shift += 8) {
      h ^= static_cast<std::uint64_t>((f >> shift) & 0xffu);
      h *= 1099511628211ull;
    }
  }
  return h;
}

/// Degenerate pool for every shard fit: the thread executor's shard loop
/// already occupies the shared pool's workers (ParallelFor is not
/// reentrant from inside a worker), and a forked worker must
/// never wait on the parent's pool threads, which do not exist after
/// fork. It starts no threads, so it is safe to share across both.
ThreadPool* SerialPool() {
  static ThreadPool* pool = new ThreadPool(0);
  return pool;
}

}  // namespace

ShardedCompressor::ShardedCompressor(const LogView& log,
                                     const LogROptions& opts)
    : log_(log), opts_(opts) {
  LOGR_CHECK(log.NumDistinct() > 0);
  LOGR_CHECK(opts.num_shards >= 1);
}

std::size_t ShardedCompressor::ClustersPerShard(const LogROptions& opts) {
  if (opts.num_shards <= 1) return opts.num_clusters;
  // Saturate rather than wrap (a worker reads K off argv): the fit clamps
  // K to the shard's distinct count anyway.
  const std::size_t max_k = std::numeric_limits<std::size_t>::max();
  return opts.num_clusters > max_k / 2 ? max_k : 2 * opts.num_clusters;
}

std::vector<std::vector<std::size_t>> ShardedCompressor::PartitionIndices(
    const LogView& log, std::size_t num_shards, ShardPolicy policy) {
  LOGR_CHECK(num_shards >= 1);
  const std::size_t n = log.NumDistinct();
  std::vector<std::vector<std::size_t>> shards(num_shards);
  switch (policy) {
    case ShardPolicy::kHashDistinct:
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t h =
            StableVectorHash(log.VectorIds(i), log.VectorSize(i));
        shards[h % num_shards].push_back(i);
      }
      break;
    case ShardPolicy::kContiguousRange:
      for (std::size_t s = 0; s < num_shards; ++s) {
        const std::size_t lo = s * n / num_shards;
        const std::size_t hi = (s + 1) * n / num_shards;
        for (std::size_t i = lo; i < hi; ++i) shards[s].push_back(i);
      }
      break;
  }
  shards.erase(std::remove_if(shards.begin(), shards.end(),
                              [](const std::vector<std::size_t>& s) {
                                return s.empty();
                              }),
               shards.end());
  return shards;
}

LogRSummary ShardedCompressor::FitShard(const LogView& shard,
                                        const LogROptions& job) {
  LogROptions opts;
  opts.method = job.method;
  opts.backend = job.backend;
  opts.seed = job.seed;
  opts.n_init = job.n_init;
  opts.num_clusters = ClustersPerShard(job);
  opts.encoder = "naive";  // shards merge through the naive family
  opts.pool = SerialPool();
  return CompressionPipeline(shard, opts).RunFixedK();
}

NaiveMixtureEncoding ShardedCompressor::Gather(
    std::vector<NaiveMixtureEncoding> parts, std::size_t k,
    ThreadPool* pool) {
  std::vector<const NaiveMixtureEncoding*> ptrs;
  ptrs.reserve(parts.size());
  for (const NaiveMixtureEncoding& p : parts) ptrs.push_back(&p);
  NaiveMixtureEncoding merged = NaiveMixtureEncoding::Merge(ptrs);
  if (k == 0 || merged.NumComponents() <= k) return merged;
  return merged.Reconcile(k, pool);
}

LogRSummary ShardedCompressor::Run() {
  Stopwatch timer;
  const LogView& log = log_;
  const std::vector<std::vector<std::size_t>> shards =
      PartitionIndices(log, opts_.num_shards, opts_.shard_policy);
  const std::size_t S = shards.size();

  // The merge machinery is exact only for the naive mixture family:
  // resolve the requested encoder up front and fail loudly for
  // non-mergeable ones (e.g. "pattern") instead of silently encoding
  // each shard with something that cannot be pooled.
  const std::string encoder_name = EffectiveEncoderName(opts_);
  const Encoder* encoder = EncoderRegistry::Instance().Find(encoder_name);
  LOGR_CHECK_MSG(encoder != nullptr, encoder_name.c_str());
  LOGR_CHECK_MSG(encoder->Mergeable(),
                 "sharded compression requires a mergeable encoder "
                 "(shard mixtures are pooled through the naive merge); "
                 "compress monolithically or pick naive/refined");

  // Empty shards were dropped, so the job has S shards, not
  // opts_.num_shards — ClustersPerShard keys off the effective count.
  LogROptions job = opts_;
  job.num_shards = S;

  // One fit per shard through a zero-copy subview of the input (mmap or
  // heap alike), each writing only its own slot: the schedule never
  // affects the result, so any thread count gives the same bits.
  // Subview() preserves index order, so shard-local distinct i is
  // global shards[s][i]; members are remapped before the gather.
  ThreadPool* pool = opts_.pool ? opts_.pool : ThreadPool::Shared();
  std::vector<NaiveMixtureEncoding> parts(S);
  std::vector<double> shard_cluster_seconds(S, 0.0);
  ParallelFor(pool, 0, S, /*grain=*/1, [&](std::size_t s) {
    const LogRSummary fit = FitShard(log.Subview(shards[s]), job);
    shard_cluster_seconds[s] = fit.cluster_seconds;
    const NaiveMixtureEncoding& shard_mix = *fit.Model().AsNaiveMixture();
    std::vector<MixtureComponent> comps;
    comps.reserve(shard_mix.NumComponents());
    for (std::size_t c = 0; c < shard_mix.NumComponents(); ++c) {
      MixtureComponent comp = shard_mix.Component(c);
      for (std::size_t& m : comp.members) m = shards[s][m];
      comps.push_back(std::move(comp));
    }
    parts[s] = NaiveMixtureEncoding::FromComponents(std::move(comps));
  });

  Stopwatch gather_timer;
  NaiveMixtureEncoding reconciled =
      Gather(std::move(parts), opts_.num_clusters, pool);
  // Read before WrapMixture: encode/refine time is not clustering time.
  double cluster_seconds = gather_timer.ElapsedSeconds();
  for (double seconds : shard_cluster_seconds) cluster_seconds += seconds;

  LogRSummary out;
  out.assignment.assign(log.NumDistinct(), 0);
  for (std::size_t c = 0; c < reconciled.NumComponents(); ++c) {
    for (std::size_t m : reconciled.Component(c).members) {
      out.assignment[m] = static_cast<int>(c);
    }
  }
  // The requested encoder wraps (and, for "refined", re-refines) the
  // reconciled mixture — refinement runs once, on the merge result.
  EncodeRequest enc_req;
  enc_req.k = reconciled.NumComponents();
  enc_req.pool = pool;
  enc_req.refine_patterns = opts_.refine_patterns;
  enc_req.pattern_budget = opts_.pattern_budget;
  enc_req.seed = opts_.seed;
  out.model = encoder->WrapMixture(log, std::move(reconciled), enc_req);
  out.cluster_seconds = cluster_seconds;
  out.total_seconds = timer.ElapsedSeconds();
  return out;
}

}  // namespace logr
