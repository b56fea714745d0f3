// Sharded compression: plan → per-shard fit → gather.
//
// The paper's target workloads are far larger than one pipeline pass
// wants to hold (the bank log alone is 73M operations, Sec. 7). Both
// shard executors — ShardedCompressor (threads over in-memory subviews)
// and DistributedCompressor (worker processes over .logrl shard files,
// core/distributed.h) — are built from the three pieces below, so
// `--shards` and `distribute` agree by construction:
//
//   plan    PartitionIndices and ClustersPerShard.
//   fit     FitShard: the only place per-shard options are derived.
//   gather  Gather: NaiveMixtureEncoding::Merge, then Reconcile
//           (nearest-component-chain agglomeration with exact
//           fused-error linkage) down to K. MergeSummaries uses it too.
//
// Determinism contract: both shard policies assign each distinct vector
// to exactly one shard from the data alone (never from thread timing),
// every shard fit runs with a serial inner pool into its own result
// slot, and the merge orders components canonically — so the output is
// bit-identical for any thread count and any shard order. Because
// shards partition the distinct vectors, the merge itself is exact:
// only the reconcile step (absent when S*K <= K, e.g. S = 1)
// approximates.
#ifndef LOGR_CORE_SHARDED_H_
#define LOGR_CORE_SHARDED_H_

#include <vector>

#include "core/pipeline.h"
#include "workload/log_view.h"
#include "workload/query_log.h"

namespace logr {

class ShardedCompressor {
 public:
  /// The log behind `log` must outlive the compressor (a QueryLog or an
  /// MmapQueryLog; both convert implicitly). Shard count and policy come
  /// from `opts` (num_shards, shard_policy); each shard is fitted at
  /// ClustersPerShard and the merged pool is reconciled back to
  /// opts.num_clusters.
  ShardedCompressor(const LogView& log, const LogROptions& opts);

  /// Partition → FitShard per shard across the pool → Gather → wrap
  /// (and, for "refined", refine once) with the requested encoder.
  /// The summary has the same shape as a monolithic Compress: a global
  /// assignment over the log's distinct vectors, an encoding whose
  /// components carry global member indices, and stage timings (CPU
  /// seconds summed across shards).
  LogRSummary Run();

  /// Effective per-shard cluster count for `opts`: opts.num_clusters for
  /// a single shard (so S = 1 reproduces the monolithic fit bit for
  /// bit), 2× that otherwise — pooling finer pieces lets the reconcile
  /// regroup across shard boundaries (the chunked cluster-then-merge
  /// recipe of Logzip / LogShrink). An offline workflow that compresses
  /// shards separately for a later merge should compress each part at
  /// this K to match the in-process result.
  static std::size_t ClustersPerShard(const LogROptions& opts);

  /// The distinct-index partition for `policy`: every index in
  /// [0, log.NumDistinct()) appears in exactly one shard; empty shards
  /// are dropped. Deterministic in the log content alone (the hash runs
  /// over the raw feature-id bytes, so a heap log and its mmap'd binary
  /// image shard identically).
  static std::vector<std::vector<std::size_t>> PartitionIndices(
      const LogView& log, std::size_t num_shards, ShardPolicy policy);

  /// The per-shard fit every executor runs: compresses `shard` to
  /// ClustersPerShard(job) components with the naive encoder, no
  /// refinement and a serial pool (fits run inside an executor's own
  /// parallelism, and a forked worker must not use the parent's pool).
  /// Of `job` — the whole job's options, num_shards being the effective
  /// shard count — only method/backend, seed, n_init, num_clusters and
  /// num_shards are read, so every executor fits a shard identically.
  static LogRSummary FitShard(const LogView& shard, const LogROptions& job);

  /// The gather every executor ends with: pools `parts` (canonical
  /// component order, so the part order never matters) and, when the
  /// pool holds more than `k` components, reconciles it down to `k` on
  /// `pool`. `k` == 0 keeps every pooled component. No clamp to the
  /// log's distinct count is needed: a shard fit has at most one
  /// component per distinct vector, so the pool never exceeds it.
  static NaiveMixtureEncoding Gather(std::vector<NaiveMixtureEncoding> parts,
                                     std::size_t k, ThreadPool* pool);

 private:
  LogView log_;
  LogROptions opts_;
};

}  // namespace logr

#endif  // LOGR_CORE_SHARDED_H_
