// Distributed compression: a restartable scatter/gather coordinator
// over worker processes (ROADMAP item: "compress each day, merge the
// week", scaled past one process).
//
// The shape follows the paper's own economics — summaries are
// kilobytes while the logs they compress are gigabytes — so the
// coordinator ships *work* out (one .logrl shard file per worker
// process) and ships *summaries* back through a spool directory:
//
//   coordinator                    workers (≤ num_workers at once)
//   ───────────                    ────────────────────────────────
//   scatter: fork per shard   ──►  mmap-open the shard and run
//                                  ShardedCompressor::FitShard on it
//                                  zero-copy, write
//                                  spool/<shard>.summary atomically
//   watch: exit status + timeout
//   retry: respawn a failed/hung shard (bounded), in-process as the
//          last resort
//   gather: read every spooled summary, MergeSummaries (the codebook
//           union, then ShardedCompressor::Gather down to K) —
//           bit-identical to the in-process sharded compression of the
//           same shard split, since both executors share the fit and
//           the gather
//
// Restartability falls out of the spool protocol: workers write
// summaries via tmp-file + rename (a killed worker can never leave a
// valid-looking partial), and a re-run coordinator revalidates and
// reuses whatever the previous run spooled, so a killed job resumes
// where it left off instead of starting over.
//
// Workers are processes, not threads, for fault isolation: a worker
// that crashes, hangs, or is OOM-killed loses one shard attempt, never
// the job. Each worker is a fork of the coordinator that runs
// RunDistributedWorker directly, so a clusterer registered at runtime
// reaches every worker. Forked children never touch the parent's thread
// pools (pthreads do not survive fork): FitShard always runs on a
// serial pool, so the distributed result is bit-deterministic for any
// worker count.
#ifndef LOGR_CORE_DISTRIBUTED_H_
#define LOGR_CORE_DISTRIBUTED_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "core/serialization.h"
#include "workload/loader.h"

namespace logr {

/// Environment variable for fault-injection tests and the CI smoke leg:
/// when set to a shard index, that shard's first-attempt worker
/// SIGKILLs itself mid-job (after opening its input, before spooling a
/// summary). Retries are unaffected, so the job must still complete
/// with the identical summary.
inline constexpr char kDistributedCrashEnv[] = "LOGR_DISTRIBUTE_CRASH";

struct DistributedOptions {
  /// Maximum concurrently running worker processes.
  std::size_t num_workers = 4;
  /// Compression parameters: num_clusters is the final K after the
  /// gather-side reconcile; method/backend, seed and n_init reach every
  /// shard fit (ShardedCompressor::FitShard), and num_shards is set to
  /// the number of shard files. Everything else is ignored — shards
  /// merge through the naive family, and the merged output is always a
  /// naive summary (like `merge`).
  LogROptions compression;
  /// Directory the workers spool summaries into (created if absent).
  /// Re-running a coordinator over a warm spool reuses every valid
  /// summary already present (the resume path).
  std::string spool_dir;
  /// Retries per shard after its first failed attempt.
  int max_retries = 2;
  /// Wall-clock budget per worker attempt; a worker past it is killed
  /// and the shard retried. 0 disables the watchdog.
  double worker_timeout_seconds = 0.0;
  /// After the retry budget, compress the shard inside the coordinator
  /// instead of failing the job.
  bool inprocess_fallback = true;
  /// Reuse valid summaries already in the spool (resume). Off forces
  /// every shard to recompress.
  bool reuse_spool = true;
};

/// Per-shard outcome for reporting and tests.
struct ShardReport {
  std::string shard_path;
  std::string summary_path;
  int attempts = 0;        // worker processes launched for this shard
  bool reused = false;     // valid spooled summary found, no worker run
  bool inprocess = false;  // compressed by the coordinator's fallback
  bool timed_out = false;  // at least one attempt hit the watchdog
};

struct DistributedResult {
  /// The gathered summary: per-shard summaries merged and reconciled to
  /// compression.num_clusters (always tagged "naive").
  PersistedSummary summary;
  std::vector<ShardReport> shards;
  std::size_t workers_launched = 0;  // processes spawned, retries included
  std::size_t workers_failed = 0;    // attempts that died or timed out
  double total_seconds = 0.0;
};

/// What one worker does: mmap-open `shard_path` (.logrl), run
/// ShardedCompressor::FitShard on it zero-copy, and atomically write
/// the v2 summary to `out_path`. The coordinator builds these from
/// DistributedOptions.
struct DistributedWorkerOptions {
  std::string shard_path;
  std::string out_path;
  /// The job's options as FitShard reads them: num_clusters (the job's
  /// final K), num_shards (the job's shard count — with num_clusters it
  /// fixes the per-shard K), method/backend, seed and n_init.
  LogROptions compression;
  /// Position of the shard in the coordinator's scatter order — only
  /// consulted by the kDistributedCrashEnv fault injection.
  std::size_t shard_index = 0;
  /// 0 for the first attempt; retries increment. Fault injection only
  /// fires on attempt 0.
  int attempt = 0;
};

/// Worker entry point, shared by the forked workers and the
/// coordinator's in-process fallback: fit the shard
/// (ShardedCompressor::FitShard — serial pool, so fork-safe) and spool
/// the summary. Returns false (and fills `error`) on any I/O or
/// validation failure.
bool RunDistributedWorker(const DistributedWorkerOptions& opts,
                          std::string* error);

class DistributedCompressor {
 public:
  /// `shard_paths` are .logrl files, typically from `logr_cli split` or
  /// ListBinaryLogShards; scatter order follows the given order.
  DistributedCompressor(std::vector<std::string> shard_paths,
                        DistributedOptions opts);

  /// Scatter, watch, retry, gather. Returns false (and fills `error`)
  /// when a shard exhausts its retries with the fallback disabled, or
  /// on spool/merge I/O failures. On success `out->summary` holds the
  /// reconciled summary and `out->shards` the per-shard provenance.
  bool Run(DistributedResult* out, std::string* error);

  /// Spool path for a shard: <spool_dir>/<shard basename>.summary
  /// (".logrl" stripped). Stable across runs — the resume contract.
  static std::string SummaryPathFor(const std::string& spool_dir,
                                    const std::string& shard_path);

 private:
  std::vector<std::string> shard_paths_;
  DistributedOptions opts_;
};

/// Convenience wrapper: DistributedCompressor(shards, opts).Run(...).
bool CompressDistributed(const std::vector<std::string>& shard_paths,
                         const DistributedOptions& opts,
                         DistributedResult* out, std::string* error);

/// The plan on disk: partitions `log` with
/// ShardedCompressor::PartitionIndices and writes each shard as the
/// binary log `<dir>/shard-NNN.logrl` (dataset name `<name>-sNNN`),
/// creating `dir` if needed — the input DistributedCompressor scatters.
/// `written` receives each file's path and Table-1 stats in shard
/// order. Returns false (and fills `error`) on a filesystem failure.
struct ShardFile {
  std::string path;
  DatasetSummary stats;
};
bool WriteShardFiles(const LogView& log, std::size_t num_shards,
                     ShardPolicy policy, const std::string& dir,
                     const std::string& name, std::vector<ShardFile>* written,
                     std::string* error);

/// mkdir -p for spool and shard directories: creates `dir` and any
/// missing parents, tolerating ones that already exist. Returns false
/// (and fills `error`) on a filesystem refusal.
bool EnsureDirectory(const std::string& dir, std::string* error);

}  // namespace logr

#endif  // LOGR_CORE_DISTRIBUTED_H_
