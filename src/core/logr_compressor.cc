#include "core/logr_compressor.h"

#include "core/sharded.h"
#include "util/check.h"

namespace logr {

LogRSummary Compress(const LogView& log, const LogROptions& opts) {
  if (opts.num_shards > 1) return ShardedCompressor(log, opts).Run();
  return CompressionPipeline(log, opts).RunFixedK();
}

LogRSummary CompressToErrorTarget(const LogView& log, double error_target,
                                  std::size_t max_clusters,
                                  const LogROptions& opts) {
  // Sharding covers the fixed-K strategy only; fail loudly rather than
  // silently running one monolithic pipeline for a caller who asked for
  // shards (the K search and the adaptive bisection are both global).
  LOGR_CHECK_MSG(opts.num_shards <= 1,
                 "num_shards > 1 is only supported by Compress");
  LogROptions o = opts;
  if (o.backend.empty()) {
    // Historic contract: the K search rides hierarchical clustering's
    // monotone cuts (one fit, cheap re-cuts) regardless of opts.method.
    o.backend = "hierarchical";
  }
  return CompressionPipeline(log, o).RunErrorTarget(error_target,
                                                    max_clusters);
}

std::vector<LogRSummary> CompressToErrorTargets(
    const LogView& log, const std::vector<double>& error_targets,
    std::size_t max_clusters, const LogROptions& opts) {
  LOGR_CHECK_MSG(opts.num_shards <= 1,
                 "num_shards > 1 is only supported by Compress");
  LogROptions o = opts;
  if (o.backend.empty()) {
    o.backend = "hierarchical";  // same default as CompressToErrorTarget
  }
  return CompressionPipeline(log, o).RunErrorTargets(error_targets,
                                                     max_clusters);
}

LogRSummary CompressAdaptive(const LogView& log, std::size_t num_clusters,
                             const LogROptions& opts) {
  LOGR_CHECK_MSG(opts.num_shards <= 1,
                 "num_shards > 1 is only supported by Compress");
  return CompressionPipeline(log, opts).RunAdaptive(num_clusters);
}

}  // namespace logr
