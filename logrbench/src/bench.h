// Shared state of one benchmark run: options, the tracer, the output
// checks, and the metrics the run reports.
#ifndef LOGRBENCH_BENCH_H_
#define LOGRBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "core/serialization.h"
#include "trace.h"
#include "workload/binary_log.h"
#include "workload/loader.h"

namespace logrbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for every file the run writes.
  std::string work_dir;
  /// "paper" (the sizes BENCHMARK.json documents) or "tiny" (self-test).
  std::string scale = "paper";
  /// Self-test hook: "logrl" or "summary" corrupts the first file of
  /// that kind right after it is written, so the output checks must
  /// fail the run.
  std::string corrupt;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

class Run {
 public:
  explicit Run(Options o) : opt(std::move(o)), tracer(opt.trace) {}

  bool tiny() const { return opt.scale == "tiny"; }

  /// One attempted operation or output check; `ok` false counts it as
  /// failed and remembers why.
  bool Check(bool ok, const std::string& what);

  /// End-to-end metric (reported with --trace 0, and as traced.<name>
  /// with --trace 1).
  void EndToEnd(const std::string& name, double value, const char* unit) {
    e2e[name] = Metric{value, unit};
  }
  /// Per-layer metric (reported with --trace 1).
  void Layer(const std::string& name, double value, const char* unit) {
    layer[name] = Metric{value, unit};
  }
  /// Extra figures printed on the detail line only (sample counts and
  /// the layer figures of one workload's own paths).
  void Detail(const std::string& name, double value, const char* unit) {
    detail[name] = Metric{value, unit};
  }

  std::string Path(const std::string& name) const {
    return opt.work_dir + "/" + name;
  }

  Options opt;
  Tracer tracer;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  std::map<std::string, Metric> e2e;
  std::map<std::string, Metric> layer;
  std::map<std::string, Metric> detail;
  /// Max PackedVecPool builds seen in one single-shard compression.
  std::uint64_t pool_builds = 0;
  /// Set once the --corrupt target has been damaged.
  bool corrupted = false;
};

/// Set-up runs this many times per run; setup_s is the median.
constexpr int kSetupReps = 9;
/// Where set-up is ServeDaemon::Start (tens of ms), it runs this many
/// times instead.
constexpr int kStartReps = 21;

// ------------------------------------------------------------ inputs

/// One line of a COUNT<TAB>SQL text log.
struct TextLine {
  std::uint64_t count = 1;
  std::string sql;
};

/// What a generator wrote: its lines, the constant-free templates it
/// aimed for, and the Σ multiplicity of its noise entries (non-SELECT
/// or garbage lines). `lines` is 0 when the file could not be written.
struct TextLogInfo {
  std::size_t lines = 0;
  std::size_t templates = 0;
  std::uint64_t noise_queries = 0;
};

/// Writes the library's seeded bank log (paper scale, or tiny) as a
/// COUNT<TAB>SQL text file. `templates_factor` scales the template
/// count (compress-bank uses 2).
TextLogInfo WriteBankText(const Run& run, std::uint64_t seed,
                          std::size_t templates_factor,
                          const std::string& path);
TextLogInfo WritePocketText(const Run& run, std::uint64_t seed,
                            const std::string& path);

/// Reads a COUNT<TAB>SQL file (a line without a tab counts once).
bool ReadTextLog(const std::string& path, std::vector<TextLine>* out);

std::uint64_t FileBytes(const std::string& path);
std::string ReadFile(const std::string& path);

/// Flips one byte near the middle of `path` (self-test corruption).
void CorruptFile(const std::string& path);

// ---------------------------------------------------------- layers

/// Text file -> LogLoader -> .logrl on disk (logr_cli convert). In the
/// traced run every line is first replayed through the public calls
/// AddSql makes (parse, regularize, print, extract, and the
/// constants-kept pass), each in its own span.
struct Converted {
  logr::LogLoader loader;
  std::size_t statements = 0;
  std::size_t selects = 0;
  std::size_t non_select = 0;
  std::size_t parse_errors = 0;
  std::uint64_t logrl_bytes = 0;
};
bool ConvertText(Run* run, const std::string& text_path,
                 const std::string& logrl_path, const std::string& name,
                 Converted* out);

/// MmapQueryLog::Open under a workload.mmap_open span.
bool OpenLogrl(Run* run, const std::string& path, logr::MmapQueryLog* out);

/// Checks that `logrl_path` reloads equal to the in-memory log.
void CheckLogrlRoundTrip(Run* run, const std::string& logrl_path,
                         const logr::QueryLog& log,
                         const logr::DatasetSummary& stats);

/// A fixed-K compression with opts.num_shards == 1. The untraced run
/// calls logr::Compress; the traced run replays the same work through
/// the CompressionPipeline stages (constructor = pack, ClusterStage,
/// EncodeStage), which is the body of Compress for one shard.
logr::LogRSummary CompressFixed(Run* run, const logr::LogView& log,
                                const logr::LogROptions& opts);

/// WriteSummaryFile under a core.write_summary span; returns the bytes
/// written (0 on failure, which is a failed check). When `verify` is
/// set, also checks that the file parses and holds exactly the
/// in-memory summary.
std::uint64_t WriteSummary(Run* run, const std::string& path,
                           const logr::Vocabulary& vocab,
                           const logr::WorkloadModel& model, bool verify,
                           const char* span = "core.write_summary");

// --------------------------------------------------------- workloads

void RunIngestBank(Run* run);
void RunCompressBank(Run* run);
void RunServeMixed(Run* run);

// ------------------------------------------------------------ serve

/// The served-analytics phase every workload ends with (serve-mixed
/// spends its whole run in it): an in-process ServeDaemon over `dir`,
/// 3 closed-loop read connections and 1 analyst connection.
struct ServeSpec {
  std::string dir;
  std::vector<std::string> read_names;  // naive summaries (read lanes)
  std::string pattern_name;             // analyst estimates + publishes
  /// Other versions of the pattern summary the analyst publishes in
  /// turn (outside `dir`).
  std::vector<std::string> alt_pattern_paths;
  std::string drift_a, drift_b;
  /// Logs whose templates the predicates are drawn from, one per read
  /// name, plus one for the pattern summary (last).
  std::vector<const logr::MmapQueryLog*> template_logs;
  double seconds = 1.0;
  /// ingest-bank, serve-mixed: ServeDaemon::Start (with its initial
  /// load) is the workload's set-up, timed over several start/stop
  /// cycles.
  bool start_is_setup = false;
};
void RunServePhase(Run* run, const ServeSpec& spec);

}  // namespace logrbench

#endif  // LOGRBENCH_BENCH_H_
