// The three workloads. Each runs the user's whole path — text ->
// .logrl -> summaries -> served queries — but puts a different layer in
// charge of the time, so a change to one layer shows on one workload
// and not on the others.
#include <algorithm>
#include <memory>

#include "bench.h"
#include "core/distributed.h"
#include "core/logr_compressor.h"
#include "core/sharded.h"
#include "util/thread_pool.h"

namespace logrbench {

using namespace logr;

namespace {

double Seconds(std::int64_t t0) {
  return static_cast<double>(NowNs() - t0) / 1e9;
}

/// Share of --seconds the compression workloads spend in their own
/// loop; the rest goes to their serve phase.
constexpr double kMainShare = 0.5;
/// ingest-bank compressions per convert.
constexpr int kCompressReps = 4;

LogROptions KMeans(std::size_t k, const char* encoder = "naive") {
  LogROptions opts;  // k-means, n_init 4, seed 17: `logr_cli compress`
  opts.num_clusters = k;
  opts.encoder = encoder;
  return opts;
}

/// Funnel checks against what the generator wrote: the template count,
/// and every noise line classed as non-SELECT or parse error.
void CheckFunnel(Run* run, const Converted& c, const TextLogInfo& info) {
  const DatasetSummary s = c.loader.Summary("funnel");
  run->Check(s.num_distinct_no_const == info.templates,
             "templates: got " + std::to_string(s.num_distinct_no_const) +
                 ", generator made " + std::to_string(info.templates));
  run->Check(s.num_non_select + s.num_parse_errors == info.noise_queries,
             "noise lines not all classed as non-SELECT or parse error");
}

/// sql/workload layer metrics over the converts recorded since `mark`.
void ReportConvertLayers(Run* run, const Converted& c, const LogView& log,
                         std::size_t mark, double converts) {
  const Tracer& tr = run->tracer;
  auto ms = [&](const char* span) { return tr.TotalMs(span, mark) / converts; };
  const double parse = ms("sql.parse"), regularize = ms("sql.regularize"),
               regularize_const = ms("sql.regularize_const"),
               print = ms("sql.print"), extract = ms("workload.extract"),
               add_sql = ms("workload.add_sql");
  run->Layer("sql.parse_ms", parse, "ms");
  run->Layer("sql.regularize_ms", regularize, "ms");
  run->Layer("sql.regularize_const_ms", regularize_const, "ms");
  run->Layer("sql.print_ms", print, "ms");
  run->Layer("sql.statements", static_cast<double>(c.statements), "count");
  run->Layer("sql.selects", static_cast<double>(c.selects), "count");
  run->Layer("sql.non_select", static_cast<double>(c.non_select), "count");
  run->Layer("sql.parse_errors", static_cast<double>(c.parse_errors),
             "count");
  run->Layer("sql.select_frac",
             static_cast<double>(c.selects) /
                 static_cast<double>(std::max<std::size_t>(1, c.statements)),
             "ratio");
  run->Layer("workload.extract_ms", extract, "ms");
  run->Layer("workload.add_sql_ms", add_sql, "ms");
  // AddSql's own work (interning, distinct-set upkeep): its time minus
  // the replayed calls it is made of. The replay runs apart from AddSql,
  // so nothing but this check keeps the difference within [0, AddSql].
  const double add_sql_self =
      add_sql - (parse + regularize + regularize_const + print + extract);
  run->Check(add_sql_self >= 0.0 && add_sql_self <= add_sql,
             "AddSql self time outside [0, AddSql]: " +
                 std::to_string(add_sql_self) + " of " +
                 std::to_string(add_sql) + " ms");
  run->Layer("workload.add_sql_self_ms", add_sql_self, "ms");
  run->Layer("workload.write_logrl_ms", ms("workload.write_logrl"), "ms");
  run->Layer("workload.logrl_bytes", static_cast<double>(c.logrl_bytes), "B");
  run->Layer("workload.templates", static_cast<double>(log.NumDistinct()),
             "count");
  run->Layer("workload.features", static_cast<double>(log.NumFeatures()),
             "count");
}

/// core/cluster/maxent layer metrics over the `reps` compression rounds
/// recorded since `mark`.
void ReportCompressLayers(Run* run, std::size_t mark, double reps,
                          std::uint64_t summary_bytes) {
  const Tracer& tr = run->tracer;
  auto ms = [&](const char* span) { return tr.TotalMs(span, mark) / reps; };
  run->Layer("core.pack_ms", ms("core.pack"), "ms");
  run->Layer("core.pool_builds", static_cast<double>(run->pool_builds),
             "count");
  run->Layer("cluster.kmeans_ms", ms("cluster.kmeans"), "ms");
  run->Layer("core.encode_naive_ms", ms("core.encode_naive"), "ms");
  run->Layer("core.write_summary_ms", ms("core.write_summary"), "ms");
  run->Layer("core.summary_bytes", static_cast<double>(summary_bytes), "B");
  run->Layer("util.pool_threads",
             static_cast<double>(ThreadPool::Shared()->NumThreads()), "count");
}

/// Bytes-and-error tally of the summaries one round writes.
struct Written {
  double naive_error = 0.0;
  double pattern_error = 0.0;
  std::uint64_t bytes = 0;
};

void Record(Run* run, const std::vector<double>& convert_s,
            const std::vector<double>& compress_s, const Written& w) {
  run->EndToEnd("convert_s", Median(convert_s), "s");
  run->EndToEnd("compress_s", Median(compress_s), "s");
  run->EndToEnd("summary_error", w.naive_error, "nats");
  run->EndToEnd("pattern_error", w.pattern_error, "nats");
  run->EndToEnd("summary_bytes", static_cast<double>(w.bytes), "B");
  run->Detail("samples.convert", static_cast<double>(convert_s.size()),
              "count");
  run->Detail("samples.compress", static_cast<double>(compress_s.size()),
              "count");
}

/// Generator seed of the paper's bank log (BankLogOptions defaults).
constexpr std::uint64_t kPaperBankSeed = 1995;

/// The pattern summary the analyst queries and republishes, in 8
/// versions (k-means seeds 17..24): the first as `dir`/bank_pattern.logr,
/// the others beside the run's files. They are built from the bank log
/// at the generator's defaults, not from --seed: what it costs to reload
/// or query a pattern summary swings with the log it was fitted to (the
/// median refit of 8 versions ranged 9-20 ms across generator seeds),
/// which would make reload_p50_ms measure the seed instead of the code.
/// The requests against it are still drawn by --seed. Returns the first
/// version's Error.
double WritePatternVersions(Run* run, const MmapQueryLog& bank,
                            const std::string& dir, ServeSpec* spec) {
  constexpr int kVersions = 8;
  spec->pattern_name = "bank_pattern";
  double error = 0.0;
  for (int v = 0; v < kVersions; ++v) {
    LogROptions opts = KMeans(8, "pattern");
    opts.seed += static_cast<std::uint64_t>(v);
    const LogRSummary summary = CompressFixed(run, bank, opts);
    const std::string path =
        v == 0 ? dir + "/bank_pattern.logr"
               : run->Path("bank_pattern_v" + std::to_string(v) + ".logr");
    WriteSummary(run, path, bank.vocabulary(), summary.Model(), v == 0,
                 "serve.prepare");
    if (v == 0) {
      error = summary.Model().Error();
    } else {
      spec->alt_pattern_paths.push_back(path);
    }
  }
  return error;
}

/// Converts the paper's bank log (untimed), for WritePatternVersions.
bool OpenPaperBank(Run* run, MmapQueryLog* out) {
  const std::string text = run->Path("paper_bank.txt");
  const std::string logrl = run->Path("paper_bank.logrl");
  Converted conv;
  return run->Check(WriteBankText(*run, kPaperBankSeed, 1, text).lines > 0,
                    "write " + text) &&
         ConvertText(run, text, logrl, "paper_bank", &conv) &&
         OpenLogrl(run, logrl, out);
}

bool MakeDir(Run* run, const std::string& dir) {
  std::string error;
  return run->Check(EnsureDirectory(dir, &error),
                    "mkdir " + dir + ": " + error);
}

}  // namespace

// ------------------------------------------------------- ingest-bank
// Why: the SQL front end (sql + workload) does ~96% of the
// text->summary time here and no other workload's timed phase, so an
// SQL change shows here and not in any other timed phase.
void RunIngestBank(Run* run) {
  const std::string text = run->Path("bank.txt");
  const std::string logrl = run->Path("bank.logrl");
  const std::string dir = run->Path("served");
  if (!MakeDir(run, dir)) return;

  // Input, untimed. The convert path makes no program call before its
  // timed phase, so setup_s is the serving phase's: ServeDaemon::Start
  // with its initial load (as in serve-mixed).
  const TextLogInfo info = WriteBankText(*run, run->opt.seed, 1, text);
  if (!run->Check(info.lines > 0, "write " + text)) return;

  // Timed: `logr_cli convert` then `logr_cli compress` (k-means, K=8,
  // naive, one shard).
  std::vector<double> convert_s, compress_s;
  auto log = std::make_unique<MmapQueryLog>();
  Written first, w;
  Converted conv;
  const std::size_t mark = run->tracer.Mark();
  const std::int64_t start = NowNs();
  for (int rep = 0; rep < 3 || Seconds(start) < kMainShare * run->opt.seconds;
       ++rep) {
    conv = Converted();
    log = std::make_unique<MmapQueryLog>();
    const std::int64_t t0 = NowNs();
    if (!ConvertText(run, text, logrl, "bank", &conv)) return;
    const std::int64_t t1 = NowNs();
    convert_s.push_back(static_cast<double>(t1 - t0) / 1e9);
    // The compression is a tenth of a convert, so each round runs it
    // kCompressReps times to give compress_s as many samples.
    for (int c = 0; c < kCompressReps; ++c) {
      const bool first_rep = rep == 0 && c == 0;
      log = std::make_unique<MmapQueryLog>();
      const std::int64_t t2 = NowNs();
      if (!OpenLogrl(run, logrl, log.get())) return;
      const LogRSummary naive = CompressFixed(run, *log, KMeans(8));
      w.bytes = WriteSummary(run, dir + "/bank.logr", log->vocabulary(),
                             naive.Model(), first_rep);
      compress_s.push_back(Seconds(t2));
      w.naive_error = naive.Model().Error();
      if (first_rep) {
        first = w;
        CheckLogrlRoundTrip(run, logrl, conv.loader.log(),
                            conv.loader.Summary("bank"));
        CheckFunnel(run, conv, info);
      } else {
        run->Check(
            w.bytes == first.bytes && w.naive_error == first.naive_error,
            "summaries differ between identical rounds");
      }
    }
  }
  if (run->tracer.enabled()) {
    const double converts = static_cast<double>(convert_s.size());
    const double compressions = static_cast<double>(compress_s.size());
    ReportConvertLayers(run, conv, *log, mark, converts);
    ReportCompressLayers(run, mark, compressions, w.bytes);
    run->Layer("workload.mmap_open_ms",
               run->tracer.TotalMs("workload.mmap_open", mark) / compressions,
               "ms");
  }
  conv = Converted();  // release the loader before serving

  // Untimed serve inputs: yesterday's bank log for drift, and the
  // analyst's pattern summary.
  auto drift_log = std::make_unique<MmapQueryLog>();
  auto paper_bank = std::make_unique<MmapQueryLog>();
  if (!run->Check(WriteBankText(*run, run->opt.seed + 1000003, 1,
                                run->Path("bank_drift.txt"))
                          .lines > 0,
                  "write bank_drift.txt") ||
      !ConvertText(run, run->Path("bank_drift.txt"),
                   run->Path("bank_drift.logrl"), "bank_drift", &conv) ||
      !OpenLogrl(run, run->Path("bank_drift.logrl"), drift_log.get()) ||
      !OpenPaperBank(run, paper_bank.get())) {
    return;
  }
  conv = Converted();
  WriteSummary(run, dir + "/bank_drift.logr", drift_log->vocabulary(),
               Compress(*drift_log, KMeans(8)).Model(), false,
               "serve.prepare");
  ServeSpec spec;
  w.pattern_error = WritePatternVersions(run, *paper_bank, dir, &spec);
  Record(run, convert_s, compress_s, w);

  spec.dir = dir;
  spec.read_names = {"bank"};
  spec.drift_a = "bank";
  spec.drift_b = "bank_drift";
  spec.template_logs = {log.get(), paper_bank.get()};
  spec.seconds = (1.0 - kMainShare) * run->opt.seconds;
  spec.start_is_setup = true;
  RunServePhase(run, spec);
}

// ------------------------------------------------------ compress-bank
namespace {

/// CompressToErrorTargets. The traced run replays it through the
/// public stages — pack, one hierarchical Fit, then per target a Cut
/// and a naive encode per K until the Error meets the target — which
/// is the body of CompressionPipeline::RunErrorTargets for a mergeable
/// encoder.
std::vector<LogRSummary> Sweep(Run* run, const LogView& log,
                               const std::vector<double>& targets,
                               std::size_t max_k, const LogROptions& opts) {
  Tracer& tr = run->tracer;
  if (!tr.enabled()) return CompressToErrorTargets(log, targets, max_k, opts);
  std::unique_ptr<CompressionPipeline> pipeline;
  {
    Scope s(&tr, "core.pack");
    pipeline = std::make_unique<CompressionPipeline>(log, opts);
  }
  const PipelineContext& ctx = pipeline->context();
  std::unique_ptr<ClusterModel> model;
  {
    Scope s(&tr, "cluster.hierarchical_fit");
    model = ctx.clusterer->Fit(ctx.vecs, ctx.weights, ctx.Request(1));
  }
  std::vector<LogRSummary> out;
  for (double target : targets) {
    NaiveMixtureEncoding best;
    std::vector<int> assignment;
    std::size_t chosen = 1;
    for (std::size_t k = 1; k <= std::min(max_k, log.NumDistinct()); ++k) {
      {
        Scope s(&tr, "cluster.cut");
        assignment = model->Cut(k);
      }
      Scope s(&tr, "core.encode_naive");
      best = NaiveMixtureEncoding::FromPartition(log, assignment, k, ctx.pool);
      chosen = k;
      if (best.Error() <= target) break;
    }
    Scope s(&tr, "core.encode_naive");
    LogRSummary summary;
    summary.assignment = std::move(assignment);
    summary.model = ctx.encoder->WrapMixture(log, std::move(best),
                                             ctx.EncodeReq(chosen));
    out.push_back(std::move(summary));
  }
  return out;
}

/// Compress with opts.num_shards > 1. The traced run also replays the
/// sharded path's stages (partition, per-shard pipelines on zero-copy
/// subviews at ClustersPerShard, merge + reconcile) to show where its
/// time goes; the summary written is always ShardedCompressor's.
LogRSummary Sharded(Run* run, const LogView& log, const LogROptions& opts) {
  Tracer& tr = run->tracer;
  LogRSummary out;
  {
    Scope s(&tr, "core.sharded_wall");
    out = ShardedCompressor(log, opts).Run();
  }
  if (!tr.enabled()) return out;
  std::vector<std::vector<std::size_t>> parts;
  {
    Scope s(&tr, "core.partition");
    parts = ShardedCompressor::PartitionIndices(log, opts.num_shards,
                                                opts.shard_policy);
  }
  static ThreadPool serial(0);
  LogROptions shard_opts = opts;
  shard_opts.num_shards = 1;
  shard_opts.pool = &serial;
  shard_opts.encoder = "naive";
  shard_opts.num_clusters = ShardedCompressor::ClustersPerShard(opts);
  std::vector<NaiveMixtureEncoding> mixes;
  {
    Scope s(&tr, "core.shard_pipelines");
    for (const std::vector<std::size_t>& indices : parts) {
      Scope shard(&tr, "core.shard_pipeline");
      const LogRSummary r = Compress(log.Subview(indices), shard_opts);
      std::vector<MixtureComponent> comps;
      const NaiveMixtureEncoding& mix = *r.Model().AsNaiveMixture();
      for (std::size_t c = 0; c < mix.NumComponents(); ++c) {
        MixtureComponent comp = mix.Component(c);
        for (std::size_t& m : comp.members) m = indices[m];
        comps.push_back(std::move(comp));
      }
      mixes.push_back(NaiveMixtureEncoding::FromComponents(std::move(comps)));
    }
  }
  Scope s(&tr, "core.reconcile");
  std::vector<const NaiveMixtureEncoding*> ptrs;
  for (const NaiveMixtureEncoding& m : mixes) ptrs.push_back(&m);
  const NaiveMixtureEncoding reconciled =
      NaiveMixtureEncoding::Merge(ptrs).Reconcile(
          std::min(opts.num_clusters, log.NumDistinct()),
          ThreadPool::Shared());
  run->Check(reconciled.Error() == out.Model().Error(),
             "sharded replay differs from ShardedCompressor::Run");
  return out;
}

}  // namespace

// Why: cluster, core and maxent do all of the timed work and the SQL
// front end none; it runs both shard-execution paths (in-process and
// forked workers) over the same split.
void RunCompressBank(Run* run) {
  const std::string text = run->Path("bank2x.txt");
  const std::string logrl = run->Path("bank2x.logrl");
  const std::string dir = run->Path("served");
  const std::string shard_dir = run->Path("shards");
  if (!MakeDir(run, dir) || !MakeDir(run, shard_dir)) return;
  const TextLogInfo info = WriteBankText(*run, run->opt.seed, 2, text);
  if (!run->Check(info.lines > 0, "write " + text)) return;

  // Set-up (median of kSetupReps): convert, split into 4 shard files,
  // mmap-open.
  std::vector<double> setup, convert_s;
  auto log = std::make_unique<MmapQueryLog>();
  std::vector<std::string> shard_paths;
  Converted conv;
  std::size_t mark = run->tracer.Mark();
  for (int rep = 0; rep < kSetupReps; ++rep) {
    conv = Converted();
    log = std::make_unique<MmapQueryLog>();
    shard_paths.clear();
    const std::int64_t t0 = NowNs();
    if (!ConvertText(run, text, logrl, "bank2x", &conv)) return;
    convert_s.push_back(Seconds(t0));
    if (!OpenLogrl(run, logrl, log.get())) return;
    const LogView view(*log);
    const auto parts = ShardedCompressor::PartitionIndices(
        view, 4, ShardPolicy::kHashDistinct);
    for (std::size_t s = 0; s < parts.size(); ++s) {
      const QueryLog sub = view.MaterializeSubset(parts[s]);
      DatasetSummary stats;
      stats.name = "bank2x-s" + std::to_string(s);
      stats.num_queries = sub.TotalQueries();
      stats.num_distinct = sub.NumDistinct();
      stats.num_features = sub.NumFeatures();
      stats.max_multiplicity = sub.MaxMultiplicity();
      shard_paths.push_back(shard_dir + "/shard-" + std::to_string(s) +
                            ".logrl");
      std::string error;
      if (!run->Check(BinaryLogWriter::WriteFile(shard_paths.back(), sub,
                                                 stats, &error),
                      "write shard: " + error)) {
        return;
      }
    }
    setup.push_back(Seconds(t0));
    if (rep == 0) {
      CheckLogrlRoundTrip(run, logrl, conv.loader.log(),
                          conv.loader.Summary("bank2x"));
      CheckFunnel(run, conv, info);
    }
  }
  run->EndToEnd("setup_s", Median(setup), "s");
  if (run->tracer.enabled()) {
    ReportConvertLayers(run, conv, *log, mark, kSetupReps);
    run->Layer("workload.mmap_open_ms",
               run->tracer.TotalMs("workload.mmap_open", mark) / kSetupReps,
               "ms");
  }
  conv = Converted();

  // Error targets from this log's own error curve (untimed input
  // derivation): the naive Error of the hierarchical cut at each K, so
  // the sweep stops at a different K <= 64 for each target.
  LogROptions hier;
  hier.method = ClusteringMethod::kHierarchicalAverage;
  hier.encoder = "naive";
  constexpr std::size_t kMaxK = 64;
  std::vector<double> targets;
  {
    CompressionPipeline pipeline(*log, hier);
    const PipelineContext& ctx = pipeline.context();
    auto model = ctx.clusterer->Fit(ctx.vecs, ctx.weights, ctx.Request(1));
    for (std::size_t k : {6, 12, 24, 48}) {
      k = std::min(k, log->NumDistinct());
      targets.push_back(
          NaiveMixtureEncoding::FromPartition(*log, model->Cut(k), k, ctx.pool)
              .Error());
    }
  }

  // Timed: the sweep, 4-shard Compress, 4 forked workers over the same
  // split, and the pattern encoder at K=8 — writing every summary.
  std::vector<double> compress_s;
  Written first, w;
  std::vector<std::size_t> sweep_k;
  std::size_t workers_launched = 0, workers_failed = 0;
  mark = run->tracer.Mark();
  run->pool_builds = 0;
  const std::int64_t start = NowNs();
  for (int rep = 0; rep < 3 || Seconds(start) < kMainShare * run->opt.seconds;
       ++rep) {
    const bool first_rep = rep == 0;
    w = Written();
    sweep_k.clear();
    const std::int64_t t0 = NowNs();
    const std::vector<LogRSummary> sweep =
        Sweep(run, *log, targets, kMaxK, hier);
    for (std::size_t j = 0; j < sweep.size(); ++j) {
      const std::string path = dir + "/sweep_" + std::to_string(j) + ".logr";
      w.bytes += WriteSummary(run, path, log->vocabulary(), sweep[j].Model(),
                              first_rep);
      w.naive_error += sweep[j].Model().Error();
      sweep_k.push_back(sweep[j].Model().NumComponents());
    }
    LogROptions sharded_opts = KMeans(8);
    sharded_opts.num_shards = 4;
    const LogRSummary sharded = Sharded(run, *log, sharded_opts);
    w.bytes += WriteSummary(run, dir + "/sharded.logr", log->vocabulary(),
                            sharded.Model(), first_rep);
    w.naive_error += sharded.Model().Error();

    DistributedOptions dopts;
    dopts.num_workers = 4;
    dopts.compression = KMeans(8);
    dopts.spool_dir = run->Path("spool");
    dopts.reuse_spool = false;
    DistributedResult dist;
    std::string error;
    bool dist_ok;
    {
      Scope s(&run->tracer, "core.distributed_wall");
      dist_ok = CompressDistributed(shard_paths, dopts, &dist, &error);
    }
    run->attempted += dist.workers_launched;
    run->failed += dist.workers_failed;
    workers_launched = dist.workers_launched;
    workers_failed = dist.workers_failed;
    if (!run->Check(dist_ok, "distributed compression: " + error)) return;
    if (run->tracer.enabled()) {
      Scope s(&run->tracer, "core.merge_summaries");
      std::vector<PersistedSummary> parts(dist.shards.size());
      for (std::size_t i = 0; i < parts.size(); ++i) {
        run->Check(
            ReadSummaryFile(dist.shards[i].summary_path, &parts[i], &error),
            "read spooled summary: " + error);
      }
      PersistedSummary merged;
      run->Check(MergeSummaries(parts, dopts.compression.num_clusters,
                                dopts.compression, &merged, &error),
                 "merge spool: " + error);
    }
    w.bytes += WriteSummary(run, dir + "/distributed.logr",
                            dist.summary.vocabulary, *dist.summary.model,
                            first_rep);
    w.naive_error += dist.summary.model->Error();

    const LogRSummary pattern = CompressFixed(run, *log, KMeans(8, "pattern"));
    w.bytes += WriteSummary(run, dir + "/pattern.logr", log->vocabulary(),
                            pattern.Model(), first_rep);
    w.pattern_error = pattern.Model().Error();
    compress_s.push_back(Seconds(t0));

    run->Check(ReadFile(dir + "/sharded.logr") ==
                   ReadFile(dir + "/distributed.logr"),
               "4-shard and distributed summaries differ");
    if (first_rep) {
      first = w;
      if (run->tracer.enabled()) {
        // The replayed sweep must be the library's sweep.
        const auto real = CompressToErrorTargets(*log, targets, kMaxK, hier);
        for (std::size_t j = 0; j < real.size(); ++j) {
          run->Check(real[j].Model().Error() == sweep[j].Model().Error(),
                     "sweep replay differs from CompressToErrorTargets");
        }
      }
    } else {
      run->Check(w.bytes == first.bytes && w.naive_error == first.naive_error &&
                     w.pattern_error == first.pattern_error,
                 "summaries differ between identical rounds");
    }
  }
  for (std::size_t j = 0; j < sweep_k.size(); ++j) {
    run->Check(sweep_k[j] >= 1 && sweep_k[j] <= kMaxK, "sweep K out of range");
    run->Detail("sweep.k_" + std::to_string(j),
                static_cast<double>(sweep_k[j]), "count");
  }
  Record(run, convert_s, compress_s, w);
  const double reps = static_cast<double>(compress_s.size());
  if (run->tracer.enabled()) {
    const Tracer& tr = run->tracer;
    ReportCompressLayers(run, mark, reps, w.bytes);
    auto ms = [&](const char* span) { return tr.TotalMs(span, mark) / reps; };
    run->Detail("cluster.hierarchical_fit_ms", ms("cluster.hierarchical_fit"),
                "ms");
    run->Detail("cluster.cut_ms", ms("cluster.cut"), "ms");
    run->Detail("core.partition_ms", ms("core.partition"), "ms");
    run->Detail("core.shard_pipelines_ms", ms("core.shard_pipelines"), "ms");
    run->Detail("core.shard_pipelines_max_ms",
                tr.MaxMs("core.shard_pipeline", mark), "ms");
    run->Detail("core.reconcile_ms", ms("core.reconcile"), "ms");
    run->Detail("core.sharded_wall_ms", ms("core.sharded_wall"), "ms");
    run->Detail("core.distributed_wall_ms", ms("core.distributed_wall"),
                "ms");
    run->Detail("core.merge_summaries_ms", ms("core.merge_summaries"), "ms");
  }
  run->Detail("core.workers_launched", static_cast<double>(workers_launched),
              "count");
  run->Detail("core.workers_failed", static_cast<double>(workers_failed),
              "count");

  auto paper_bank = std::make_unique<MmapQueryLog>();
  if (!OpenPaperBank(run, paper_bank.get())) return;
  ServeSpec spec;
  WritePatternVersions(run, *paper_bank, dir, &spec);
  spec.dir = dir;
  spec.read_names = {"sharded", "sweep_3"};
  spec.drift_a = "sweep_0";
  spec.drift_b = "distributed";
  spec.template_logs = {log.get(), log.get(), paper_bank.get()};
  spec.seconds = (1.0 - kMainShare) * run->opt.seconds;
  RunServePhase(run, spec);
}

// -------------------------------------------------------- serve-mixed
// Why: serve, maxent and summary serialization do all of the timed
// work and sql/cluster none; cheap transport-bound reads share the
// daemon with compute-bound analyst requests and hot reloads.
void RunServeMixed(Run* run) {
  const std::string dir = run->Path("served");
  if (!MakeDir(run, dir)) return;
  struct Input {
    const char* name;
    TextLogInfo info;
    std::unique_ptr<MmapQueryLog> log;
  };
  // Today's pocket and bank logs, plus yesterday's bank for drift. The
  // bank log is the paper's (see WritePatternVersions: the analyst's
  // pattern summary is fitted to it).
  Input inputs[3] = {{"pocket", {}, nullptr},
                     {"bank", {}, nullptr},
                     {"bank_drift", {}, nullptr}};
  const std::uint64_t seed = run->opt.seed;
  inputs[0].info = WritePocketText(*run, seed, run->Path("pocket.txt"));
  inputs[1].info =
      WriteBankText(*run, kPaperBankSeed, 1, run->Path("bank.txt"));
  inputs[2].info =
      WriteBankText(*run, seed + 1000003, 1, run->Path("bank_drift.txt"));

  // The served summaries, built before the daemon starts — over and
  // over for kMainShare of the run, so that convert_s and compress_s
  // are medians of many builds as elsewhere.
  std::vector<double> convert_s, compress_s;
  Written first, w;
  const std::size_t mark = run->tracer.Mark();
  Converted conv, all;  // `all` sums one build's line counts
  const std::int64_t start = NowNs();
  int build = 0;
  for (; build < 3 || Seconds(start) < kMainShare * run->opt.seconds;
       ++build) {
    const bool first_build = build == 0;
    w = Written();
    double convert = 0.0, compress = 0.0;
    for (Input& in : inputs) {
      conv = Converted();
      in.log = std::make_unique<MmapQueryLog>();
      const std::string logrl = run->Path(std::string(in.name) + ".logrl");
      const std::int64_t t0 = NowNs();
      if (!ConvertText(run, run->Path(std::string(in.name) + ".txt"), logrl,
                       in.name, &conv)) {
        return;
      }
      const std::int64_t t1 = NowNs();
      convert += static_cast<double>(t1 - t0) / 1e9;
      if (!OpenLogrl(run, logrl, in.log.get())) return;
      const LogRSummary naive = CompressFixed(run, *in.log, KMeans(8));
      w.bytes += WriteSummary(run, dir + "/" + in.name + ".logr",
                              in.log->vocabulary(), naive.Model(),
                              first_build);
      w.naive_error += naive.Model().Error();
      if (&in == &inputs[1]) {
        const LogRSummary pattern =
            CompressFixed(run, *in.log, KMeans(8, "pattern"));
        w.bytes += WriteSummary(run, dir + "/bank_pattern.logr",
                                in.log->vocabulary(), pattern.Model(),
                                first_build);
        w.pattern_error = pattern.Model().Error();
      }
      compress += Seconds(t1);
      if (first_build) {
        all.statements += conv.statements;
        all.selects += conv.selects;
        all.non_select += conv.non_select;
        all.parse_errors += conv.parse_errors;
        all.logrl_bytes += conv.logrl_bytes;
        if (&in == &inputs[1]) {
          CheckLogrlRoundTrip(run, logrl, conv.loader.log(),
                              conv.loader.Summary(in.name));
          CheckFunnel(run, conv, in.info);
        }
      }
    }
    convert_s.push_back(convert);
    compress_s.push_back(compress);
    if (first_build) {
      first = w;
    } else {
      run->Check(w.bytes == first.bytes && w.naive_error == first.naive_error &&
                     w.pattern_error == first.pattern_error,
                 "summaries differ between identical builds");
    }
  }
  Record(run, convert_s, compress_s, w);
  if (run->tracer.enabled()) {
    // Per-layer figures of one build (three converts and compressions).
    const double builds = static_cast<double>(build);
    ReportConvertLayers(run, all, *inputs[1].log, mark, builds);
    ReportCompressLayers(run, mark, builds, w.bytes);
    run->Layer("workload.mmap_open_ms",
               run->tracer.TotalMs("workload.mmap_open", mark) / builds,
               "ms");
  }
  conv = Converted();

  ServeSpec spec;
  WritePatternVersions(run, *inputs[1].log, dir, &spec);
  spec.dir = dir;
  spec.read_names = {"pocket", "bank"};
  spec.drift_a = "bank";
  spec.drift_b = "bank_drift";
  spec.template_logs = {inputs[0].log.get(), inputs[1].log.get(),
                        inputs[1].log.get()};
  spec.seconds = (1.0 - kMainShare) * run->opt.seconds;
  spec.start_is_setup = true;
  RunServePhase(run, spec);
}

}  // namespace logrbench
