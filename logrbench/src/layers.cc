// Inputs, the convert path, and the compression/write calls every
// workload shares — each wrapped in the span of the layer it calls.
#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>

#include "bench.h"
#include "core/logr_compressor.h"
#include "data/bank.h"
#include "data/pocketdata.h"
#include "sql/normalizer.h"
#include "sql/parser.h"
#include "sql/printer.h"
#include "workload/extractor.h"

namespace logrbench {

using namespace logr;

bool Run::Check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    if (failures.size() < 20) failures.push_back(what);
  }
  return ok;
}

// ------------------------------------------------------------ inputs

namespace {

TextLogInfo WriteEntries(const std::vector<LogEntry>& entries,
                         std::size_t noise_lines, std::size_t templates,
                         const std::string& path) {
  TextLogInfo info;
  info.lines = entries.size();
  info.templates = templates;
  // Every generator appends its noise entries last.
  for (std::size_t i = entries.size() - noise_lines; i < entries.size(); ++i) {
    info.noise_queries += entries[i].count;
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  for (const LogEntry& e : entries) out << e.count << '\t' << e.sql << '\n';
  return out ? info : TextLogInfo{};
}

}  // namespace

TextLogInfo WriteBankText(const Run& run, std::uint64_t seed,
                          std::size_t templates_factor,
                          const std::string& path) {
  BankLogOptions opts;  // paper scale: 1,712 templates, ~1.24M queries
  opts.seed = seed;
  if (run.tiny()) {
    opts.num_templates = 120;
    opts.total_queries = 20000;
    opts.noise_entries = 30;
  }
  opts.num_templates *= templates_factor;
  return WriteEntries(GenerateBankLog(opts), opts.noise_entries,
                      opts.num_templates, path);
}

TextLogInfo WritePocketText(const Run& run, std::uint64_t seed,
                            const std::string& path) {
  PocketDataOptions opts;  // paper scale: 605 statements, ~630k queries
  opts.seed = seed;
  if (run.tiny()) {
    opts.num_distinct = 80;
    opts.total_queries = 10000;
  }
  // PocketData has no noise lines; every statement is a SELECT.
  return WriteEntries(GeneratePocketDataLog(opts), 0, 0, path);
}

bool ReadTextLog(const std::string& path, std::vector<TextLine>* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  out->clear();
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    TextLine t;
    const std::size_t tab = line.find('\t');
    if (tab != std::string::npos) {
      t.count = std::strtoull(line.substr(0, tab).c_str(), nullptr, 10);
      t.sql = line.substr(tab + 1);
    } else {
      t.sql = line;
    }
    out->push_back(std::move(t));
  }
  return true;
}

std::uint64_t FileBytes(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) return 0;
  return static_cast<std::uint64_t>(st.st_size);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void CorruptFile(const std::string& path) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekg(0, std::ios::end);
  const std::streamoff size = f.tellg();
  const std::streamoff at = size / 2;
  char c = 0;
  f.seekg(at);
  f.get(c);
  // Swap one digit for another (or flip a bit): the file stays
  // plausible, so only a content check can catch it.
  c = (c >= '0' && c <= '8') ? static_cast<char>(c + 1)
                             : static_cast<char>(c ^ 0x01);
  f.seekp(at);
  f.put(c);
}

// ---------------------------------------------------------- convert

bool ConvertText(Run* run, const std::string& text_path,
                 const std::string& logrl_path, const std::string& name,
                 Converted* out) {
  Tracer& tr = run->tracer;
  std::vector<TextLine> lines;
  if (!run->Check(ReadTextLog(text_path, &lines), "read " + text_path)) {
    return false;
  }
  const LogLoader::Options lopts;  // what `logr_cli convert` uses
  out->loader = LogLoader(lopts);
  Vocabulary replay_vocab;
  for (const TextLine& line : lines) {
    ++out->statements;
    if (!tr.enabled()) {
      out->loader.AddSql(line.sql, line.count);
      continue;
    }
    Scope line_span(&tr, "workload.line");
    // Replay: the public calls AddSql makes for this line, one span
    // each. The results are discarded; AddSql below does the real work.
    sql::ParseResult parsed;
    {
      Scope s(&tr, "sql.parse");
      parsed = sql::Parse(line.sql);
    }
    if (parsed.kind == sql::StatementKind::kParseError) {
      ++out->parse_errors;
    } else if (!parsed.ok()) {
      ++out->non_select;
    } else {
      ++out->selects;
      sql::RegularizeInfo info;
      sql::StatementPtr regular;
      {
        Scope s(&tr, "sql.regularize");
        regular = sql::Regularize(*parsed.statement, lopts.regularize, &info);
      }
      {
        Scope s(&tr, "sql.print");
        sql::PrintStatement(*regular);
      }
      {
        Scope s(&tr, "workload.extract");
        ExtractFeatures(*regular, lopts.extract, &replay_vocab);
      }
      sql::RegularizeOptions keep = lopts.regularize;
      keep.anonymize_constants = false;
      sql::StatementPtr with_const;
      {
        Scope s(&tr, "sql.regularize_const");
        with_const = sql::Regularize(*parsed.statement, keep, &info);
      }
      {
        Scope s(&tr, "sql.print");
        sql::PrintStatement(*with_const);
      }
      {
        Scope s(&tr, "workload.extract");
        ListFeatures(*with_const, lopts.extract);
      }
    }
    Scope s(&tr, "workload.add_sql");
    out->loader.AddSql(line.sql, line.count);
  }
  std::string error;
  bool ok;
  {
    Scope s(&tr, "workload.write_logrl");
    ok = out->loader.WriteBinary(logrl_path, name, &error);
  }
  if (!run->Check(ok, "write " + logrl_path + ": " + error)) return false;
  out->logrl_bytes = FileBytes(logrl_path);
  if (run->opt.corrupt == "logrl" && !run->corrupted) {
    run->corrupted = true;
    CorruptFile(logrl_path);
  }
  return true;
}

bool OpenLogrl(Run* run, const std::string& path, MmapQueryLog* out) {
  std::string error;
  bool ok;
  {
    Scope s(&run->tracer, "workload.mmap_open");
    ok = MmapQueryLog::Open(path, out, &error);
  }
  return run->Check(ok, "open " + path + ": " + error);
}

void CheckLogrlRoundTrip(Run* run, const std::string& logrl_path,
                         const QueryLog& log, const DatasetSummary& stats) {
  LoadedBinaryLog loaded;
  std::string why;
  if (!run->Check(ReadBinaryLogFile(logrl_path, &loaded, &why),
                  "reload " + logrl_path + ": " + why)) {
    return;
  }
  run->Check(SameQueryLog(loaded.log, log, &why),
             ".logrl differs from the in-memory log: " + why);
  run->Check(SameDatasetSummary(loaded.summary, stats, &why),
             ".logrl summary differs: " + why);
}

// --------------------------------------------------------- compress

LogRSummary CompressFixed(Run* run, const LogView& log,
                          const LogROptions& opts) {
  Tracer& tr = run->tracer;
  LogRSummary out;
  if (!tr.enabled()) {
    out = Compress(log, opts);
  } else {
    std::unique_ptr<CompressionPipeline> pipeline;
    {
      Scope s(&tr, "core.pack");
      pipeline = std::make_unique<CompressionPipeline>(log, opts);
    }
    const std::size_t k = std::min(opts.num_clusters, log.NumDistinct());
    std::vector<int> assignment;
    {
      Scope s(&tr, "cluster.kmeans");
      assignment = pipeline->ClusterStage(k);
    }
    Scope s(&tr, opts.encoder == "pattern" ? "maxent.encode_pattern"
                                           : "core.encode_naive");
    out = pipeline->EncodeStage(std::move(assignment), k);
  }
  run->pool_builds = std::max(run->pool_builds, out.pool_builds);
  run->Check(out.model != nullptr, "compression produced no model");
  return out;
}

std::uint64_t WriteSummary(Run* run, const std::string& path,
                           const Vocabulary& vocab,
                           const WorkloadModel& model, bool verify,
                           const char* span) {
  std::string error;
  bool ok;
  {
    Scope s(&run->tracer, span);
    ok = WriteSummaryFile(path, vocab, model, &error);
  }
  if (!run->Check(ok, "write " + path + ": " + error)) return 0;
  const std::uint64_t bytes = FileBytes(path);
  if (run->opt.corrupt == "summary" && !run->corrupted) {
    run->corrupted = true;
    CorruptFile(path);
  }
  if (verify) {
    std::ostringstream expect;
    WriteSummary(vocab, model, &expect, &error);
    run->Check(ReadFile(path) == expect.str(),
               "summary on disk differs from the in-memory summary: " + path);
    PersistedSummary reloaded;
    run->Check(ReadSummaryFile(path, &reloaded, &error),
               "reload " + path + ": " + error);
  }
  return bytes;
}

}  // namespace logrbench
