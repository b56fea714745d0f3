// logrbench: one run of one workload, printing one JSON result line.
//
//   logrbench --workload ingest-bank|compress-bank|serve-mixed
//             --seed N --seconds S --trace 0|1 --work DIR
//             [--scale paper|tiny] [--corrupt logrl|summary]
//
// The last line of stdout is {"correct", "attempted", "failed",
// "metrics"}: with --trace 0 the end-to-end metrics, with --trace 1
// the per-layer metrics plus the traced run's own end-to-end figures
// (as traced.<name>), so tracing overhead is their difference from an
// untraced run. The line before it carries the seed, sample counts,
// workload-specific layer figures and any failed checks.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "bench.h"

namespace logrbench {
namespace {

struct Declared {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (selftest.py checks it).
constexpr Declared kEndToEnd[] = {
    {"setup_s", "s"},
    {"convert_s", "s"},
    {"compress_s", "s"},
    {"summary_error", "nats"},
    {"pattern_error", "nats"},
    {"summary_bytes", "B"},
    {"peak_rss_mb", "MB"},
    {"estimate_p50_us", "us"},
    {"estimate_p90_us", "us"},
    {"pattern_estimate_p50_us", "us"},
    {"drift_p50_ms", "ms"},
    {"reload_p50_ms", "ms"},
    {"ok_frac", "ratio"},
};

constexpr Declared kPerLayer[] = {
    {"sql.parse_ms", "ms"},
    {"sql.regularize_ms", "ms"},
    {"sql.regularize_const_ms", "ms"},
    {"sql.print_ms", "ms"},
    {"sql.statements", "count"},
    {"sql.selects", "count"},
    {"sql.non_select", "count"},
    {"sql.parse_errors", "count"},
    {"sql.select_frac", "ratio"},
    {"workload.extract_ms", "ms"},
    {"workload.add_sql_ms", "ms"},
    {"workload.add_sql_self_ms", "ms"},
    {"workload.write_logrl_ms", "ms"},
    {"workload.logrl_bytes", "B"},
    {"workload.mmap_open_ms", "ms"},
    {"workload.templates", "count"},
    {"workload.features", "count"},
    {"core.pack_ms", "ms"},
    {"core.pool_builds", "count"},
    {"cluster.kmeans_ms", "ms"},
    {"core.encode_naive_ms", "ms"},
    {"maxent.encode_pattern_ms", "ms"},
    {"core.write_summary_ms", "ms"},
    {"core.summary_bytes", "B"},
    {"util.pool_threads", "count"},
    {"serve.handle_estimate_p50_us", "us"},
    {"serve.handle_estimate_p99_us", "us"},
    {"serve.transport_us", "us"},
    {"serve.handle_pattern_estimate_us", "us"},
    {"serve.handle_drift_ms", "ms"},
    {"serve.write_summary_ms", "ms"},
    {"serve.read_summary_ms", "ms"},
    {"serve.rescan_ms", "ms"},
    {"serve.connect_us", "us"},
    {"serve.accepted", "count"},
    {"serve.requests", "count"},
    {"serve.shed", "count"},
    {"serve.timed_out", "count"},
    {"serve.rescans", "count"},
    {"serve.ok_frac", "ratio"},
};

std::string Escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Appends `"name": {"value": v, "unit": u}` for each declared metric,
/// failing a check for any the workload did not measure.
void EmitDeclared(Run* run, const std::map<std::string, Metric>& measured,
                  const Declared* begin, const Declared* end,
                  const std::string& prefix, std::string* out) {
  for (const Declared* d = begin; d != end; ++d) {
    const auto it = measured.find(d->name);
    const bool ok = it != measured.end() && std::isfinite(it->second.value) &&
                    it->second.unit == d->unit;
    run->Check(ok, std::string("metric not measured: ") + d->name);
    if (!out->empty()) *out += ", ";
    *out += "\"" + prefix + d->name + "\": {\"value\": " +
            Number(ok ? it->second.value : 0.0) + ", \"unit\": \"" + d->unit +
            "\"}";
  }
}

/// Jiffies the whole machine has spent in total and as steal time (the
/// hypervisor running something else while a vCPU wanted to run), from
/// the first line of /proc/stat; false where that is not available.
bool ReadCpuJiffies(double* total, double* steal) {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double v[8] = {};
  if (!(in >> cpu) || cpu != "cpu") return false;
  for (double& x : v) {
    if (!(in >> x)) return false;
  }
  *total = 0.0;
  for (double x : v) *total += x;
  *steal = v[7];
  return true;
}

int Usage() {
  std::fprintf(stderr,
               "usage: logrbench --workload ingest-bank|compress-bank|"
               "serve-mixed --seed N --seconds S --trace 0|1 --work DIR "
               "[--scale paper|tiny] [--corrupt logrl|summary]\n");
  return 2;
}

}  // namespace
}  // namespace logrbench

int main(int argc, char** argv) {
  using namespace logrbench;
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      opt.trace = value == "1";
    } else if (flag == "--work") {
      opt.work_dir = value;
    } else if (flag == "--scale") {
      opt.scale = value;
    } else if (flag == "--corrupt") {
      opt.corrupt = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || opt.work_dir.empty() || opt.seconds <= 0 ||
      (opt.scale != "paper" && opt.scale != "tiny")) {
    return Usage();
  }

  // The share of the machine's CPU time stolen by the hypervisor during
  // the run goes on the detail line: on a shared VM it explains runs
  // whose every timing moved together.
  double total0 = 0.0, steal0 = 0.0;
  const bool have_jiffies = ReadCpuJiffies(&total0, &steal0);

  Run run(opt);
  if (opt.workload == "ingest-bank") {
    RunIngestBank(&run);
  } else if (opt.workload == "compress-bank") {
    RunCompressBank(&run);
  } else if (opt.workload == "serve-mixed") {
    RunServeMixed(&run);
  } else {
    return Usage();
  }

  double total1 = 0.0, steal1 = 0.0;
  if (have_jiffies && ReadCpuJiffies(&total1, &steal1) && total1 > total0) {
    run.Detail("host.steal_frac", (steal1 - steal0) / (total1 - total0),
               "ratio");
  }
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  run.EndToEnd("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0,
               "MB");
  if (opt.trace) {
    // Per call: each workload encodes a different number of pattern
    // summaries.
    run.Layer("maxent.encode_pattern_ms",
              Median(run.tracer.DurationsUs("maxent.encode_pattern")) / 1e3,
              "ms");
    std::string why;
    run.Check(run.tracer.CheckSelfTimes(&why) == 0, "span nesting: " + why);
  }

  std::string metrics;
  if (opt.trace) {
    EmitDeclared(&run, run.layer, std::begin(kPerLayer), std::end(kPerLayer),
                 "", &metrics);
  }
  // ok_frac is measured last, over every check above.
  auto ok_frac = [&run] {
    const std::uint64_t attempted = std::max<std::uint64_t>(1, run.attempted);
    return 1.0 - static_cast<double>(run.failed) /
                     static_cast<double>(attempted);
  };
  run.EndToEnd("ok_frac", ok_frac(), "ratio");
  EmitDeclared(&run, run.e2e, std::begin(kEndToEnd), std::end(kEndToEnd),
               opt.trace ? "traced." : "", &metrics);

  std::string detail;
  for (const auto& [name, m] : run.detail) {
    detail += (detail.empty() ? "" : ", ") + std::string("\"") + name +
              "\": {\"value\": " + Number(m.value) + ", \"unit\": \"" +
              m.unit + "\"}";
  }
  std::string failures;
  for (const std::string& f : run.failures) {
    failures += (failures.empty() ? "\"" : ", \"") + Escape(f) + "\"";
  }
  const bool correct = run.failed == 0;
  std::printf(
      "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, \"trace\": %d, "
      "\"scale\": \"%s\", \"failed_frac\": %s, \"failures\": [%s], "
      "\"detail\": {%s}}\n",
      opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
      Number(opt.seconds).c_str(), opt.trace ? 1 : 0, opt.scale.c_str(),
      Number(1.0 - ok_frac()).c_str(), failures.c_str(), detail.c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(run.attempted),
      static_cast<unsigned long long>(run.failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
