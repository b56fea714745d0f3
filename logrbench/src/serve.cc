// The served-analytics phase: an in-process ServeDaemon on a Unix
// socket, loaded by one generator process with 4 closed-loop
// connections (callers such as the index/view advisors and `logr_cli
// query` wait for each reply):
//   * 3 read connections send estimate/marginal requests against the
//     naive summaries;
//   * 1 analyst connection cycles through one estimate on the pattern
//     summary, one drift, and one publish-then-reload of the pattern
//     summary.
// Every reply is checked against the reply the same request gets
// in-process, and estimates against EstimateCount on the same summary.
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <thread>

#include "bench.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/summary_registry.h"
#include "util/prng.h"
#include "workload/predicate.h"

namespace logrbench {

using namespace logr;

namespace {

constexpr int kRequestTimeoutMs = 10000;
constexpr std::size_t kLinesPerName = 256;
constexpr std::size_t kPatternLines = 64;
/// Read-lane figures are taken per window and reported as the median
/// over windows, so a burst of contention from outside the process
/// moves a few windows, not the result.
constexpr std::int64_t kWindowNs = 500000000;
/// A read lane reconnects after this many requests, half the daemon's
/// per-connection budget (a 20 s lane sends over a million).
constexpr std::uint64_t kSessionRequests = 1 << 19;

double Us(std::int64_t ns) { return static_cast<double>(ns) / 1e3; }

/// 2–3 feature ids of one real template of `log`, drawn by `rng` and
/// translated into `vocab`'s ids. Empty when the template has no
/// feature the summary knows.
std::string DrawPredicate(const MmapQueryLog& log, const Vocabulary& vocab,
                          std::size_t terms, Pcg32* rng) {
  for (int attempt = 0; attempt < 16; ++attempt) {
    const std::size_t row =
        rng->NextBounded(static_cast<std::uint32_t>(log.NumDistinct()));
    std::vector<FeatureId> ids;
    const FeatureId* span = log.VectorIds(row);
    for (std::size_t i = 0; i < log.VectorSize(row); ++i) {
      ids.push_back(span[i]);
    }
    if (ids.size() < terms) continue;
    rng->Shuffle(&ids);
    std::string out;
    for (std::size_t i = 0; i < terms; ++i) {
      const FeatureId id = vocab.Find(log.vocabulary().Get(ids[i]));
      if (id == Vocabulary::kNotFound) break;
      out += (out.empty() ? "" : ",") + std::to_string(id);
      if (i + 1 == terms) return out;
    }
  }
  return "";
}

/// Median over complete passes of `pass` consecutive samples of each
/// pass's mean (the plain median when there is no complete pass). The
/// analyst's samples cycle through the pattern summary's versions,
/// whose reload costs differ up to ~5x (12-57 ms): the plain median of
/// that mixture sits in the gap between two versions' costs and jumps
/// across it from run to run, while every pass holds each version once.
double PassMedian(const std::vector<double>& v, std::size_t pass) {
  if (v.size() < pass) return Median(v);
  std::vector<double> means;
  for (std::size_t i = 0; i + pass <= v.size(); i += pass) {
    double sum = 0.0;
    for (std::size_t j = i; j < i + pass; ++j) sum += v[j];
    means.push_back(sum / static_cast<double>(pass));
  }
  return Median(means);
}

/// The numeric field `key=` of a reply, or NaN.
double Field(const std::string& reply, const std::string& key) {
  const std::size_t at = reply.find(" " + key + "=");
  if (at == std::string::npos) return std::nan("");
  return std::strtod(reply.c_str() + at + key.size() + 2, nullptr);
}

/// One read lane's requests in one window: how many, and a uniform
/// sample of their latencies (reservoir, at most kSampleCap) — so the
/// generator's memory, and with it peak_rss_mb, does not grow with the
/// daemon's throughput.
struct Window {
  static constexpr std::size_t kSampleCap = 8192;
  std::uint64_t count = 0;
  std::vector<float> sample;

  void Add(double us, Pcg32* rng) {
    ++count;
    if (sample.size() < kSampleCap) {
      sample.push_back(static_cast<float>(us));
      return;
    }
    const std::uint32_t slot =
        rng->NextBounded(static_cast<std::uint32_t>(count));
    if (slot < kSampleCap) sample[slot] = static_cast<float>(us);
  }
};

struct LaneResult {
  /// Read lane: its requests per window since the load started.
  std::vector<Window> windows;
  Pcg32 rng{1};
  std::vector<double> pattern_us, drift_ms, reload_ms;
  std::vector<double> connect_us;
  std::uint64_t sent = 0;       // request lines delivered
  std::uint64_t attempted = 0;  // requests and connects
  std::uint64_t failed = 0;
  std::uint64_t connections = 0;
  std::uint64_t reloads = 0;
  std::string first_failure;
  /// Counts one operation; returns `good`.
  bool Tally(bool good) {
    ++attempted;
    failed += !good;
    return good;
  }
  void Note(const std::string& why) {
    if (first_failure.empty()) first_failure = why;
  }
};

/// Connects (timed); false on failure.
bool Connect(ServeClient* client, const std::string& endpoint,
             LaneResult* r) {
  const std::int64_t t0 = NowNs();
  std::string error;
  const bool ok = client->Connect(endpoint, kRequestTimeoutMs, &error);
  r->connect_us.push_back(Us(NowNs() - t0));
  ++r->connections;
  if (!r->Tally(ok)) r->Note("connect: " + error);
  return ok;
}

/// One request, timed; reconnects after a transport failure. Returns
/// the reply ("" on transport failure) and its latency.
std::string Send(ServeClient* client, const std::string& endpoint,
                 const std::string& line, LaneResult* r, double* us) {
  std::string reply, error;
  const std::int64_t t0 = NowNs();
  const bool ok = client->Request(line, kRequestTimeoutMs, &reply, &error);
  *us = Us(NowNs() - t0);
  if (client->last_request_delivered()) ++r->sent;
  if (!ok) {
    r->Note("transport: " + line + ": " + error);  // the caller tallies
    client->Close();
    Connect(client, endpoint, r);
    return "";
  }
  return reply;
}

}  // namespace

void RunServePhase(Run* run, const ServeSpec& spec) {
  Tracer& tr = run->tracer;
  Pcg32 rng(run->opt.seed * 2654435761u + 7);

  // ---- request lines, drawn by the seed from real templates --------
  std::vector<std::string> read_lines;
  std::vector<bool> read_is_estimate;
  std::vector<std::string> pattern_lines;
  {
    auto vocab_of = [&](const std::string& name, PersistedSummary* out) {
      std::string error;
      return run->Check(
          ReadSummaryFile(spec.dir + "/" + name + ".logr", out, &error),
          "read summary " + name + ": " + error);
    };
    for (std::size_t n = 0; n < spec.read_names.size(); ++n) {
      PersistedSummary s;
      if (!vocab_of(spec.read_names[n], &s)) return;
      for (std::size_t i = 0; i < kLinesPerName; ++i) {
        const bool estimate = i % 2 == 0;  // estimates and marginals alternate
        const std::string pred =
            DrawPredicate(*spec.template_logs[n], s.vocabulary,
                          estimate ? 2 + rng.NextBounded(2) : 1, &rng);
        if (pred.empty()) continue;
        read_lines.push_back(std::string(estimate ? "estimate " : "marginal ") +
                             spec.read_names[n] + " " + pred);
        read_is_estimate.push_back(estimate);
      }
    }
    PersistedSummary p;
    if (!vocab_of(spec.pattern_name, &p)) return;
    for (std::size_t i = 0; i < kPatternLines; ++i) {
      const std::string pred = DrawPredicate(
          *spec.template_logs.back(), p.vocabulary, 2 + rng.NextBounded(2),
          &rng);
      if (!pred.empty()) {
        pattern_lines.push_back("estimate " + spec.pattern_name + " " + pred);
      }
    }
  }
  const std::string drift_line = "drift " + spec.drift_a + " " + spec.drift_b;
  if (!run->Check(!read_lines.empty() && !pattern_lines.empty(),
                  "no request lines could be drawn")) {
    return;
  }

  // ---- expected replies, from the handler in-process (no socket) ---
  // The analyst republishes the pattern summary, cycling through its
  // versions (the workload's own first), so its replies are computed
  // for every version.
  const std::string pattern_path = spec.dir + "/" + spec.pattern_name + ".logr";
  std::vector<PersistedSummary> versions(1 + spec.alt_pattern_paths.size());
  {
    std::string error;
    bool ok = ReadSummaryFile(pattern_path, &versions[0], &error);
    for (std::size_t v = 1; ok && v < versions.size(); ++v) {
      ok = ReadSummaryFile(spec.alt_pattern_paths[v - 1], &versions[v], &error);
    }
    if (!run->Check(ok, "read pattern versions: " + error)) return;
  }
  const std::string original = ReadFile(pattern_path);
  SummaryRegistry local(spec.dir);
  ProtocolHandler handler(&local);
  local.Rescan();
  std::vector<std::string> read_expect(read_lines.size());
  const int read_passes = tr.enabled() ? 4 : 1;
  for (int pass = 0; pass < read_passes; ++pass) {
    for (std::size_t i = 0; i < read_lines.size(); ++i) {
      Scope s(&tr, read_is_estimate[i] ? "serve.handle_estimate"
                                       : "serve.handle_marginal");
      read_expect[i] = handler.HandleRequestLine(read_lines[i]);
    }
  }
  // Served estimates must equal EstimateCount on the same summary.
  for (std::size_t i = 0; i < read_lines.size(); ++i) {
    if (!run->Check(read_expect[i].rfind("ok ", 0) == 0,
                    read_lines[i] + " -> " + read_expect[i])) {
      return;
    }
    if (!read_is_estimate[i]) continue;
    const std::string name = read_lines[i].substr(
        9, read_lines[i].find(' ', 9) - 9);
    const auto snapshot = local.Find(name);
    ParsedPredicate pred;
    std::string error;
    ParsePredicate(
        SplitPredicateList(read_lines[i].substr(10 + name.size())),
        snapshot->summary.vocabulary, &pred, &error);
    const double expect = snapshot->summary.model->EstimateCount(pred.features);
    run->Check(Field(read_expect[i], "count") == expect,
               "estimate differs from EstimateCount: " + read_lines[i]);
  }
  // Publish every version in turn and then the first again: each a
  // write, a reread, a reload of the registry, and the analyst's
  // requests in the new state.
  std::vector<std::vector<std::string>> pattern_expect(versions.size());
  std::string drift_expect;
  for (std::size_t cycle = 0; cycle <= versions.size(); ++cycle) {
    const std::size_t state = cycle % versions.size();
    if (cycle > 0) {
      std::string error;
      bool ok;
      {
        Scope s(&tr, "serve.write_summary");
        ok = WriteSummaryFile(pattern_path, versions[state].vocabulary,
                              *versions[state].model, &error);
      }
      run->Check(ok, "publish: " + error);
      {
        Scope s(&tr, "serve.read_summary");
        PersistedSummary reread;
        run->Check(ReadSummaryFile(pattern_path, &reread, &error),
                   "reread published summary: " + error);
      }
      SummaryRegistry::ScanResult r;
      {
        Scope s(&tr, "serve.rescan");
        r = local.Rescan();
      }
      run->Check(r.reloaded == 1 && r.failed == 0, "rescan after publish");
    }
    std::vector<std::string> replies;
    for (const std::string& line : pattern_lines) {
      Scope s(&tr, "serve.handle_pattern_estimate");
      replies.push_back(handler.HandleRequestLine(line));
      run->Check(replies.back().rfind("ok ", 0) == 0,
                 line + " -> " + replies.back());
    }
    std::string drift;
    {
      Scope s(&tr, "serve.handle_drift");
      drift = handler.HandleRequestLine(drift_line);
    }
    if (cycle == 0) {
      drift_expect = drift;
      run->Check(drift.rfind("ok ", 0) == 0, drift_line + " -> " + drift);
    }
    // A republished summary answers exactly as before.
    run->Check(drift == drift_expect, "drift changed across reloads");
    if (cycle < versions.size()) {
      pattern_expect[state] = replies;
    } else {
      run->Check(replies == pattern_expect[state],
                 "replies changed across publish/reload cycles");
    }
  }
  // The cycles end with the first version published again.
  run->Check(ReadFile(pattern_path) == original,
             "republished pattern summary is not byte-identical");

  // ---- daemon ------------------------------------------------------
  ServeOptions sopts;
  sopts.listen = "unix:" + run->Path("serve.sock");
  sopts.rescan_interval_ms = 0;  // reloads only through the protocol
  sopts.max_connections = 16;
  std::unique_ptr<SummaryRegistry> registry;
  std::unique_ptr<ServeDaemon> daemon;
  std::vector<double> start_s;
  const int starts = spec.start_is_setup ? kStartReps : 1;
  for (int i = 0; i < starts; ++i) {
    if (daemon) daemon->Stop();
    daemon.reset();
    registry = std::make_unique<SummaryRegistry>(spec.dir);
    daemon = std::make_unique<ServeDaemon>(registry.get());
    std::string error;
    const std::int64_t t0 = NowNs();
    const bool ok = daemon->Start(sopts, &error);
    start_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (!run->Check(ok, "daemon start: " + error)) return;
  }
  if (spec.start_is_setup) {
    run->EndToEnd("setup_s", Median(start_s), "s");
  } else {
    run->Detail("serve.start_ms", Median(start_s) * 1e3, "ms");
  }
  const std::string endpoint = daemon->endpoint();

  // ---- closed-loop load --------------------------------------------
  constexpr int kReadLanes = 3;
  std::atomic<bool> stop{false};
  const std::int64_t load_start = NowNs();
  std::vector<LaneResult> lanes(kReadLanes + 1);
  std::vector<std::thread> threads;
  for (int lane = 0; lane < kReadLanes; ++lane) {
    threads.emplace_back([&, lane] {
      LaneResult& r = lanes[static_cast<std::size_t>(lane)];
      ServeClient client;
      std::uint64_t session = 0;
      std::size_t i = static_cast<std::size_t>(lane) * read_lines.size() /
                      kReadLanes;
      while (!stop.load(std::memory_order_relaxed)) {
        if (!client.connected() || session == kSessionRequests) {
          client.Close();
          if (!Connect(&client, endpoint, &r)) return;
          session = 0;
        }
        ++session;
        i = (i + 1) % read_lines.size();
        const std::size_t w =
            static_cast<std::size_t>((NowNs() - load_start) / kWindowNs);
        if (w >= r.windows.size()) r.windows.resize(w + 1);
        double us = 0.0;
        const std::string reply =
            Send(&client, endpoint, read_lines[i], &r, &us);
        r.windows[w].Add(us, &r.rng);
        if (!r.Tally(reply == read_expect[i])) {
          r.Note(read_lines[i] + " -> " + reply);
        }
      }
    });
  }
  threads.emplace_back([&] {
    LaneResult& r = lanes[kReadLanes];
    ServeClient client;
    if (!Connect(&client, endpoint, &r)) return;
    std::size_t state = 0;
    std::size_t j = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      double us = 0.0;
      const std::string reply =
          Send(&client, endpoint, pattern_lines[j], &r, &us);
      r.pattern_us.push_back(us);
      if (!r.Tally(reply == pattern_expect[state][j])) {
        r.Note(pattern_lines[j] + " -> " + reply);
      }
      j = (j + 1) % pattern_lines.size();
      const std::string drift = Send(&client, endpoint, drift_line, &r, &us);
      r.drift_ms.push_back(us / 1e3);
      if (!r.Tally(drift == drift_expect)) {
        r.Note(drift_line + " -> " + drift);
      }
      // Publish the next version, then make the daemon reload it.
      state = (state + 1) % versions.size();
      const std::int64_t t0 = NowNs();
      std::string error;
      const bool written =
          WriteSummaryFile(pattern_path, versions[state].vocabulary,
                           *versions[state].model, &error);
      const std::string reload = Send(&client, endpoint, "reload", &r, &us);
      r.reload_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
      ++r.reloads;
      const bool good =
          written && reload == "ok loaded=0 reloaded=1 removed=0 failed=0";
      if (!r.Tally(good)) r.Note("publish+reload: " + reload + " " + error);
    }
  });
  std::this_thread::sleep_for(std::chrono::duration<double>(spec.seconds));
  stop.store(true);
  for (std::thread& t : threads) t.join();
  const double load_s = static_cast<double>(NowNs() - load_start) / 1e9;

  // ---- reconcile the daemon's stats with what was sent -------------
  std::uint64_t sent = 0, connections = 0, reloads = 0, lane_ops = 0,
                lane_failed = 0;
  std::vector<double> pattern_us, drift_ms, reload_ms, connect_us;
  for (const LaneResult& r : lanes) {
    sent += r.sent;
    lane_ops += r.attempted;
    lane_failed += r.failed;
    connections += r.connections;
    reloads += r.reloads;
    connect_us.insert(connect_us.end(), r.connect_us.begin(),
                      r.connect_us.end());
    pattern_us.insert(pattern_us.end(), r.pattern_us.begin(),
                      r.pattern_us.end());
    drift_ms.insert(drift_ms.end(), r.drift_ms.begin(), r.drift_ms.end());
    reload_ms.insert(reload_ms.end(), r.reload_ms.begin(), r.reload_ms.end());
    // Every request and connect is one attempted operation; a
    // mismatch, an err reply or a transport failure is a failed one.
    run->attempted += r.attempted;
    run->failed += r.failed;
    if (!r.first_failure.empty()) {
      run->failures.push_back("serve: " + r.first_failure);
    }
  }
  // Complete windows only: per window p50, p90, p99 and replies per
  // second.
  std::vector<double> p50s, p90s, p99s, qps;
  std::size_t read_requests = 0;
  const std::size_t num_windows = static_cast<std::size_t>(
      load_s * 1e9 / static_cast<double>(kWindowNs));
  for (std::size_t w = 0; w < num_windows; ++w) {
    std::vector<double> sample;
    std::uint64_t count = 0;
    for (int lane = 0; lane < kReadLanes; ++lane) {
      const auto& l = lanes[static_cast<std::size_t>(lane)].windows;
      if (w >= l.size()) continue;
      count += l[w].count;
      sample.insert(sample.end(), l[w].sample.begin(), l[w].sample.end());
    }
    read_requests += count;
    p50s.push_back(Median(sample));
    p90s.push_back(Quantile(sample, 0.9));
    p99s.push_back(Quantile(sample, 0.99));
    qps.push_back(static_cast<double>(count) * 1e9 /
                  static_cast<double>(kWindowNs));
  }
  std::string stats;
  {
    ServeClient client;
    std::string error;
    run->Check(client.Connect(endpoint, kRequestTimeoutMs, &error) &&
                   client.Request("stats", kRequestTimeoutMs, &stats, &error),
               "stats request: " + error);
  }
  daemon->Stop();
  const double accepted = Field(stats, "accepted");
  const double requests = Field(stats, "requests");
  const double shed = Field(stats, "shed");
  const double timed_out = Field(stats, "timed_out");
  const double rescans = Field(stats, "rescans");
  run->Check(accepted == static_cast<double>(connections + 1) &&
                 requests == static_cast<double>(sent + 1) && shed == 0 &&
                 timed_out == 0 &&
                 rescans == static_cast<double>(1 + reloads),
             "stats do not reconcile with the traffic sent: " + stats);

  const double estimate_p50 = Median(p50s);
  run->EndToEnd("estimate_p50_us", estimate_p50, "us");
  // The tail that is gated is p90. p99 rides on vCPU wake-ups on a
  // shared host: over ten seeds its run medians spread 0.30 between
  // quartiles (p90: under 0.07), so it is only on the detail line.
  run->EndToEnd("estimate_p90_us", Median(p90s), "us");
  run->Detail("estimate_p99_us", Median(p99s), "us");
  // Read throughput is on the detail line only. With a fixed 3 closed-
  // loop lanes it is 3 / mean round trip, so it adds nothing to the
  // latency figures but the host: over ten seeds its run medians
  // spread 0.17-0.19, and runs that met 5-10% steal time read 123-141k
  // against 150-194k for the others.
  run->Detail("read_qps", Median(qps), "1/s");
  run->EndToEnd("pattern_estimate_p50_us",
                PassMedian(pattern_us, versions.size()), "us");
  run->EndToEnd("drift_p50_ms", Median(drift_ms), "ms");
  run->EndToEnd("reload_p50_ms", PassMedian(reload_ms, versions.size()),
                "ms");
  run->Detail("samples.read_requests", static_cast<double>(read_requests),
              "count");
  run->Detail("samples.read_windows", static_cast<double>(num_windows),
              "count");
  run->Detail("samples.pattern_estimates",
              static_cast<double>(pattern_us.size()), "count");
  run->Detail("samples.drift", static_cast<double>(drift_ms.size()), "count");
  run->Detail("samples.reload", static_cast<double>(reload_ms.size()),
              "count");
  run->Detail("serve.load_s", load_s, "s");

  if (tr.enabled()) {
    const std::vector<double> handle = tr.DurationsUs("serve.handle_estimate");
    run->Layer("serve.handle_estimate_p50_us", Median(handle), "us");
    run->Layer("serve.handle_estimate_p99_us", Quantile(handle, 0.99), "us");
    run->Layer("serve.transport_us", estimate_p50 - Median(handle), "us");
    run->Layer("serve.handle_pattern_estimate_us",
               Median(tr.DurationsUs("serve.handle_pattern_estimate")), "us");
    run->Layer("serve.handle_drift_ms",
               Median(tr.DurationsUs("serve.handle_drift")) / 1e3, "ms");
    run->Layer("serve.write_summary_ms",
               Median(tr.DurationsUs("serve.write_summary")) / 1e3, "ms");
    run->Layer("serve.read_summary_ms",
               Median(tr.DurationsUs("serve.read_summary")) / 1e3, "ms");
    run->Layer("serve.rescan_ms",
               Median(tr.DurationsUs("serve.rescan")) / 1e3, "ms");
    run->Detail("samples.handle_estimate", static_cast<double>(handle.size()),
                "count");
  }
  run->Layer("serve.connect_us", Median(connect_us), "us");
  run->Layer("serve.accepted", accepted, "count");
  run->Layer("serve.requests", requests, "count");
  run->Layer("serve.shed", shed, "count");
  run->Layer("serve.timed_out", timed_out, "count");
  run->Layer("serve.rescans", rescans, "count");
  run->Layer("serve.ok_frac",
             lane_ops == 0 ? 0.0
                           : 1.0 - static_cast<double>(lane_failed) /
                                       static_cast<double>(lane_ops),
             "ratio");
}

}  // namespace logrbench
