// Span recording for the traced run.
//
// Spans are recorded by the benchmark around its own calls into each
// layer's public functions (the program itself is not instrumented).
// A span has a name, a start, an end and the span that caused it; spans
// stay in memory and are aggregated when the run ends. With tracing off
// every call is a no-op, so the untraced run measures the program alone.
#ifndef LOGRBENCH_TRACE_H_
#define LOGRBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace logrbench {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;  // index of the enclosing span, -1 for a root
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// Opens a span under the innermost open one; returns its index (-1
  /// when tracing is off). Single-threaded: only the main thread
  /// records spans.
  int Begin(const char* name);
  void End(int index);

  /// Position in the span list; pass it as `from` to aggregate only
  /// the spans recorded since (one phase of a workload).
  std::size_t Mark() const { return spans_.size(); }

  /// Σ duration (ms) of every span called `name`.
  double TotalMs(const std::string& name, std::size_t from = 0) const;
  /// Max duration (ms) of any span called `name`.
  double MaxMs(const std::string& name, std::size_t from = 0) const;
  /// Durations (µs) of every span called `name`, in record order.
  std::vector<double> DurationsUs(const std::string& name,
                                  std::size_t from = 0) const;

  /// Checks span nesting: every span's self time (duration minus the
  /// part its children cover) is non-negative and no larger than the
  /// span itself, and every child lies inside its parent. Returns the
  /// number of violations and the first one in `why`.
  std::size_t CheckSelfTimes(std::string* why) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer* t, const char* name) : t_(t), index_(t->Begin(name)) {}
  ~Scope() { t_->End(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* t_;
  int index_;
};

// ---------------------------------------------------------- statistics

/// Linear-interpolated quantile (q in [0, 1]) of `v`; 0 for empty input.
double Quantile(std::vector<double> v, double q);
inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }


}  // namespace logrbench

#endif  // LOGRBENCH_TRACE_H_
