#include "trace.h"

#include <algorithm>

namespace logrbench {

int Tracer::Begin(const char* name) {
  if (!enabled_) return -1;
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{name, NowNs(), 0, parent});
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::End(int index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_ns = NowNs();
  // Spans close in LIFO order (Scope guarantees it).
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

double Tracer::TotalMs(const std::string& name, std::size_t from) const {
  double ms = 0.0;
  for (double us : DurationsUs(name, from)) ms += us / 1e3;
  return ms;
}

double Tracer::MaxMs(const std::string& name, std::size_t from) const {
  double ms = 0.0;
  for (double us : DurationsUs(name, from)) ms = std::max(ms, us / 1e3);
  return ms;
}

std::vector<double> Tracer::DurationsUs(const std::string& name,
                                        std::size_t from) const {
  std::vector<double> out;
  for (std::size_t i = from; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (name == s.name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    }
  }
  return out;
}

std::size_t Tracer::CheckSelfTimes(std::string* why) const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  std::size_t bad = 0;
  auto flag = [&](const std::string& msg) {
    if (bad++ == 0 && why != nullptr) *why = msg;
  };
  for (const Span& s : spans_) {
    if (s.end_ns < s.start_ns) flag(std::string(s.name) + " ends before start");
    if (s.parent < 0) continue;
    const Span& p = spans_[static_cast<std::size_t>(s.parent)];
    if (s.start_ns < p.start_ns || s.end_ns > p.end_ns) {
      flag(std::string(s.name) + " escapes parent " + p.name);
    }
    child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::int64_t dur = spans_[i].end_ns - spans_[i].start_ns;
    const std::int64_t self = dur - child_ns[i];
    if (self < 0 || self > dur) {
      flag(std::string(spans_[i].name) + " self time outside [0, duration]");
    }
  }
  return bad;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

}  // namespace logrbench
