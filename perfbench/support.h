#ifndef PERFBENCH_SUPPORT_H_
#define PERFBENCH_SUPPORT_H_

// Shared helpers of the end-to-end benchmark: clocks and order statistics,
// a canonical form for rendered EXCESS values (so answers can be compared
// independently of multiset order), and an in-memory span tracer.

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double UsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Linear-interpolated quantile q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) {
  return Quantile(std::move(v), 0.5);
}

/// Process CPU time (user + system) in milliseconds, and peak resident
/// set size in MiB.
double ProcessCpuMs();
double PeakRssMb();

/// Canonical form of a value as Value::ToString renders it: multiset
/// elements are canonicalized, merged and sorted, tuple fields are sorted
/// by name, arrays keep their order. Two renderings of equal values have
/// equal canonical forms whatever order the plan produced the elements
/// in. nullopt when the text is not a rendered value.
std::optional<std::string> Canonical(std::string_view rendered);

/// Shortest decimal text that reads back as `v` (JSON number).
std::string JsonNumber(double v);
std::string JsonString(std::string_view s);

/// One traced interval: a layer call made by the benchmark.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  uint64_t stmt = 0;    // statement the span belongs to (0 = none)
};

/// Per-thread span recorder. Spans stay in memory until the run ends.
/// A disabled tracer records nothing and costs one branch per call.
class Tracer {
 public:
  Tracer(bool enabled, uint32_t tag) : enabled_(enabled), tag_(tag) {}
  /// Starts a span; returns its id (0 when disabled).
  uint64_t Open(const char* name, uint64_t parent, uint64_t stmt);
  void Close(uint64_t id);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  uint64_t tag_;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* t, const char* name, uint64_t parent = 0,
             uint64_t stmt = 0)
      : t_(t), id_(t->Open(name, parent, stmt)) {}
  ~ScopedSpan() { t_->Close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint64_t id() const { return id_; }

 private:
  Tracer* t_;
  uint64_t id_;
};

/// Per span name: number of spans and summed self time (duration minus
/// the part covered by child spans), in microseconds.
struct SelfTime {
  int64_t count = 0;
  double self_us = 0;
};
std::map<std::string, SelfTime> SelfTimes(const std::vector<Span>& spans);

/// Writes the spans as JSON lines to `path`; false on I/O failure.
bool WriteSpans(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_SUPPORT_H_
