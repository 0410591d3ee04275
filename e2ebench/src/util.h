// Plumbing shared by the end-to-end benchmark's workloads: a seeded RNG of
// the benchmark's own (so generated inputs never depend on the library's
// generators or on the standard library's distributions), sample
// statistics, the span recorder of the traced run, and metric reporting.

#ifndef E2EBENCH_UTIL_H_
#define E2EBENCH_UTIL_H_

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace e2e {

/// Monotonic nanoseconds.
int64_t NowNs();

/// CPU time consumed by the calling process, in nanoseconds.
int64_t ProcessCpuNs();

/// splitmix64: tiny, fully specified, identical on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, n); n > 0.
  uint64_t Below(uint64_t n) { return Next() % n; }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  bool Chance(double p) { return Unit() < p; }

 private:
  uint64_t state_;
};

/// Draws ranks 0..n-1 with P(k) proportional to 1 / (k+1)^s.
class Zipf {
 public:
  Zipf(size_t n, double s);
  size_t Draw(Rng* rng) const;

 private:
  std::vector<double> cdf_;
};

/// Nearest-rank percentile (pct in (0, 100]) of unsorted samples; 0 when
/// there are none.
double Percentile(std::vector<double> samples, double pct);

double Median(std::vector<double> samples);

/// a / b, or 0 when nothing was counted.
inline double Ratio(double a, double b) { return b > 0 ? a / b : 0; }

/// The highest rung of the ladder 50 / 90 / 99, and at most `max_pct`, that
/// leaves at least 10 samples strictly beyond it, or 0 when fewer than 20
/// samples exist.  A decade ladder keeps the chosen rung fixed while a
/// workload's sample count stays inside one decade; it stops at p99
/// because on a shared 4-vCPU machine a 10 s run's p99.9 measures host
/// hiccups, not the program.  A metric whose top percent is set by a
/// handful of rare events per run caps it lower (`max_pct`).
double TailRung(size_t n, double max_pct = 99);

struct Tail {
  double pct = 0;
  double value = 0;
  size_t samples = 0;
  /// Slices whose tails were combined (1: the whole run's tail).
  int slices = 1;
};
/// The tail of `samples` at `TailRung(samples.size(), max_pct)`; the
/// maximum when no rung qualifies.
Tail TailOf(const std::vector<double>& samples, double max_pct = 99);

/// The tail of timed samples (sample i completed at `at_ns[i]`): the
/// median, over up to kRateWindows equal slices of [t0, t1), of each
/// slice's percentile at the whole run's rung, so that a burst of host
/// load in a minority of the slices does not move it.  Slices hold on
/// average at least twice the samples the rung needs; a slice with fewer
/// than ten samples beyond the rung is left out.  The whole run's tail when
/// no slicing is possible.  `max_pct` caps the rung as in `TailRung`.
Tail SlicedTail(const std::vector<double>& samples,
                const std::vector<int64_t>& at_ns, int64_t t0, int64_t t1,
                double max_pct = 99);

/// Events per second in each of up to `max_windows` equal slices of
/// [t0, t1), and the median of those rates: a throughput that a noisy
/// neighbour's burst in a minority of the slices does not move.  A slice
/// holds at least kMinWindowEvents events on average (one slice: the plain
/// rate).  Events outside [t0, t1) are ignored.
inline constexpr int kRateWindows = 10;
inline constexpr int64_t kMinWindowEvents = 1000;
double MedianWindowRate(const std::vector<int64_t>& event_ns, int64_t t0,
                        int64_t t1, int max_windows = kRateWindows);

/// One traced interval.  `parent` indexes the tracer's span vector (-1 for
/// a root span); spans of one request share `request`.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  int64_t request = -1;
};

/// In-memory span store of the traced run.  Single-threaded: only the
/// benchmark's driving thread records.  Scoped spans nest through an
/// explicit stack; `Add` records intervals that overlap their siblings
/// (round trips in flight on a socket).  Recording stops at kMaxSpans
/// (Begin and Add return -1), which bounds memory and the spans file on
/// million-request runs.
class Tracer {
 public:
  static constexpr size_t kMaxSpans = 200000;

  int32_t Begin(const char* name, int64_t request);
  void End(int32_t id);
  int32_t Add(const Span& span);
  int32_t current() const { return stack_.empty() ? -1 : stack_.back(); }
  bool full() const { return spans_.size() >= kMaxSpans; }

  const std::vector<Span>& spans() const { return spans_; }

  /// Each span's duration minus the part of it its children cover (the
  /// union of the children's intervals clipped to the span).
  std::vector<int64_t> SelfTimes() const;

  /// Nanoseconds of [t0, t1] that no root span covers.
  int64_t Uncovered(int64_t t0, int64_t t1) const;

  /// Sum of self time per span name, in first-seen order.
  std::vector<std::pair<std::string, int64_t>> SelfTimeByName() const;

  /// Writes one tab-separated line per span: id, parent, request, name,
  /// start, end (ns relative to the first span).
  bool Write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> stack_;
};

/// RAII span; a null tracer records nothing, so untraced runs pay one
/// branch per call site.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int64_t request)
      : tracer_(tracer), id_(tracer ? tracer->Begin(name, request) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int32_t id_;
};

/// An ordered JSON object built by value.
class Json {
 public:
  Json& Num(const std::string& key, double value);
  Json& Int(const std::string& key, int64_t value);
  Json& Str(const std::string& key, const std::string& value);
  Json& Bool(const std::string& key, bool value);
  Json& Raw(const std::string& key, const std::string& json);
  std::string Dump() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

std::string JsonQuote(const std::string& s);
/// Shortest text that reads back as exactly `v`.
std::string FormatDouble(double v);

/// What one workload run produced.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  /// Verdicts compared against their reference (and witnesses replayed).
  int64_t checked = 0;
  std::vector<Metric> metrics;
  /// Context printed on the report line: tail rungs and sample counts,
  /// failed share, input sizes, loop shape.
  Json info;
  /// Why the run is invalid (an honest measurement was not possible); an
  /// invalid run prints no result.
  std::string invalid;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Marks the run wrong and says why on stderr.
  void Wrong(const std::string& why);
};

/// Peak resident set (VmHWM) of process `pid` (0 = self) in MiB; 0 if
/// unreadable.
double PeakRssMb(pid_t pid);

/// Returns this process's free heap to the system and resets its peak
/// resident set to the current one, so that `PeakRssMb(0)` measures from
/// here on rather than from the input generation and reference verdicts
/// before.  False when the kernel refuses the reset.
bool ResetPeakRss();

/// Calls fn(i) for i in [0, n) on up to `threads` threads (joined before
/// return).  For verification outside the measured phase only.
void ParallelFor(size_t n, int threads, const std::function<void(size_t)>& fn);

}  // namespace e2e

#endif  // E2EBENCH_UTIL_H_
