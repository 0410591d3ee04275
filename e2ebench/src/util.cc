#include "util.h"

#include <malloc.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

namespace e2e {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Zipf::Zipf(size_t n, double s) : cdf_(n) {
  double total = 0;
  for (size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[k] = total;
  }
  for (double& c : cdf_) c /= total;
}

size_t Zipf::Draw(Rng* rng) const {
  const double u = rng->Unit();
  const size_t k = static_cast<size_t>(
      std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  return std::min(k, cdf_.size() - 1);
}

namespace {

// Nearest rank: the smallest k with k/n >= pct/100, 1-based.
size_t NearestRank(size_t n, double pct) {
  const double exact = pct / 100.0 * static_cast<double>(n);
  size_t k = static_cast<size_t>(std::ceil(exact - 1e-9));
  return std::clamp<size_t>(k, 1, n);
}

}  // namespace

double Percentile(std::vector<double> samples, double pct) {
  if (samples.empty()) return 0;
  const size_t k = NearestRank(samples.size(), pct);
  std::nth_element(samples.begin(), samples.begin() + (k - 1), samples.end());
  return samples[k - 1];
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50);
}

double TailRung(size_t n, double max_pct) {
  double best = 0;
  for (double pct : {50.0, 90.0, 99.0}) {
    if (n == 0 || pct > max_pct) break;
    if (n - NearestRank(n, pct) >= 10) best = pct;
  }
  return best;
}

Tail TailOf(const std::vector<double>& samples, double max_pct) {
  Tail t;
  t.samples = samples.size();
  t.pct = TailRung(samples.size(), max_pct);
  t.value = t.pct > 0 ? Percentile(samples, t.pct)
            : samples.empty()
                ? 0
                : *std::max_element(samples.begin(), samples.end());
  return t;
}

Tail SlicedTail(const std::vector<double>& samples,
                const std::vector<int64_t>& at_ns, int64_t t0, int64_t t1,
                double max_pct) {
  Tail whole = TailOf(samples, max_pct);
  if (whole.pct == 0 || t1 <= t0 || at_ns.size() != samples.size()) return whole;
  size_t need = 1;  // the fewest samples that leave ten beyond the rung
  while (need - NearestRank(need, whole.pct) < 10) ++need;
  const int slices = static_cast<int>(std::clamp<size_t>(
      samples.size() / (2 * need), 1, kRateWindows));
  if (slices == 1) return whole;
  std::vector<std::vector<double>> by_slice(slices);
  for (size_t i = 0; i < samples.size(); ++i) {
    if (at_ns[i] < t0 || at_ns[i] >= t1) continue;
    const int w = static_cast<int>((at_ns[i] - t0) * static_cast<double>(slices) /
                                   static_cast<double>(t1 - t0));
    by_slice[std::min(w, slices - 1)].push_back(samples[i]);
  }
  std::vector<double> tails;
  for (std::vector<double>& s : by_slice) {
    if (s.size() < need) continue;
    tails.push_back(Percentile(std::move(s), whole.pct));
  }
  if (tails.empty()) return whole;
  whole.slices = static_cast<int>(tails.size());
  whole.value = Median(std::move(tails));
  return whole;
}

double MedianWindowRate(const std::vector<int64_t>& event_ns, int64_t t0,
                        int64_t t1, int max_windows) {
  if (t1 <= t0 || max_windows < 1) return 0;
  // Slices of fewer events than kMinWindowEvents would quantize the rate.
  const int windows = static_cast<int>(std::clamp<int64_t>(
      static_cast<int64_t>(event_ns.size()) / kMinWindowEvents, 1, max_windows));
  std::vector<double> counts(windows, 0);
  for (int64_t t : event_ns) {
    if (t < t0 || t >= t1) continue;
    const int w = static_cast<int>((t - t0) * static_cast<double>(windows) /
                                   static_cast<double>(t1 - t0));
    counts[std::min(w, windows - 1)] += 1;
  }
  const double window_s = (t1 - t0) / 1e9 / windows;
  for (double& c : counts) c /= window_s;
  return Median(std::move(counts));
}

int32_t Tracer::Begin(const char* name, int64_t request) {
  if (full()) return -1;
  Span s;
  s.name = name;
  s.start_ns = NowNs();
  s.parent = current();
  s.request = request;
  spans_.push_back(s);
  const int32_t id = static_cast<int32_t>(spans_.size() - 1);
  stack_.push_back(id);
  return id;
}

void Tracer::End(int32_t id) {
  if (id < 0) return;
  spans_[id].end_ns = NowNs();
  // Scoped spans close in LIFO order.
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

int32_t Tracer::Add(const Span& span) {
  if (full()) return -1;
  spans_.push_back(span);
  return static_cast<int32_t>(spans_.size() - 1);
}

namespace {

// Length of the union of [start, end) intervals clipped to [lo, hi).
int64_t CoveredLength(std::vector<std::pair<int64_t, int64_t>> iv, int64_t lo,
                      int64_t hi) {
  std::sort(iv.begin(), iv.end());
  int64_t covered = 0;
  int64_t run_start = 0, run_end = 0;
  bool open = false;
  for (auto [s, e] : iv) {
    s = std::max(s, lo);
    e = std::min(e, hi);
    if (e <= s) continue;
    if (open && s <= run_end) {
      run_end = std::max(run_end, e);
      continue;
    }
    if (open) covered += run_end - run_start;
    run_start = s;
    run_end = e;
    open = true;
  }
  if (open) covered += run_end - run_start;
  return covered;
}

}  // namespace

std::vector<int64_t> Tracer::SelfTimes() const {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    self[i] = (s.end_ns - s.start_ns) -
              CoveredLength(std::move(children[i]), s.start_ns, s.end_ns);
  }
  return self;
}

int64_t Tracer::Uncovered(int64_t t0, int64_t t1) const {
  std::vector<std::pair<int64_t, int64_t>> roots;
  for (const Span& s : spans_) {
    if (s.parent < 0) roots.emplace_back(s.start_ns, s.end_ns);
  }
  return (t1 - t0) - CoveredLength(std::move(roots), t0, t1);
}

std::vector<std::pair<std::string, int64_t>> Tracer::SelfTimeByName() const {
  std::vector<int64_t> self = SelfTimes();
  std::vector<std::pair<std::string, int64_t>> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    auto it = std::find_if(out.begin(), out.end(), [&](const auto& kv) {
      return kv.first == spans_[i].name;
    });
    if (it == out.end()) {
      out.emplace_back(spans_[i].name, self[i]);
    } else {
      it->second += self[i];
    }
  }
  return out;
}

bool Tracer::Write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "id\tparent\trequest\tname\tstart_ns\tend_ns\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << i << '\t' << s.parent << '\t' << s.request << '\t' << s.name
        << '\t' << (s.start_ns - t0) << '\t' << (s.end_ns - t0) << '\n';
  }
  return static_cast<bool>(out);
}

std::string FormatDouble(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  for (int prec = 1; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

std::string JsonQuote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out + "\"";
}

Json& Json::Num(const std::string& key, double value) {
  return Raw(key, FormatDouble(value));
}
Json& Json::Int(const std::string& key, int64_t value) {
  return Raw(key, std::to_string(value));
}
Json& Json::Str(const std::string& key, const std::string& value) {
  return Raw(key, JsonQuote(value));
}
Json& Json::Bool(const std::string& key, bool value) {
  return Raw(key, value ? "true" : "false");
}
Json& Json::Raw(const std::string& key, const std::string& json) {
  fields_.emplace_back(key, json);
  return *this;
}

std::string Json::Dump() const {
  std::string out = "{";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonQuote(fields_[i].first) + ": " + fields_[i].second;
  }
  return out + "}";
}

void RunResult::Wrong(const std::string& why) {
  if (correct) std::cerr << "e2ebench: WRONG: " << why << "\n";
  correct = false;
}

bool ResetPeakRss() {
  malloc_trim(0);
  std::ofstream out("/proc/self/clear_refs");
  out << "5";  // 5: reset the peak resident set size
  out.close();
  return out.good();
}

double PeakRssMb(pid_t pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

void ParallelFor(size_t n, int threads, const std::function<void(size_t)>& fn) {
  std::atomic<size_t> next{0};
  auto work = [&] {
    for (size_t i = next++; i < n; i = next++) fn(i);
  };
  std::vector<std::thread> pool;
  for (int t = 1; t < threads; ++t) pool.emplace_back(work);
  work();
  for (std::thread& t : pool) t.join();
}

}  // namespace e2e
