// The workloads of the end-to-end benchmark and the helpers they share:
// reference verdicts, witness replay and the per-layer probe of the traced
// run.

#ifndef E2EBENCH_BENCH_H_
#define E2EBENCH_BENCH_H_

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/label.h"
#include "contain/containment.h"
#include "engine/engine.h"
#include "inputs.h"
#include "pattern/tpq.h"
#include "tree/tree.h"
#include "util.h"

namespace e2e {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  int32_t seconds = 10;
  bool trace = false;
  /// Directory holding `tpc_serve` (the build directory).
  std::string bin_dir;
  /// Scratch directory for sockets, snapshots and spans (inside the
  /// checkout; relative, so socket paths stay short).
  std::string work_dir;
};

/// Runs one workload.  `tracer` is null on untraced runs; on traced runs
/// the workload records spans into it and adds the per-layer metrics.
RunResult RunServeMixed(const Options& options, Tracer* tracer);
RunResult RunBatchCold(const Options& options, Tracer* tracer);
RunResult RunSchemaDtd(const Options& options, Tracer* tracer);

/// Parses wire text; a generator bug (unparseable input) aborts the run.
tpc::Tpq ParseOrDie(const std::string& text, tpc::LabelPool* pool);

/// The plain dispatcher's answer: `tpc::Contains` with no service, cache,
/// prefilter, lattice or grouping, on an unlimited one-thread context.
struct Reference {
  bool contained = false;
  tpc::ContainmentAlgorithm route = tpc::ContainmentAlgorithm::kHomomorphism;
};
Reference ReferenceVerdict(const tpc::Tpq& p, const tpc::Tpq& q,
                           tpc::Mode mode, tpc::LabelPool* pool);

bool Matches(const tpc::Tpq& q, const tpc::Tree& t, tpc::Mode mode);

/// A refutation's counterexample must be in L(p) and not in L(q).
bool WitnessRefutes(const tpc::Tpq& p, const tpc::Tpq& q, tpc::Mode mode,
                    const tpc::Tree& t);

/// Key of a query in reference maps.
std::string QueryKey(const std::string& p, const std::string& q,
                     tpc::Mode mode);

using RefMap = std::unordered_map<std::string, Reference>;

/// One answered request.  `query` must outlive verification.
struct Answer {
  const Query* query = nullptr;
  bool light = false;
  int64_t due_ns = 0;  // light requests: the scheduled time
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  bool decided = false;
  bool contained = false;
  std::string witness;  // counterexample tree text, if any
};

/// Checks every answer against the plain dispatcher (from `refs` when the
/// query is there) and replays every counterexample, on all cores, outside
/// any measured phase.  Adds the counts and any mismatch to `res`; returns
/// which answers were decided and correct.
std::vector<bool> Verify(const std::vector<Answer>& answers, const RefMap& refs,
                         tpc::LabelPool* pool, const std::string& workload,
                         RunResult* res);

/// Reads one counter of an `EngineStats` block.
inline int64_t Get(const std::atomic<int64_t>& c) {
  return c.load(std::memory_order_relaxed);
}

/// Service-tier and engine counters of one context: its `EngineStats`
/// counters the benchmark reports and its budget's steps.
enum Counter {
  kCacheHits, kStitch, kBorrow, kAccepts, kRefutes, kDeduped, kEvictions,
  kGroups, kMembers, kRetired, kExecHits, kEmbeddings, kCompiled, kSteps,
  kNumCounters
};
struct Counters {
  std::array<int64_t, kNumCounters> n{};
  int64_t bytes_peak = 0;  // the budget's peak, a maximum rather than a sum

  static Counters Of(const tpc::EngineContext& ctx);
  /// Counts since `before`; the peak is this reading's.
  Counters Since(const Counters& before) const;
  /// Requests a fast tier (cache, lattice, prefilter, dedup) answered.
  int64_t FastTier() const;
};

/// The traced run's service accounting, shared by the workloads that go
/// through `QueryService`: counter deltas summed over requests, emitted as
/// the service, group, compile and engine layer metrics.
class ServiceAccount {
 public:
  /// `requests` requests (0 for counts outside any request) moved the
  /// counters by `delta`.  A single request that a fast tier answered adds
  /// its time `ns` to service.fast_tier_us.
  void Add(const Counters& delta, int64_t requests, int64_t ns);
  void Emit(RunResult* out) const;

 private:
  Counters sum_;
  int64_t requests_ = 0;
  int64_t fast_ns_ = 0, fast_n_ = 0;
};

/// The per-layer probe of the traced run: calls each layer's public
/// functions on a distinct pair, under a span per call, and accumulates the
/// layer metrics the service-facing workloads share (pattern, contain,
/// compile, match, engine).
class LayerProbe {
 public:
  LayerProbe(tpc::LabelPool* pool, Tracer* tracer);
  void Probe(const std::string& p_text, const std::string& q_text,
             tpc::Mode mode, int64_t request);
  void Emit(RunResult* result) const;

 private:
  tpc::LabelPool* pool_;
  Tracer* tracer_;
  tpc::LabelId bottom_;
  int64_t parses_ = 0, parse_ns_ = 0;
  int64_t minimized_ = 0, minimize_ns_ = 0;
  int64_t digests_ = 0, digest_ns_ = 0;
  int64_t decisions_ = 0;
  int64_t routes_[tpc::kNumDispatchAlgorithms] = {};
  int64_t ptime_ = 0, ptime_ns_ = 0;
  int64_t sweeps_ = 0, sweep_ns_ = 0, sweep_trees_ = 0, sweep_rebuilds_ = 0;
  int64_t steps_ = 0, bytes_peak_ = 0;
  int64_t compiles_ = 0, compile_ns_ = 0;
  int64_t built_ = 0, build_ns_ = 0;
  int64_t evals_ = 0, eval_ns_ = 0, words_ = 0;
};

}  // namespace e2e

#endif  // E2EBENCH_BENCH_H_
