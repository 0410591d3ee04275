#include <algorithm>
#include <cstdlib>
#include <iostream>

#include "bench.h"
#include "compile/matcher_program.h"
#include "contain/minimize.h"
#include "match/embedding.h"
#include "pattern/canonical.h"
#include "pattern/tpq_hash.h"
#include "pattern/tpq_parser.h"
#include "tree/tree_parser.h"

namespace e2e {

using tpc::ContainmentAlgorithm;
using tpc::EngineContext;
using tpc::Mode;
using tpc::Tpq;

namespace {

// Route names as the benchmark reports them, indexed like
// `tpc::ContainmentAlgorithm`.
const char* const kRouteNames[tpc::kNumDispatchAlgorithms] = {
    "homomorphism", "minimal_canonical", "single_canonical",
    "path_in_tpq",  "childfree_in_tpq",  "canonical_enumeration",
};

}  // namespace

Tpq ParseOrDie(const std::string& text, tpc::LabelPool* pool) {
  tpc::ParseDiagnostic diag;
  std::optional<Tpq> t = tpc::ParseTpqChecked(text, pool, &diag);
  if (!t) {
    std::cerr << "e2ebench: generated pattern does not parse: '" << text
              << "': " << diag.message << "\n";
    std::exit(2);
  }
  return std::move(*t);
}

Reference ReferenceVerdict(const Tpq& p, const Tpq& q, Mode mode,
                           tpc::LabelPool* pool) {
  EngineContext ctx;
  tpc::ContainmentResult r = tpc::Contains(p, q, mode, pool, &ctx);
  return {r.contained, r.algorithm};
}

bool Matches(const Tpq& q, const tpc::Tree& t, Mode mode) {
  return mode == Mode::kWeak ? tpc::MatchesWeak(q, t) : tpc::MatchesStrong(q, t);
}

bool WitnessRefutes(const Tpq& p, const Tpq& q, Mode mode, const tpc::Tree& t) {
  return Matches(p, t, mode) && !Matches(q, t, mode);
}

std::string QueryKey(const std::string& p, const std::string& q, Mode mode) {
  return p + (mode == Mode::kWeak ? "\tw\t" : "\ts\t") + q;
}

std::vector<bool> Verify(const std::vector<Answer>& answers, const RefMap& refs,
                         tpc::LabelPool* pool, const std::string& workload,
                         RunResult* res) {
  enum Check : int8_t { kOk, kUndecided, kWrongVerdict, kBadWitness };
  std::vector<int8_t> checks(answers.size());
  ParallelFor(answers.size(), 4, [&](size_t i) {
    const Answer& a = answers[i];
    const Query& q = *a.query;
    if (!a.decided) {
      checks[i] = kUndecided;
      return;
    }
    const Tpq p = ParseOrDie(q.p, pool);
    const Tpq qq = ParseOrDie(q.q, pool);
    auto it = refs.find(QueryKey(q.p, q.q, q.mode));
    const bool contained = it != refs.end()
                               ? it->second.contained
                               : ReferenceVerdict(p, qq, q.mode, pool).contained;
    if (contained != a.contained) {
      checks[i] = kWrongVerdict;
      return;
    }
    if (!a.contained && !a.witness.empty()) {
      tpc::ParseDiagnostic diag;
      std::optional<tpc::Tree> t = tpc::ParseTreeChecked(a.witness, pool, &diag);
      if (!t || !WitnessRefutes(p, qq, q.mode, *t)) {
        checks[i] = kBadWitness;
        return;
      }
    }
    checks[i] = kOk;
  });
  std::vector<bool> ok(answers.size());
  for (size_t i = 0; i < answers.size(); ++i) {
    const Query& q = *answers[i].query;
    ++res->attempted;
    switch (checks[i]) {
      case kUndecided:
        ++res->failed;
        continue;
      case kWrongVerdict:
        res->Wrong(workload + " verdict differs from the plain dispatcher on " +
                   QueryKey(q.p, q.q, q.mode));
        break;
      case kBadWitness:
        res->Wrong(workload + " counterexample does not refute " +
                   QueryKey(q.p, q.q, q.mode));
        break;
      default:
        ok[i] = true;
    }
    ++res->checked;
  }
  return ok;
}

Counters Counters::Of(const EngineContext& ctx) {
  const tpc::EngineStats& s = ctx.stats();
  Counters c;
  c.n = {Get(s.cache_hits),          Get(s.lattice_stitch_hits),
         Get(s.witness_borrow_refutes), Get(s.prefilter_accepts),
         Get(s.prefilter_refutes),   Get(s.batch_deduped),
         Get(s.cache_evictions),     Get(s.sweep_groups_formed),
         Get(s.sweep_group_members), Get(s.group_members_retired_early),
         Get(s.program_exec_hits),   Get(s.embeddings_attempted),
         Get(s.programs_compiled),   ctx.budget().steps_used()};
  c.bytes_peak = ctx.budget().bytes_peak();
  return c;
}

Counters Counters::Since(const Counters& before) const {
  Counters d = *this;
  for (int i = 0; i < kNumCounters; ++i) d.n[i] -= before.n[i];
  return d;
}

int64_t Counters::FastTier() const {
  return n[kCacheHits] + n[kStitch] + n[kBorrow] + n[kAccepts] + n[kRefutes] +
         n[kDeduped];
}

void ServiceAccount::Add(const Counters& delta, int64_t requests, int64_t ns) {
  for (int i = 0; i < kNumCounters; ++i) sum_.n[i] += delta.n[i];
  sum_.bytes_peak = std::max(sum_.bytes_peak, delta.bytes_peak);
  requests_ += requests;
  if (requests == 1 && delta.FastTier() > 0) {
    fast_ns_ += ns;
    ++fast_n_;
  }
}

void ServiceAccount::Emit(RunResult* out) const {
  const auto& c = sum_.n;
  const double n = static_cast<double>(requests_);
  out->Add("service.cache_hit_share", Ratio(c[kCacheHits], n), "share");
  out->Add("service.stitch_share", Ratio(c[kStitch], n), "share");
  out->Add("service.borrow_share", Ratio(c[kBorrow], n), "share");
  out->Add("service.prefilter_accept_share", Ratio(c[kAccepts], n), "share");
  out->Add("service.prefilter_refute_share", Ratio(c[kRefutes], n), "share");
  out->Add("service.dedup_share", Ratio(c[kDeduped], n), "share");
  out->Add("service.dispatch_share",
           std::max(0.0, 1.0 - Ratio(sum_.FastTier(), n)), "share");
  out->Add("service.fast_tier_us", Ratio(fast_ns_, fast_n_) / 1e3, "us");
  out->Add("service.evictions_per_kquery", Ratio(c[kEvictions] * 1000.0, n),
           "count");
  out->Add("contain.group_size", Ratio(c[kMembers], c[kGroups]), "count");
  out->Add("contain.retired_early_share", Ratio(c[kRetired], c[kMembers]),
           "share");
  out->Add("compile.exec_share", Ratio(c[kExecHits], c[kEmbeddings]), "share");
  out->Add("compile.programs_per_kquery", Ratio(c[kCompiled] * 1000.0, n),
           "count");
  out->Add("engine.steps_per_decision", Ratio(c[kSteps], n), "count");
  out->Add("engine.bytes_peak_kb", sum_.bytes_peak / 1024.0, "KiB");
}

LayerProbe::LayerProbe(tpc::LabelPool* pool, Tracer* tracer)
    : pool_(pool), tracer_(tracer), bottom_(pool->Fresh("e2e_bottom")) {}

void LayerProbe::Probe(const std::string& p_text, const std::string& q_text,
                       Mode mode, int64_t request) {
  ScopedSpan root(tracer_, "probe", request);
  Tpq p, q;
  {
    ScopedSpan s(tracer_, "pattern.parse", request);
    const int64_t t0 = NowNs();
    p = ParseOrDie(p_text, pool_);
    q = ParseOrDie(q_text, pool_);
    parse_ns_ += NowNs() - t0;
    parses_ += 2;
  }
  Tpq pm, qm;
  {
    ScopedSpan s(tracer_, "contain.minimize", request);
    EngineContext ctx;
    const int64_t t0 = NowNs();
    pm = tpc::MinimizeTpq(p, mode, pool_, &ctx);
    qm = tpc::MinimizeTpq(q, mode, pool_, &ctx);
    minimize_ns_ += NowNs() - t0;
    minimized_ += 2;
  }
  {
    // Repeated so a sub-microsecond call is timed well above clock jitter.
    constexpr int kReps = 16;
    ScopedSpan s(tracer_, "pattern.digest", request);
    uint64_t sink = 0;
    const int64_t t0 = NowNs();
    for (int i = 0; i < kReps; ++i) {
      sink ^= tpc::CanonicalTpqHash(pm) ^ tpc::CanonicalTpqDigest(pm).hi;
      sink ^= tpc::CanonicalTpqHash(qm) ^ tpc::CanonicalTpqDigest(qm).hi;
    }
    digest_ns_ += NowNs() - t0;
    digests_ += 2 * kReps;
    volatile uint64_t keep = sink;  // the hashes must not be optimized away
    (void)keep;
  }
  EngineContext ctx;
  int64_t decide_ns = 0;
  tpc::ContainmentResult r;
  {
    ScopedSpan s(tracer_, "contain.contains", request);
    const int64_t t0 = NowNs();
    r = tpc::Contains(pm, qm, mode, pool_, &ctx);
    decide_ns = NowNs() - t0;
  }
  const int route = static_cast<int>(r.algorithm);
  ++decisions_;
  ++routes_[route];
  steps_ += ctx.budget().steps_used();
  bytes_peak_ = std::max(bytes_peak_, ctx.budget().bytes_peak());
  const bool canonical = r.algorithm == ContainmentAlgorithm::kCanonicalEnumeration;
  if (canonical) {
    ++sweeps_;
    sweep_ns_ += decide_ns;
    sweep_trees_ += Get(ctx.stats().canonical_trees_enumerated);
    sweep_rebuilds_ += Get(ctx.stats().trees_rebuilt_from_spine);
  } else {
    ++ptime_;
    ptime_ns_ += decide_ns;
  }

  EngineContext compile_ctx;  // owns the program's byte charges
  std::shared_ptr<const tpc::MatcherProgram> program;
  if (tpc::MatcherProgram::Compilable(qm)) {
    ScopedSpan s(tracer_, "compile.compile", request);
    const int64_t t0 = NowNs();
    program = tpc::MatcherProgram::Compile(qm, &compile_ctx.budget());
    compile_ns_ += NowNs() - t0;
    ++compiles_;
  }
  if (!canonical) return;

  // The sweep's two inner layers on a sample of p's canonical models.
  constexpr int kSampleTrees = 64;
  tpc::CanonicalLengthEnumerator lengths(
      tpc::DescendantEdges(pm).size(),
      tpc::CanonicalBound(qm, tpc::ContainmentOptions::Bound::kSafe));
  std::vector<tpc::Tree> trees;
  {
    ScopedSpan s(tracer_, "pattern.canonical_build", request);
    tpc::Tree tree;
    for (int i = 0; i < kSampleTrees; ++i) {
      const int64_t t0 = NowNs();
      tpc::CanonicalTreeInto(pm, lengths.lengths(), bottom_, &tree);
      build_ns_ += NowNs() - t0;
      ++built_;
      trees.push_back(tree);
      if (!lengths.Next()) break;
    }
  }
  for (tpc::Tree& t : trees) t.View();  // postorder columns, outside timing
  ScopedSpan s(tracer_, "match.eval", request);
  tpc::EngineStats stats;
  tpc::ProgramExec exec;
  tpc::MatcherWorkspace workspace;
  for (const tpc::Tree& t : trees) {
    if (program != nullptr) exec.ChargeRun(t, &compile_ctx.budget());
    const int64_t t0 = NowNs();
    if (program != nullptr) {
      exec.Run(*program, t, &stats);
    } else {
      workspace.EvalFull(qm, t, &stats);
    }
    eval_ns_ += NowNs() - t0;
    ++evals_;
  }
  words_ += Get(stats.dp_words_folded);
}

void LayerProbe::Emit(RunResult* out) const {
  out->Add("pattern.parse_ns", Ratio(parse_ns_, parses_), "ns");
  out->Add("pattern.digest_ns", Ratio(digest_ns_, digests_), "ns");
  out->Add("pattern.canonical_build_ns_per_tree", Ratio(build_ns_, built_), "ns");
  out->Add("contain.minimize_us", Ratio(minimize_ns_, minimized_) / 1e3, "us");
  for (int i = 0; i < tpc::kNumDispatchAlgorithms; ++i) {
    out->Add(std::string("contain.route_share.") + kRouteNames[i],
             Ratio(routes_[i], decisions_), "share");
  }
  out->Add("contain.ptime_us", Ratio(ptime_ns_, ptime_) / 1e3, "us");
  out->Add("contain.sweep_us", Ratio(sweep_ns_, sweeps_) / 1e3, "us");
  out->Add("contain.trees_per_decision", Ratio(sweep_trees_, sweeps_), "count");
  out->Add("contain.rebuilds_per_decision", Ratio(sweep_rebuilds_, sweeps_), "count");
  out->Add("compile.compile_us", Ratio(compile_ns_, compiles_) / 1e3, "us");
  out->Add("match.eval_ns_per_tree", Ratio(eval_ns_, evals_), "ns");
  out->Add("match.words_per_tree", Ratio(words_, evals_), "count");
  out->Add("engine.steps_per_decision", Ratio(steps_, decisions_), "count");
  out->Add("engine.bytes_peak_kb", bytes_peak_ / 1024.0, "KiB");
  out->info.Int("probe.decisions", decisions_).Int("probe.sweeps", sweeps_);
}

}  // namespace e2e
