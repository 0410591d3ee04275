// schema_dtd: the schema-aware decisions, called in process one at a time.
// Seeded random DTDs and patterns plus fixed heavy cells — the trionimo
// tiling reduction at row length 2 (solvable and unsolvable, Thm 6.6) and
// the fixed-DTD 4-PARTITION cells behind Table 4's coNP entries — so all
// time goes to the schema, automata and dtd layers.  It bypasses serve,
// service, sweep and compile: the no-change control for their
// optimisations, and the only workload where the antichain engine shows.

#include <algorithm>
#include <cstring>
#include <iostream>

#include "bench.h"
#include "dtd/dtd.h"
#include "inputs.h"
#include "reductions/partition.h"
#include "schema/schema_engine.h"
#include "tiling/reduction.h"
#include "tiling/tiling.h"

namespace e2e {

namespace {

using tpc::Mode;
using tpc::SchemaDecision;

constexpr int kSetupRepeats = 31;
// Generous enough that every instance is decided (the heavy cells take
// 0.1-0.3 s); an undecided call counts as failed.
constexpr int64_t kDeadlineMs = 20000;
// One round of calls: U an unsolvable heavy cell (tiling and partition in
// turn, ~0.2 s each), S a solvable one (~0.13 s), E an engine call, P a
// path call.  A round takes ~1.1 s, so a 20 s run makes ~18 rounds, ~360
// calls: the tail rung is p90 (100 to 999 samples), and with the
// unsolvable cells a fifth of the calls it is the median of their
// cluster.  With them an eighth of the calls, p90 would fall in the gap
// between the unsolvable and solvable clusters and move twice as much
// between runs as either cluster's median.  ~200 path calls keep the light
// tail at p90 too.
constexpr char kRound[] = "UPEPSPUPPEUPPSPUPEPP";

struct Instance {
  SchemaCall call;
  const tpc::Dtd* dtd = nullptr;
  tpc::Tpq p, q;
  bool expect = false;  // reference answer
};

// Everything a run decides over, built in one label pool.
struct Cells {
  tpc::LabelPool pool;
  std::vector<tpc::Dtd> dtds;
  // Heavy cells: tiling and partition, solvable, then unsolvable.
  std::vector<Instance> heavy, engine, path;
  int64_t automaton_ns = 0;
};

tpc::TriominoSystem TilingSystem(bool solvable) {
  tpc::TriominoSystem s;
  s.num_tiles = 3;
  if (solvable) {
    for (tpc::Tile r = 0; r < 3; ++r) {
      s.constraints.push_back({0, r, 1});
      s.constraints.push_back({0, r, 2});
    }
  }
  return s;
}

tpc::FourPartitionInstance PartitionInstance(bool solvable) {
  tpc::FourPartitionInstance inst;
  inst.log_target = 2;
  inst.log_groups4 = 1;
  inst.numbers = solvable ? std::vector<int64_t>{2, 2, 2, 2, 0, 0, 0, 0}
                          : std::vector<int64_t>{3, 3, 2, 0, 0, 0, 0, 0};
  return inst;
}

Instance FromCall(const SchemaCall& c, const std::vector<tpc::Dtd>& dtds,
                  tpc::LabelPool* pool) {
  Instance inst;
  inst.call = c;
  inst.dtd = &dtds[c.dtd];
  if (!c.p.empty()) inst.p = ParseOrDie(c.p, pool);
  if (!c.q.empty()) inst.q = ParseOrDie(c.q, pool);
  return inst;
}

// Builds the cells (input generation: reductions, pattern parsing) around
// the timed set-up: parsing the DTDs and building their automata.
std::unique_ptr<Cells> BuildCells(const SchemaInputs& in, double* setup_s) {
  auto cells = std::make_unique<Cells>();
  tpc::LabelPool& pool = cells->pool;
  std::vector<tpc::TilingContainmentInstance> tilings;
  std::vector<tpc::PartitionSatInstance> partitions;
  for (bool solvable : {true, false}) {
    tilings.push_back(tpc::BuildTilingReduction(TilingSystem(solvable),
                                                {0, 0}, &pool));
    partitions.push_back(
        tpc::BuildPartitionReduction(PartitionInstance(solvable), &pool));
  }

  const int64_t t0 = NowNs();
  for (const std::string& text : in.dtds) {
    tpc::ParseDiagnostic diag;
    std::optional<tpc::Dtd> d = tpc::ParseDtdChecked(text, &pool, &diag);
    if (!d) {
      std::cerr << "e2ebench: generated DTD does not parse: " << diag.message
                << "\n";
      std::exit(2);
    }
    cells->dtds.push_back(std::move(*d));
  }
  for (auto& t : tilings) cells->dtds.push_back(std::move(t.dtd));
  for (auto& p : partitions) cells->dtds.push_back(std::move(p.dtd));
  for (const tpc::Dtd& d : cells->dtds) {
    const int64_t a0 = NowNs();
    d.Automaton();
    cells->automaton_ns += NowNs() - a0;
  }
  *setup_s = (NowNs() - t0) / 1e9;

  for (const SchemaCall& c : in.calls) {
    cells->engine.push_back(FromCall(c, cells->dtds, &pool));
  }
  for (const SchemaCall& c : in.path_calls) {
    cells->path.push_back(FromCall(c, cells->dtds, &pool));
  }
  // Heavy cells, each with an answer independent of the engine.
  const size_t base = in.dtds.size();
  for (int i = 0; i < 2; ++i) {
    const bool solvable = i == 0;
    Instance t;
    t.call.kind = SchemaCall::kContained;
    t.call.heavy = true;
    t.call.name = solvable ? "tiling_n2_solvable" : "tiling_n2_unsolvable";
    t.dtd = &cells->dtds[base + static_cast<size_t>(i)];
    t.p = tilings[i].p;
    t.q = tilings[i].q;
    // Contained iff the tiling instance has no solution (Thm 6.6).
    t.expect = !tpc::SolveLineTiling(TilingSystem(solvable), {0, 0}).has_value();
    cells->heavy.push_back(std::move(t));

    Instance p;
    p.call.kind = SchemaCall::kContained;
    p.call.mode = Mode::kStrong;
    p.call.heavy = true;
    p.call.name = solvable ? "partition_solvable" : "partition_unsolvable";
    p.dtd = &cells->dtds[base + 2 + static_cast<size_t>(i)];
    p.p = partitions[i].p;
    p.q = ParseOrDie("zzz", &pool);
    // An unsatisfiable right side: contained iff p is unsatisfiable, iff
    // the partition instance has no solution (Thm 4.2(2) / 6.3).
    p.expect = !tpc::SolveFourPartition(PartitionInstance(solvable));
    cells->heavy.push_back(std::move(p));
  }
  return cells;
}

SchemaDecision Decide(const Instance& in, tpc::EngineContext* ctx) {
  tpc::EngineLimits limits;
  limits.max_milliseconds = kDeadlineMs;
  switch (in.call.kind) {
    case SchemaCall::kSat:
      return tpc::SatisfiableWithDtd(in.p, in.call.mode, *in.dtd, ctx, limits);
    case SchemaCall::kValid:
      return tpc::ValidWithDtd(in.q, in.call.mode, *in.dtd, ctx, limits);
    case SchemaCall::kContained:
      return tpc::ContainedWithDtd(in.p, in.q, in.call.mode, *in.dtd, ctx, limits);
    case SchemaCall::kPathSat:
      return tpc::SatisfiablePathWithDtd(in.p, in.call.mode, *in.dtd, ctx);
  }
  return {};
}

// References for the random cells, before timing: path satisfiability is
// answered by both the automata route and the engine, each the other's
// reference; the other engine calls are referenced by the same call made
// beforehand (a determinism check), their witnesses replayed after each
// timed call.
void RandomReferences(Cells* cells) {
  for (Instance& in : cells->engine) {
    tpc::EngineContext ctx;
    if (in.call.kind == SchemaCall::kSat && tpc::IsPathQuery(in.p)) {
      in.expect =
          tpc::SatisfiablePathWithDtd(in.p, in.call.mode, *in.dtd, &ctx).yes;
    } else {
      in.expect = Decide(in, &ctx).yes;
    }
  }
  for (Instance& in : cells->path) {
    tpc::EngineContext ctx;
    tpc::EngineLimits limits;
    limits.max_milliseconds = kDeadlineMs;
    in.expect =
        tpc::SatisfiableWithDtd(in.p, in.call.mode, *in.dtd, &ctx, limits).yes;
  }
}

const char* SpanName(SchemaCall::Kind kind) {
  switch (kind) {
    case SchemaCall::kSat: return "schema.satisfiable";
    case SchemaCall::kValid: return "schema.valid";
    case SchemaCall::kContained: return "schema.contained";
    case SchemaCall::kPathSat: return "schema.satisfiable_path";
  }
  return "schema";
}

// The witness of a decision must show what the answer claims.
bool WitnessOk(const Instance& in, const SchemaDecision& d) {
  const Mode m = in.call.mode;
  const bool sat = in.call.kind == SchemaCall::kSat ||
                   in.call.kind == SchemaCall::kPathSat;
  if ((sat ? !d.yes : d.yes) || !d.witness) return true;
  const tpc::Tree& t = *d.witness;
  if (!in.dtd->Satisfies(t)) return false;
  switch (in.call.kind) {
    case SchemaCall::kSat:
    case SchemaCall::kPathSat:
      return Matches(in.p, t, m);
    case SchemaCall::kValid:
      return !Matches(in.q, t, m);
    case SchemaCall::kContained:
      return Matches(in.p, t, m) && !Matches(in.q, t, m);
  }
  return false;
}

}  // namespace

RunResult RunSchemaDtd(const Options& opt, Tracer* tracer) {
  RunResult res;
  const SchemaInputs inputs = MakeSchemaRandom(opt.seed);
  const bool rss_reset = ResetPeakRss();
  std::vector<double> setups;
  std::unique_ptr<Cells> cells;
  double automaton_us = 0;
  for (int i = 0; i < kSetupRepeats; ++i) {
    double s = 0;
    cells = BuildCells(inputs, &s);
    setups.push_back(s);
    automaton_us += Ratio(cells->automaton_ns, cells->dtds.size()) / 1e3;
  }
  automaton_us /= kSetupRepeats;
  RandomReferences(cells.get());

  // The call schedule, cycling the round; engine and path calls cycle
  // through the seed's pools.
  const int round_len = static_cast<int>(std::strlen(kRound));
  size_t next_solvable = 0, next_unsolvable = 0;
  size_t next_engine = 0, next_path = 0;
  auto next_call = [&](int64_t i) -> const Instance& {
    switch (kRound[i % round_len]) {
      case 'S': return cells->heavy[next_solvable++ % 2];
      case 'U': return cells->heavy[2 + next_unsolvable++ % 2];
      case 'E': return cells->engine[next_engine++ % cells->engine.size()];
      default: return cells->path[next_path++ % cells->path.size()];
    }
  };

  std::vector<double> all_us, light_us, heavy_ms;
  std::vector<int64_t> all_at, light_at;  // completion times of those
  int64_t decide_ns = 0, steps = 0, bytes_peak = 0;
  std::vector<int64_t> ok_ns;  // completion times of correct verdicts
  tpc::EngineContext ctx;
  const tpc::EngineStats& st = ctx.stats();
  const int64_t t_start = NowNs();
  const int64_t t_end = t_start + static_cast<int64_t>(opt.seconds) * 1000000000;
  int64_t calls = 0;
  for (; NowNs() < t_end; ++calls) {
    const Instance& in = next_call(calls);
    ctx.ResetBudget();
    SchemaDecision d;
    int64_t ns = 0, done = 0;
    {
      ScopedSpan span(tracer, SpanName(in.call.kind), calls);
      const int64_t t0 = NowNs();
      d = Decide(in, &ctx);
      done = NowNs();
      ns = done - t0;
    }
    decide_ns += ns;
    steps += ctx.budget().steps_used();
    bytes_peak = std::max(bytes_peak, ctx.budget().bytes_peak());
    all_us.push_back(ns / 1e3);
    all_at.push_back(done);
    if (in.call.kind == SchemaCall::kPathSat) {
      light_us.push_back(ns / 1e3);
      light_at.push_back(done);
    }
    if (in.call.heavy) heavy_ms.push_back(ns / 1e6);
    ++res.attempted;
    if (!d.decided) {
      ++res.failed;
      continue;
    }
    ++res.checked;
    const std::string what =
        in.call.heavy ? in.call.name
                      : std::string(SpanName(in.call.kind)) + " on DTD " +
                            std::to_string(in.call.dtd) + " p=" + in.call.p +
                            " q=" + in.call.q;
    if (d.yes != in.expect) {
      res.Wrong("schema_dtd answer differs from its reference: " + what);
    } else if (!WitnessOk(in, d)) {
      res.Wrong("schema_dtd witness does not show the answer: " + what);
    } else {
      ok_ns.push_back(NowNs());
    }
  }
  const int64_t t_stop = NowNs();
  const double measured_s = (t_stop - t_start) / 1e9;

  res.Add("verdicts_per_s", MedianWindowRate(ok_ns, t_start, t_stop), "1/s");
  const Tail tail = SlicedTail(all_us, all_at, t_start, t_stop);
  const Tail light_tail = SlicedTail(light_us, light_at, t_start, t_stop);
  res.Add("latency_p50_us", Median(all_us), "us");
  res.Add("latency_tail_us", tail.value, "us");
  res.Add("light_p50_us", Median(light_us), "us");
  res.Add("light_tail_us", light_tail.value, "us");
  res.Add("setup_s", Median(setups), "s");
  res.Add("peak_rss_mb", PeakRssMb(0), "MB");
  res.info
      .Str("loop", std::string("closed: one decision call at a time; round ") +
                       kRound +
                       " (U unsolvable and S solvable heavy cell, E engine "
                       "call, P path call)")
      .Int("dtds", static_cast<int64_t>(cells->dtds.size()))
      .Int("engine_cells", static_cast<int64_t>(cells->engine.size()))
      .Int("path_cells", static_cast<int64_t>(cells->path.size()))
      .Num("latency_tail_pct", tail.pct)
      .Int("latency_samples", static_cast<int64_t>(tail.samples))
      .Num("light_tail_pct", light_tail.pct)
      .Int("light_samples", static_cast<int64_t>(light_tail.samples))
      .Int("latency_tail_slices", tail.slices)
      .Int("light_tail_slices", light_tail.slices)
      .Num("heavy_cell_p50_ms", Median(heavy_ms))
      .Str("peak_rss_from", rss_reset ? "set-up" : "process start")
      .Num("measured_s", measured_s);

  if (tracer != nullptr) {
    const double n = static_cast<double>(calls);
    const double configs = Get(st.schema_configurations);
    const double subsumed = Get(st.configs_subsumed);
    res.Add("schema.decide_ms", Ratio(decide_ns, n) / 1e6, "ms");
    res.Add("schema.configs_per_decision", Ratio(configs, n), "count");
    res.Add("schema.horizontal_nodes_per_decision",
            Ratio(Get(st.horizontal_nodes), n), "count");
    res.Add("schema.subsumed_share", Ratio(subsumed, configs + subsumed), "share");
    res.Add("automata.unions_memoized_per_decision",
            Ratio(Get(st.unions_memoized), n), "count");
    res.Add("automata.state_sets_per_decision",
            Ratio(Get(st.state_sets_interned), n), "count");
    res.Add("automata.det_states_per_decision",
            Ratio(Get(st.det_states_materialized), n), "count");
    res.Add("dtd.automaton_build_us", automaton_us, "us");
    res.Add("engine.steps_per_decision", Ratio(steps, n), "count");
    res.Add("engine.bytes_peak_kb", bytes_peak / 1024.0, "KiB");
    res.Add("trace.unattributed_share",
            Ratio(tracer->Uncovered(t_start, t_stop), t_stop - t_start), "share");
  }
  return res;
}

}  // namespace e2e
