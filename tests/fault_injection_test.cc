// The deterministic fault-injection matrix: every decision route is driven
// through forced exhaustion, injected allocation failure and cooperative
// cancellation at every early charge (plus seeded sample points deeper in),
// asserting the engine's failure contract:
//
//   * a faulted run either still decides — with the *correct* boolean — or
//     reports kResourceExhausted with the matching ExhaustionReason;
//   * no crash, no poisoned context: after `ResetBudget()` the same context
//     re-decides the same instance correctly (injected-fault counters are
//     monotone, so the fault does not re-fire);
//   * a deliberately delayed pool worker changes the schedule, never the
//     answer.
//
// Routes covered: canonical sweep (sequential, from-scratch, parallel),
// schema engine (antichain on/off), the Theorem 6.4 coNP route, graph
// matching and graph-DTD satisfaction.

#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <vector>

#include "base/label.h"
#include "contain/containment.h"
#include "dtd/dtd.h"
#include "engine/engine.h"
#include "graphdb/graph.h"
#include "graphdb/graph_dtd.h"
#include "graphdb/graph_match.h"
#include "pattern/tpq_parser.h"
#include "schema/nta_satisfiability.h"
#include "schema/schema_engine.h"

namespace tpc {
namespace {

struct RouteOutcome {
  bool decided = false;
  bool answer = false;
  ExhaustionReason reason = ExhaustionReason::kNone;
};

struct Route {
  const char* name;
  std::function<RouteOutcome(EngineContext*)> run;
};

RouteOutcome RunContain(EngineContext* ctx, const char* ps, const char* qs) {
  LabelPool pool;
  Tpq p = MustParseTpq(ps, &pool);
  Tpq q = MustParseTpq(qs, &pool);
  ContainmentOptions options;
  options.force_canonical = true;
  ContainmentResult r = Contains(p, q, Mode::kWeak, &pool, ctx, options);
  return {r.outcome == Outcome::kDecided, r.contained, r.reason};
}

RouteOutcome RunSchema(EngineContext* ctx, bool antichain) {
  LabelPool pool;
  Dtd d = MustParseDtd(
      "root: r; r -> a z; z -> z z | w | a; w -> w | b; b -> eps; "
      "a -> y1; y1 -> y2; y2 -> b;",
      &pool);
  Tpq q = MustParseTpq("r//a/*/*/b", &pool);
  SchemaEngineOptions options;
  options.antichain = antichain;
  SchemaDecision r =
      ValidWithDtd(q, Mode::kWeak, d, ctx, EngineLimits{}, options);
  return {r.decided, r.yes, r.reason};
}

RouteOutcome RunConpRoute(EngineContext* ctx) {
  LabelPool pool;
  Dtd d = MustParseDtd("root: a; a -> b c?; b -> eps; c -> eps;", &pool);
  Tpq p = MustParseTpq("a//c", &pool);
  Tpq q = MustParseTpq("a/b", &pool);
  SchemaDecision r = ContainedViaConpRoute(p, q, Mode::kWeak, d, &pool, ctx);
  return {r.decided, r.yes, r.reason};
}

Graph MakeCycleGraph(LabelPool* pool) {
  Graph g;
  NodeId n0 = g.AddNode(pool->Intern("a"));
  NodeId n1 = g.AddNode(pool->Intern("b"));
  NodeId n2 = g.AddNode(pool->Intern("c"));
  g.AddEdge(n0, n1);
  g.AddEdge(n1, n2);
  g.AddEdge(n2, n1);
  g.SetRoot(n0);
  return g;
}

RouteOutcome RunGraphMatch(EngineContext* ctx) {
  LabelPool pool;
  Graph g = MakeCycleGraph(&pool);
  Tpq q = MustParseTpq("a//c//b//c", &pool);
  GraphMatchResult r = MatchesWeakGraph(q, g, ctx);
  return {r.outcome == Outcome::kDecided, r.matched, r.reason};
}

RouteOutcome RunGraphDtd(EngineContext* ctx) {
  LabelPool pool;
  Graph g = MakeCycleGraph(&pool);
  Dtd d = MustParseDtd("root: a; a -> b; b -> c; c -> b;", &pool);
  GraphMatchResult r = GraphSatisfiesDtdNodesOnly(g, d, ctx);
  return {r.outcome == Outcome::kDecided, r.matched, r.reason};
}

std::vector<Route> AllRoutes() {
  return {
      {"sweep-refuted",
       [](EngineContext* ctx) {
         return RunContain(ctx, "a//b//c", "a//c//b");
       }},
      {"sweep-contained",
       [](EngineContext* ctx) {
         return RunContain(ctx, "a//b//c", "a//*//c");
       }},
      {"schema-antichain",
       [](EngineContext* ctx) { return RunSchema(ctx, /*antichain=*/true); }},
      {"schema-full",
       [](EngineContext* ctx) { return RunSchema(ctx, /*antichain=*/false); }},
      {"conp-route", RunConpRoute},
      {"graph-match", RunGraphMatch},
      {"graph-dtd", RunGraphDtd},
  };
}

struct Probe {
  int64_t charges = 0;
  int64_t allocs = 0;
  bool answer = false;
};

/// Runs the route once under a never-firing (but counting) plan to learn
/// its total charge/alloc volume and its ground-truth answer.
Probe ProbeRoute(const Route& route) {
  EngineConfig config;
  config.fault_plan.exhaust_at_charge = std::numeric_limits<int64_t>::max();
  EngineContext ctx(config);
  RouteOutcome out = route.run(&ctx);
  EXPECT_TRUE(out.decided) << route.name << " did not decide unfaulted";
  Probe probe;
  probe.charges = ctx.fault_injector()->charges_seen();
  probe.allocs = ctx.fault_injector()->allocs_seen();
  probe.answer = out.answer;
  return probe;
}

/// Every point in [1, cap], plus seeded samples across (cap, total] so deep
/// stages of long-running routes are hit without enumerating every charge.
std::vector<int64_t> FaultPoints(int64_t total, int64_t cap) {
  std::vector<int64_t> points;
  for (int64_t n = 1; n <= total && n <= cap; ++n) points.push_back(n);
  if (total > cap) {
    for (int64_t i = 0; i < 12; ++i) {
      points.push_back(DeriveFaultPoint(/*seed=*/0xC0FFEE, i, total));
    }
  }
  return points;
}

/// The shared matrix body: run the route with `plan`, accept either a
/// decided-and-correct result or exhaustion with `expected_reason`, then
/// prove the context recovers after `ResetBudget()`.
void CheckFaultedRun(const Route& route, const Probe& probe,
                     const FaultPlan& plan, ExhaustionReason expected_reason) {
  EngineConfig config;
  config.fault_plan = plan;
  EngineContext ctx(config);
  RouteOutcome out = route.run(&ctx);
  if (out.decided) {
    EXPECT_EQ(out.answer, probe.answer)
        << route.name << " flipped its answer under an injected fault";
  } else {
    EXPECT_EQ(out.reason, expected_reason)
        << route.name << " reported the wrong exhaustion reason";
  }
  ctx.ResetBudget();
  RouteOutcome again = route.run(&ctx);
  EXPECT_TRUE(again.decided)
      << route.name << " did not recover after ResetBudget";
  if (again.decided) {
    EXPECT_EQ(again.answer, probe.answer)
        << route.name << " recovered to the wrong answer";
  }
}

TEST(FaultMatrixTest, ExhaustionAtEveryCharge) {
  for (const Route& route : AllRoutes()) {
    Probe probe = ProbeRoute(route);
    ASSERT_GT(probe.charges, 0) << route.name;
    for (int64_t n : FaultPoints(probe.charges, 40)) {
      FaultPlan plan;
      plan.exhaust_at_charge = n;
      CheckFaultedRun(route, probe, plan, ExhaustionReason::kSteps);
    }
  }
}

TEST(FaultMatrixTest, CancellationAtEveryCharge) {
  for (const Route& route : AllRoutes()) {
    Probe probe = ProbeRoute(route);
    for (int64_t n : FaultPoints(probe.charges, 24)) {
      FaultPlan plan;
      plan.cancel_at_charge = n;
      CheckFaultedRun(route, probe, plan, ExhaustionReason::kCancelled);
    }
  }
}

TEST(FaultMatrixTest, FailureOfEveryTrackedAllocation) {
  for (const Route& route : AllRoutes()) {
    Probe probe = ProbeRoute(route);
    for (int64_t k : FaultPoints(probe.allocs, 24)) {
      FaultPlan plan;
      plan.fail_alloc_at = k;
      CheckFaultedRun(route, probe, plan, ExhaustionReason::kMemory);
    }
  }
}

TEST(FaultMatrixTest, ParallelSweepExhaustionAndCancellation) {
  // Patterns with enough descendant edges that the length-vector space
  // clears even a tiny parallel threshold, so the pool genuinely engages.
  Route route{"sweep-parallel", [](EngineContext* ctx) {
                return RunContain(ctx, "a//b//c//b", "a//*//c//b");
              }};
  Probe probe;
  {
    EngineConfig config;
    config.threads = 3;
    config.parallel_threshold = 1;
    config.parallel_chunk = 4;
    config.fault_plan.exhaust_at_charge = std::numeric_limits<int64_t>::max();
    EngineContext ctx(config);
    RouteOutcome out = route.run(&ctx);
    ASSERT_TRUE(out.decided);
    probe.charges = ctx.fault_injector()->charges_seen();
    probe.answer = out.answer;
  }
  ASSERT_GT(probe.charges, 0);
  for (int64_t n : FaultPoints(probe.charges, 16)) {
    for (bool cancel : {false, true}) {
      EngineConfig config;
      config.threads = 3;
      config.parallel_threshold = 1;
      config.parallel_chunk = 4;
      if (cancel) {
        config.fault_plan.cancel_at_charge = n;
      } else {
        config.fault_plan.exhaust_at_charge = n;
      }
      EngineContext ctx(config);
      RouteOutcome out = route.run(&ctx);
      if (out.decided) {
        EXPECT_EQ(out.answer, probe.answer);
      } else {
        EXPECT_EQ(out.reason, cancel ? ExhaustionReason::kCancelled
                                     : ExhaustionReason::kSteps);
      }
      ctx.ResetBudget();
      RouteOutcome again = route.run(&ctx);
      ASSERT_TRUE(again.decided);
      EXPECT_EQ(again.answer, probe.answer);
    }
  }
}

TEST(FaultInjectionTest, DelayedWorkerChangesScheduleNotAnswer) {
  for (int delayed : {0, 1, 2}) {
    EngineConfig config;
    config.threads = 3;
    config.parallel_threshold = 1;
    config.parallel_chunk = 4;
    config.fault_plan.delay_worker = delayed;
    config.fault_plan.delay_worker_ms = 5;
    EngineContext ctx(config);
    RouteOutcome out = RunContain(&ctx, "a//b//c//b", "a//*//c//b");
    ASSERT_TRUE(out.decided) << "delayed worker " << delayed;
    RouteOutcome reference =
        RunContain(&EngineContext::Default(), "a//b//c//b", "a//*//c//b");
    EXPECT_EQ(out.answer, reference.answer);
  }
}

TEST(FaultInjectionTest, DelayedWorkerRacedAgainstCancellation) {
  // A straggling worker plus a cancellation mid-round: the sweep must come
  // back as a clean partial result, not hang on the straggler or crash.
  EngineConfig config;
  config.threads = 3;
  config.parallel_threshold = 1;
  config.parallel_chunk = 2;
  config.fault_plan.delay_worker = 1;
  config.fault_plan.delay_worker_ms = 10;
  config.fault_plan.cancel_at_charge = 5;
  EngineContext ctx(config);
  RouteOutcome out = RunContain(&ctx, "a//b//c//b", "a//*//c//b");
  if (!out.decided) {
    EXPECT_EQ(out.reason, ExhaustionReason::kCancelled);
  }
  ctx.ResetBudget();
  RouteOutcome again = RunContain(&ctx, "a//b//c//b", "a//*//c//b");
  EXPECT_TRUE(again.decided);
}

TEST(FaultInjectionTest, CancelBeforeStartYieldsCancelledThenRecovers) {
  for (const Route& route : AllRoutes()) {
    EngineContext ctx;
    ctx.Cancel();
    RouteOutcome out = route.run(&ctx);
    EXPECT_FALSE(out.decided) << route.name;
    EXPECT_EQ(out.reason, ExhaustionReason::kCancelled) << route.name;
    ctx.ResetBudget();
    RouteOutcome again = route.run(&ctx);
    EXPECT_TRUE(again.decided) << route.name;
  }
}

TEST(FaultInjectionTest, ResetFaultsReArmsTheOneShotPlan) {
  Route route{"schema", [](EngineContext* ctx) {
                return RunSchema(ctx, /*antichain=*/true);
              }};
  EngineConfig config;
  config.fault_plan.exhaust_at_charge = 3;
  EngineContext ctx(config);
  RouteOutcome first = route.run(&ctx);
  EXPECT_FALSE(first.decided);
  // ResetBudget alone does NOT re-arm: the second run sails past charge 3.
  ctx.ResetBudget();
  RouteOutcome second = route.run(&ctx);
  EXPECT_TRUE(second.decided);
  // ResetFaults does: the third run trips again.
  ctx.ResetBudget();
  ctx.ResetFaults();
  RouteOutcome third = route.run(&ctx);
  EXPECT_FALSE(third.decided);
  EXPECT_EQ(third.reason, ExhaustionReason::kSteps);
}

TEST(FaultInjectionTest, InactivePlanInstallsNoInjector) {
  EngineContext ctx;
  EXPECT_EQ(ctx.fault_injector(), nullptr);
  EngineConfig config;
  config.fault_plan.exhaust_at_charge = 1;
  EngineContext armed(config);
  EXPECT_NE(armed.fault_injector(), nullptr);
}

TEST(FaultInjectionTest, DeriveFaultPointIsDeterministicAndInRange) {
  for (int64_t space :
       {int64_t{1}, int64_t{2}, int64_t{7}, int64_t{1000}, int64_t{1} << 40}) {
    for (int64_t i = 0; i < 20; ++i) {
      int64_t p = DeriveFaultPoint(42, i, space);
      EXPECT_GE(p, 1);
      EXPECT_LE(p, space);
      EXPECT_EQ(p, DeriveFaultPoint(42, i, space));
    }
  }
  // Different seeds give different schedules (with overwhelming likelihood
  // on a large space).
  bool any_diff = false;
  for (int64_t i = 0; i < 20; ++i) {
    any_diff |= DeriveFaultPoint(1, i, int64_t{1} << 40) !=
                DeriveFaultPoint(2, i, int64_t{1} << 40);
  }
  EXPECT_TRUE(any_diff);
}

}  // namespace
}  // namespace tpc
