// Agreement of the compiled matcher path (src/compile/ — flat programs over
// postorder columns) with the generic embedding DP and with the test-only
// references of reference_embedding.h.  At executor level, `ProgramExec`
// and `ProgramSweep` (from-scratch and spine-suffix refills) must produce
// the verdict bits of `MatcherWorkspace` and of the Definition 2.1 oracle;
// the sweeps that run them must agree with `ReferenceSweep` — verdicts and
// counterexample length vectors — across 500 random instances, both modes,
// 1/2/4-thread sweeps, compile-time fault injection (an allocation failure
// mid-compile must fall back to the generic DP without exhausting the
// budget or caching a partial program) and oversize (> 64-node) patterns.

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "base/label.h"
#include "compile/matcher_program.h"
#include "compile/program_cache.h"
#include "contain/containment.h"
#include "engine/engine.h"
#include "gen/random_instances.h"
#include "match/embedding.h"
#include "pattern/canonical.h"
#include "pattern/tpq_parser.h"
#include "reference_embedding.h"

namespace tpc {
namespace {

ContainmentOptions SweepOptions() {
  ContainmentOptions options;
  options.force_canonical = true;
  options.bound = ContainmentOptions::Bound::kAggressive;
  return options;
}

std::string Where(int trial, const Tpq& p, const Tpq& q,
                  const LabelPool& pool) {
  return "trial " + std::to_string(trial) + ": " + p.ToString(pool) + " in " +
         q.ToString(pool);
}

// The 500-instance core: the one-shot program executor must agree with the
// generic matcher's verdict bits — and with the oracle's — on random, chain
// and star trees, weak and strong alike.
TEST(CompiledAgreementTest, ProgramAgreesWithMatcherOver500Instances) {
  LabelPool pool;
  std::mt19937 rng(24601);
  std::vector<LabelId> labels = MakeLabels(2, &pool);
  EngineStats stats;
  RandomTpqOptions qopts;
  qopts.labels = labels;
  qopts.fragment = fragments::kTpqFull;
  RandomTreeOptions topts;
  topts.labels = labels;
  ProgramExec exec;
  int weak_matches = 0;
  for (int trial = 0; trial < 500; ++trial) {
    qopts.size = 2 + trial % 7;
    topts.size = 1 + trial % 13;
    Tree t = trial % 11 == 0   ? ChainTree(labels, topts.size)
             : trial % 13 == 0 ? StarTree(labels, topts.size)
                               : RandomTree(topts, &rng);
    Tpq q = RandomTpq(qopts, &rng);
    auto program = MatcherProgram::Compile(q, nullptr, &stats);
    ASSERT_NE(program, nullptr);
    MatcherProgram::ExecResult r = exec.Run(*program, t, &stats);
    Matcher generic(q, t, nullptr);
    ReferenceEmbedding ref(q, t);
    ASSERT_EQ(r.weak, generic.MatchesWeak())
        << q.ToString(pool) << " on " << t.ToString(pool);
    ASSERT_EQ(r.strong, generic.MatchesStrong())
        << q.ToString(pool) << " on " << t.ToString(pool);
    ASSERT_EQ(r.weak, ref.MatchesWeak())
        << q.ToString(pool) << " on " << t.ToString(pool);
    ASSERT_EQ(r.strong, ref.MatchesStrong())
        << q.ToString(pool) << " on " << t.ToString(pool);
    if (r.weak) ++weak_matches;
  }
  // The sample must exercise both verdicts, every tile, and the counters.
  EXPECT_GT(weak_matches, 20);
  EXPECT_LT(weak_matches, 480);
  EXPECT_EQ(stats.programs_compiled.load(std::memory_order_relaxed), 500);
  EXPECT_EQ(stats.program_exec_hits.load(std::memory_order_relaxed), 500);
  EXPECT_GT(stats.dp_rows_skipped.load(std::memory_order_relaxed), 0);
}

// The sweep executor: a `ProgramSweep` driven through a canonical
// enumeration — first tree from scratch, every later one refilled from its
// first changed spine — must report, model after model, the verdict bits
// of a from-scratch `MatcherWorkspace` fill and of the oracle on the same
// tree, with the same DP-cell accounting as an incremental workspace.
TEST(CompiledAgreementTest, ProgramSweepAgreesWithWorkspaceAcrossRebuilds) {
  LabelPool pool;
  std::mt19937 rng(31415);
  std::vector<LabelId> labels = MakeLabels(2, &pool);
  const LabelId bottom = pool.Fresh("_ref_bot");
  RandomTpqOptions popts;
  popts.labels = labels;
  popts.fragment = fragments::kTpqFull;
  RandomTpqOptions qopts = popts;
  int64_t trees = 0;
  int weak_matches = 0;
  for (int trial = 0; trial < 80; ++trial) {
    popts.size = 4 + trial % 4;
    qopts.size = 3 + trial % 5;
    const Tpq p = RandomTpq(popts, &rng);
    const Tpq q = RandomTpq(qopts, &rng);
    auto program = MatcherProgram::Compile(q, nullptr);
    ASSERT_NE(program, nullptr);
    CanonicalTreeBuilder builder(p, bottom);
    CanonicalLengthEnumerator lengths(builder.num_spines(), 3);
    ProgramSweep psweep;
    MatcherWorkspace incremental;
    EngineStats program_stats;
    EngineStats generic_stats;
    Tree t;
    bool fresh = true;
    do {
      const size_t first = lengths.first_changed();
      if (!fresh && first < builder.num_spines()) {
        builder.BuildSuffix(lengths.lengths(), first, &t);
        const NodeId stable = builder.spine_start(first);
        psweep.EvalIncremental(*program, t, stable, &program_stats);
        incremental.EvalIncremental(q, t, stable, &generic_stats);
      } else {
        builder.BuildFull(lengths.lengths(), &t);
        psweep.EvalFull(*program, t, &program_stats);
        incremental.EvalFull(q, t, &generic_stats);
      }
      fresh = false;
      ++trees;
      const Matcher scratch(q, t);
      ReferenceEmbedding ref(q, t);
      const std::string where = Where(trial, p, q, pool) + " model " +
                                t.ToString(pool);
      ASSERT_EQ(psweep.MatchesWeak(), scratch.MatchesWeak()) << where;
      ASSERT_EQ(psweep.MatchesStrong(), scratch.MatchesStrong()) << where;
      ASSERT_EQ(psweep.MatchesWeak(), ref.MatchesWeak()) << where;
      ASSERT_EQ(psweep.MatchesStrong(), ref.MatchesStrong()) << where;
      if (psweep.MatchesWeak()) ++weak_matches;
    } while (lengths.Next());
    EXPECT_EQ(program_stats.dp_cells_filled.load(std::memory_order_relaxed),
              generic_stats.dp_cells_filled.load(std::memory_order_relaxed))
        << Where(trial, p, q, pool);
    EXPECT_EQ(program_stats.dp_cells_reused.load(std::memory_order_relaxed),
              generic_stats.dp_cells_reused.load(std::memory_order_relaxed))
        << Where(trial, p, q, pool);
  }
  EXPECT_GT(trees, 1000);
  EXPECT_GT(weak_matches, 100);
  EXPECT_LT(weak_matches, trees - 100);
}

TEST(CompiledAgreementTest, SweepMatchesReferenceBothModes) {
  LabelPool pool;
  std::mt19937 rng(97531);
  std::vector<LabelId> labels = MakeLabels(3, &pool);
  const LabelId bottom = pool.Fresh("_ref_bot");
  int not_contained = 0;
  for (int trial = 0; trial < 250; ++trial) {
    RandomTpqOptions popts;
    popts.labels = labels;
    popts.fragment = fragments::kTpqFull;
    popts.size = 3 + trial % 5;
    RandomTpqOptions qopts = popts;
    qopts.size = 3 + (trial / 5) % 5;
    Tpq p = RandomTpq(popts, &rng);
    Tpq q = RandomTpq(qopts, &rng);
    Mode mode = trial % 4 == 0 ? Mode::kStrong : Mode::kWeak;
    EngineContext ctx;
    ContainmentResult r = Contains(p, q, mode, &pool, &ctx, SweepOptions());
    const std::optional<std::vector<int32_t>> reference = ReferenceSweep(
        p, q, mode,
        SweepBound(q, mode, ContainmentOptions::Bound::kAggressive), bottom);
    ASSERT_NO_FATAL_FAILURE(ExpectAgreesWithReference(
        r, p, q, mode, bottom, reference, Where(trial, p, q, pool)));
    if (r.algorithm == ContainmentAlgorithm::kCanonicalEnumeration) {
      // Every random q is under the 64-node model: the sweep ran compiled.
      EXPECT_EQ(ctx.stats().programs_compiled.load(std::memory_order_relaxed),
                1)
          << Where(trial, p, q, pool);
    }
    if (reference.has_value()) ++not_contained;
  }
  EXPECT_GT(not_contained, 10);
}

TEST(CompiledAgreementTest, ParallelSweepsAgreeAcrossThreadCounts) {
  LabelPool pool;
  std::mt19937 rng(8642);
  std::vector<LabelId> labels = MakeLabels(2, &pool);
  const LabelId bottom = pool.Fresh("_ref_bot");
  RandomTpqOptions popts;
  popts.labels = labels;
  popts.fragment = fragments::kTpqFull;
  RandomTpqOptions qopts = popts;
  for (int trial = 0; trial < 40; ++trial) {
    popts.size = 4 + trial % 4;
    qopts.size = 3 + (trial / 3) % 4;
    Tpq p = RandomTpq(popts, &rng);
    Tpq q = RandomTpq(qopts, &rng);
    Mode mode = trial % 3 == 0 ? Mode::kStrong : Mode::kWeak;
    const std::optional<std::vector<int32_t>> reference = ReferenceSweep(
        p, q, mode,
        SweepBound(q, mode, ContainmentOptions::Bound::kAggressive), bottom);
    for (int threads : {1, 2, 4}) {
      EngineConfig config;
      config.threads = threads;
      // Engage the chunked-parallel sweep even on small spaces.
      config.parallel_threshold = 2;
      config.parallel_chunk = 4;
      EngineContext ctx(config);
      ContainmentResult r = Contains(p, q, mode, &pool, &ctx, SweepOptions());
      ASSERT_NO_FATAL_FAILURE(ExpectAgreesWithReference(
          r, p, q, mode, bottom, reference,
          Where(trial, p, q, pool) + " threads " + std::to_string(threads),
          /*exact_lengths=*/threads == 1));
    }
  }
}

// An allocation fault landing on either of the compile's two speculative
// charge points must degrade to the generic DP: same verdict, nothing
// compiled, budget NOT exhausted (the soft charge refunds instead of
// poisoning the run like a DP-table fault would).
TEST(CompiledAgreementTest, AllocFaultMidCompileFallsBackToGeneric) {
  LabelPool pool;
  Tpq p = MustParseTpq("a//b[c]//d", &pool);
  Tpq q = MustParseTpq("a//b//d", &pool);
  const LabelId bottom = pool.Fresh("_ref_bot");
  const std::optional<std::vector<int32_t>> reference = ReferenceSweep(
      p, q, Mode::kWeak,
      SweepBound(q, Mode::kWeak, ContainmentOptions::Bound::kAggressive),
      bottom);
  for (int64_t fail_at : {1, 2}) {
    EngineConfig config;
    config.fault_plan.fail_alloc_at = fail_at;
    EngineContext ctx(config);
    ContainmentResult r =
        Contains(p, q, Mode::kWeak, &pool, &ctx, SweepOptions());
    ASSERT_NO_FATAL_FAILURE(ExpectAgreesWithReference(
        r, p, q, Mode::kWeak, bottom, reference,
        "fail_alloc_at " + std::to_string(fail_at)));
    EXPECT_FALSE(ctx.budget().Exhausted());
    EXPECT_EQ(ctx.stats().programs_compiled.load(std::memory_order_relaxed),
              0);
    EXPECT_EQ(ctx.stats().program_exec_hits.load(std::memory_order_relaxed),
              0);
  }
  // Without a fault the same sweep compiles and executes the program.
  EngineContext clean;
  ContainmentResult r =
      Contains(p, q, Mode::kWeak, &pool, &clean, SweepOptions());
  ASSERT_NO_FATAL_FAILURE(ExpectAgreesWithReference(
      r, p, q, Mode::kWeak, bottom, reference, "no fault"));
  EXPECT_EQ(clean.stats().programs_compiled.load(std::memory_order_relaxed),
            1);
  EXPECT_GT(clean.stats().program_exec_hits.load(std::memory_order_relaxed),
            0);
}

// Patterns beyond the single-word model are not compilable; the generic DP
// must still hold the oracle's table cell by cell, and a sweep whose
// evaluation-side pattern is oversize must run on the generic DP with the
// reference verdict.
TEST(CompiledAgreementTest, OversizePatternFallsBackWithCellParity) {
  LabelPool pool;
  std::string chain = "a";
  for (int i = 0; i < 69; ++i) chain += "/a";
  Tpq big = MustParseTpq(chain.c_str(), &pool);
  ASSERT_GT(big.size(), 64);
  EXPECT_FALSE(MatcherProgram::Compilable(big));
  EXPECT_EQ(MatcherProgram::Compile(big, nullptr), nullptr);

  std::vector<LabelId> labels = MakeLabels(1, &pool);
  Tree t = ChainTree(labels, 80);
  Matcher generic(big, t, nullptr);
  ReferenceEmbedding ref(big, t);
  ASSERT_EQ(generic.MatchesWeak(), ref.MatchesWeak());
  ASSERT_EQ(generic.MatchesStrong(), ref.MatchesStrong());
  for (NodeId v = 0; v < big.size(); ++v) {
    for (NodeId x = 0; x < t.size(); ++x) {
      ASSERT_EQ(generic.SatAt(v, x), ref.Sat(v, x));
      ASSERT_EQ(generic.SatBelow(v, x), ref.Below(v, x));
    }
  }

  const LabelId bottom = pool.Fresh("_ref_bot");
  Tpq small = MustParseTpq("a//a", &pool);
  // Oversize p, compilable q: the sweep compiles q; p only shapes the trees.
  EngineContext ctx;
  ContainmentResult tree_side =
      Contains(big, small, Mode::kWeak, &pool, &ctx, SweepOptions());
  ASSERT_NO_FATAL_FAILURE(ExpectAgreesWithReference(
      tree_side, big, small, Mode::kWeak, bottom,
      ReferenceSweep(big, small, Mode::kWeak,
                     SweepBound(small, Mode::kWeak,
                                ContainmentOptions::Bound::kAggressive),
                     bottom),
      "oversize p"));
  EXPECT_EQ(MatcherProgram::Compile(big, &ctx.budget()), nullptr);

  // Oversize q: nothing compiles, the generic DP decides every model.
  ContainmentOptions safe = SweepOptions();
  safe.bound = ContainmentOptions::Bound::kSafe;
  EngineContext generic_ctx;
  ContainmentResult pattern_side =
      Contains(small, big, Mode::kWeak, &pool, &generic_ctx, safe);
  ASSERT_NO_FATAL_FAILURE(ExpectAgreesWithReference(
      pattern_side, small, big, Mode::kWeak, bottom,
      ReferenceSweep(
          small, big, Mode::kWeak,
          SweepBound(big, Mode::kWeak, ContainmentOptions::Bound::kSafe),
          bottom),
      "oversize q"));
  EXPECT_EQ(
      generic_ctx.stats().programs_compiled.load(std::memory_order_relaxed), 0);
  EXPECT_GT(
      generic_ctx.stats().dp_cells_filled.load(std::memory_order_relaxed), 0);
}

}  // namespace
}  // namespace tpc
