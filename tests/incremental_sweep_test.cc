// The incremental canonical sweep (spine-suffix rebuilds + DP column reuse)
// against the from-scratch `ReferenceSweep` of reference_embedding.h: same
// verdicts, the same first-in-order counterexample length vectors on
// sequential sweeps, valid witnesses on parallel ones, and DP work whose
// filled and reused cells add up exactly to the from-scratch total.

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "base/label.h"
#include "contain/containment.h"
#include "engine/engine.h"
#include "gen/random_instances.h"
#include "pattern/canonical.h"
#include "reductions/hardness_families.h"
#include "reference_embedding.h"

namespace tpc {
namespace {

ContainmentOptions SweepOptions() {
  ContainmentOptions options;
  options.force_canonical = true;
  options.bound = ContainmentOptions::Bound::kAggressive;
  return options;
}

/// A sequential sweep walks the length-vector space in the reference's
/// order, so it must agree bit-for-bit: verdict, counterexample presence,
/// and the exact counterexample length vector.
TEST(IncrementalSweepTest, MatchesReferenceSequentially) {
  LabelPool pool;
  std::mt19937 rng(97531);
  std::vector<LabelId> labels = MakeLabels(3, &pool);
  const LabelId bottom = pool.Fresh("_ref_bot");
  int not_contained = 0;
  for (int trial = 0; trial < 500; ++trial) {
    RandomTpqOptions popts;
    popts.labels = labels;
    popts.fragment = fragments::kTpqFull;
    popts.size = 3 + trial % 5;
    RandomTpqOptions qopts = popts;
    qopts.size = 3 + (trial / 5) % 5;
    Tpq p = RandomTpq(popts, &rng);
    Tpq q = RandomTpq(qopts, &rng);
    Mode mode = trial % 4 == 0 ? Mode::kStrong : Mode::kWeak;
    ContainmentResult r = Contains(p, q, mode, &pool, SweepOptions());
    const std::optional<std::vector<int32_t>> reference = ReferenceSweep(
        p, q, mode,
        SweepBound(q, mode, ContainmentOptions::Bound::kAggressive), bottom);
    ASSERT_NO_FATAL_FAILURE(ExpectAgreesWithReference(
        r, p, q, mode, bottom, reference,
        "trial " + std::to_string(trial) + ": " + p.ToString(pool) + " in " +
            q.ToString(pool)));
    if (reference.has_value()) {
      ASSERT_TRUE(r.counterexample.has_value());
      ASSERT_TRUE(r.counterexample_lengths.has_value());
      ++not_contained;
    }
  }
  // The sample must actually exercise the counterexample path.
  EXPECT_GT(not_contained, 20);
}

/// The parallel sweep may report any counterexample (first chunk to find
/// one wins), so agreement is on the verdict; the reported length vector
/// and tree must still denote a genuine counterexample canonical model.
TEST(IncrementalSweepTest, ParallelWitnessesAreValid) {
  LabelPool pool;
  std::mt19937 rng(86420);
  std::vector<LabelId> labels = MakeLabels(3, &pool);
  const LabelId bottom = pool.Fresh("_ref_bot");
  EngineConfig config;
  config.threads = 4;
  config.parallel_threshold = 1;
  config.parallel_chunk = 4;
  int not_contained = 0;
  for (int trial = 0; trial < 150; ++trial) {
    RandomTpqOptions popts;
    popts.labels = labels;
    popts.fragment = fragments::kTpqFull;
    popts.size = 3 + trial % 5;
    RandomTpqOptions qopts = popts;
    qopts.size = 3 + (trial / 5) % 5;
    Tpq p = RandomTpq(popts, &rng);
    Tpq q = RandomTpq(qopts, &rng);
    EngineContext parallel_ctx(config);
    ContainmentResult r =
        Contains(p, q, Mode::kWeak, &pool, &parallel_ctx, SweepOptions());
    const std::optional<std::vector<int32_t>> reference = ReferenceSweep(
        p, q, Mode::kWeak,
        SweepBound(q, Mode::kWeak, ContainmentOptions::Bound::kAggressive),
        bottom);
    ASSERT_NO_FATAL_FAILURE(ExpectAgreesWithReference(
        r, p, q, Mode::kWeak, bottom, reference,
        "trial " + std::to_string(trial) + ": " + p.ToString(pool) + " in " +
            q.ToString(pool),
        /*exact_lengths=*/false));
    if (!r.contained) {
      ASSERT_TRUE(r.counterexample.has_value());
      ASSERT_TRUE(r.counterexample_lengths.has_value());
      ++not_contained;
    }
  }
  EXPECT_GT(not_contained, 10);
}

/// Exact DP accounting on the coNP family: every enumerated model's
/// |q| * |t| cells are either filled or reused, so the two counters add up
/// to the from-scratch total computed here model by model, and the suffix
/// memoization fills at most half of it.
TEST(IncrementalSweepTest, ReusesAtLeastHalfTheDpCells) {
  LabelPool pool;
  ConpFamilyInstance inst = BuildConpFamily(4, &pool);
  EngineContext ctx;
  ContainmentResult r =
      Contains(inst.p, inst.q_yes, Mode::kWeak, &pool, &ctx, SweepOptions());
  ASSERT_EQ(r.outcome, Outcome::kDecided);
  ASSERT_TRUE(r.contained);

  const LabelId bottom = pool.Fresh("_ref_bot");
  CanonicalLengthEnumerator lengths(
      DescendantEdges(inst.p).size(),
      SweepBound(inst.q_yes, Mode::kWeak,
                 ContainmentOptions::Bound::kAggressive));
  int64_t models = 0;
  int64_t total_cells = 0;
  do {
    ++models;
    total_cells += static_cast<int64_t>(inst.q_yes.size()) *
                   CanonicalTree(inst.p, lengths.lengths(), bottom).size();
  } while (lengths.Next());

  const EngineStats& stats = ctx.stats();
  const int64_t filled = stats.dp_cells_filled.load(std::memory_order_relaxed);
  const int64_t reused = stats.dp_cells_reused.load(std::memory_order_relaxed);
  const int64_t rebuilt =
      stats.trees_rebuilt_from_spine.load(std::memory_order_relaxed);
  EXPECT_EQ(filled + reused, total_cells);
  EXPECT_LE(2 * filled, total_cells)
      << "incremental sweep saved too little DP work";
  EXPECT_GT(reused, 0);
  // A contained instance sweeps the whole space; every model after the
  // first is rebuilt from its first changed spine.
  EXPECT_EQ(stats.canonical_trees_enumerated.load(std::memory_order_relaxed),
            models);
  EXPECT_EQ(rebuilt, models - 1);
}

}  // namespace
}  // namespace tpc
