// Agreement of the word-parallel DP fill (missing-bits scatter +
// branch-free leaf kernel) with the Definition 2.1 oracle of
// reference_embedding.h, which shares no code with it: every sat/below cell
// over 500 random instances, after from-scratch fills and after the
// spine-suffix refills of `EvalIncremental`, every extracted witness, and
// the containment verdicts and counterexample length vectors of the
// canonical sweep against `ReferenceSweep`.

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "base/label.h"
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

/// Asserts that the workspace's last evaluation of `q` against `t` holds
/// exactly the oracle's sat/below table.
void ExpectCellsMatchReference(const MatcherWorkspace& ws, const Tpq& q,
                               const Tree& t, const LabelPool& pool) {
  ReferenceEmbedding ref(q, t);
  for (NodeId v = 0; v < q.size(); ++v) {
    for (NodeId x = 0; x < t.size(); ++x) {
      ASSERT_EQ(ws.SatAt(v, x), ref.Sat(v, x))
          << "sat(" << v << "," << x << "): " << q.ToString(pool) << " on "
          << t.ToString(pool);
      ASSERT_EQ(ws.SatBelow(v, x), ref.Below(v, x))
          << "below(" << v << "," << x << "): " << q.ToString(pool)
          << " on " << t.ToString(pool);
    }
  }
}

TEST(WordParallelAgreementTest, TablesMatchReferenceOver500Instances) {
  LabelPool pool;
  std::mt19937 rng(4242);
  std::vector<LabelId> labels = MakeLabels(2, &pool);
  EngineStats stats;
  RandomTpqOptions qopts;
  qopts.labels = labels;
  qopts.fragment = fragments::kTpqFull;
  RandomTreeOptions topts;
  topts.labels = labels;
  MatcherWorkspace ws;
  int weak_matches = 0;
  int strong_matches = 0;
  for (int trial = 0; trial < 500; ++trial) {
    qopts.size = 2 + trial % 6;
    topts.size = 1 + trial % 12;
    // Adversarial shapes every few trials; random otherwise.
    Tree t = trial % 11 == 0   ? ChainTree(labels, topts.size)
             : trial % 13 == 0 ? StarTree(labels, topts.size)
                               : RandomTree(topts, &rng);
    Tpq q = RandomTpq(qopts, &rng);
    ws.EvalFull(q, t, &stats);
    ReferenceEmbedding ref(q, t);
    const std::string where = q.ToString(pool) + " on " + t.ToString(pool);
    ASSERT_EQ(ws.MatchesWeak(), ref.MatchesWeak()) << where;
    ASSERT_EQ(ws.MatchesStrong(), ref.MatchesStrong()) << where;
    ASSERT_NO_FATAL_FAILURE(ExpectCellsMatchReference(ws, q, t, pool));
    for (bool strong : {false, true}) {
      const std::optional<std::vector<NodeId>> w = ws.Witness(strong);
      ASSERT_EQ(w.has_value(), strong ? ref.MatchesStrong()
                                      : ref.MatchesWeak())
          << where;
      if (w.has_value()) {
        EXPECT_TRUE(IsEmbedding(q, t, *w, strong))
            << "invalid " << (strong ? "strong" : "weak") << " witness: "
            << where;
      }
    }
    if (ref.MatchesWeak()) ++weak_matches;
    if (ref.MatchesStrong()) ++strong_matches;
  }
  // The sample must exercise both verdicts and the kernel's fast paths.
  EXPECT_GT(weak_matches, 20);
  EXPECT_LT(weak_matches, 480);
  EXPECT_GT(strong_matches, 10);
  EXPECT_GT(stats.dp_words_folded.load(std::memory_order_relaxed), 0);
  EXPECT_GT(stats.dp_rows_skipped.load(std::memory_order_relaxed), 0);
}

// `EvalIncremental` refills only the postorder suffix a spine-suffix rebuild
// invalidated; every cell of the reused prefix and the refilled suffix must
// still be the oracle's, model after model of a canonical enumeration.
TEST(WordParallelAgreementTest, IncrementalTablesMatchReference) {
  LabelPool pool;
  std::mt19937 rng(2718);
  std::vector<LabelId> labels = MakeLabels(2, &pool);
  const LabelId bottom = pool.Fresh("_ref_bot");
  RandomTpqOptions popts;
  popts.labels = labels;
  popts.fragment = fragments::kTpqFull;
  RandomTpqOptions qopts = popts;
  EngineStats stats;
  int64_t trees = 0;
  for (int trial = 0; trial < 60; ++trial) {
    popts.size = 3 + trial % 5;
    qopts.size = 2 + (trial / 5) % 6;
    const Tpq p = RandomTpq(popts, &rng);
    const Tpq q = RandomTpq(qopts, &rng);
    CanonicalTreeBuilder builder(p, bottom);
    CanonicalLengthEnumerator lengths(builder.num_spines(), 2);
    MatcherWorkspace ws;
    Tree t;
    bool fresh = true;
    do {
      const size_t first = lengths.first_changed();
      if (!fresh && first < builder.num_spines()) {
        builder.BuildSuffix(lengths.lengths(), first, &t);
        ws.EvalIncremental(q, t, builder.spine_start(first), &stats);
      } else {
        builder.BuildFull(lengths.lengths(), &t);
        ws.EvalFull(q, t, &stats);
      }
      fresh = false;
      ++trees;
      ASSERT_NO_FATAL_FAILURE(ExpectCellsMatchReference(ws, q, t, pool))
          << "trial " << trial << ": " << p.ToString(pool);
    } while (lengths.Next());
  }
  EXPECT_GT(trees, 500);
  EXPECT_GT(stats.dp_cells_reused.load(std::memory_order_relaxed), 0);
}

TEST(WordParallelAgreementTest, ContainmentMatchesReferenceSweep) {
  LabelPool pool;
  std::mt19937 rng(13579);
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
    ContainmentResult r = Contains(p, q, mode, &pool, SweepOptions());
    const std::optional<std::vector<int32_t>> reference = ReferenceSweep(
        p, q, mode,
        SweepBound(q, mode, ContainmentOptions::Bound::kAggressive), bottom);
    // Both walk the length-vector space in the same order, so even the
    // counterexample must be the same model.
    ASSERT_NO_FATAL_FAILURE(ExpectAgreesWithReference(
        r, p, q, mode, bottom, reference,
        "trial " + std::to_string(trial) + ": " + p.ToString(pool) + " in " +
            q.ToString(pool)));
    if (reference.has_value()) ++not_contained;
  }
  EXPECT_GT(not_contained, 10);
}

// The sweep reports the fold and leaf-skip counters into the deciding
// context (here through the compiled executor, which counts like the
// generic kernel; the first test pins the generic kernel's counters).
TEST(WordParallelAgreementTest, SweepReportsFoldAndSkipCounters) {
  LabelPool pool;
  Tpq p = MustParseTpq("a//b[c]//d", &pool);
  Tpq q = MustParseTpq("a//b//d", &pool);
  EngineContext ctx;
  ContainmentResult r =
      Contains(p, q, Mode::kWeak, &pool, &ctx, SweepOptions());
  ASSERT_EQ(r.outcome, Outcome::kDecided);
  EXPECT_GT(ctx.stats().dp_words_folded.load(std::memory_order_relaxed), 0);
  EXPECT_GT(ctx.stats().dp_rows_skipped.load(std::memory_order_relaxed), 0);
}

}  // namespace
}  // namespace tpc
