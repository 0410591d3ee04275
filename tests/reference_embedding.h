// Test-only reference for the embedding relation (Definition 2.1) and the
// canonical-model procedure (Theorem 3.3).
//
// `ReferenceEmbedding` answers sat(v, x) — subquery(v) embeds with v mapped
// to tree node x — and below(v, x) — subquery(v) embeds with v mapped
// somewhere in subtree(x), x included — by memoized recursion over the
// `Tpq` / `Tree` pointer API (`FirstChild` / `NextSibling`).  It uses no
// `TreeView`, no bitsets and no code of the production matchers
// (`MatcherWorkspace`, `MatcherProgram`, `SweepBank`), so a suite that
// compares them against it checks two independent computations.
//
// `ReferenceSweep` is the canonical-model procedure on top of that oracle:
// every canonical model of p up to a chain-length bound, each built from
// scratch by `CanonicalTree` and matched by a fresh `ReferenceEmbedding`, in
// `CanonicalLengthEnumerator` order — no suffix rebuild, no `SweepBank`, no
// dispatcher.  Strong mode matches root to root directly instead of
// relabelling roots (Observation 2.3).

#ifndef TPC_TESTS_REFERENCE_EMBEDDING_H_
#define TPC_TESTS_REFERENCE_EMBEDDING_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "contain/containment.h"
#include "pattern/canonical.h"
#include "pattern/normalize.h"
#include "pattern/tpq.h"
#include "tree/tree.h"

namespace tpc {

/// Definition 2.1, one memoized cell at a time.  Holds references to `q`
/// and `t`; both must outlive it.
class ReferenceEmbedding {
 public:
  ReferenceEmbedding(const Tpq& q, const Tree& t)
      : q_(q),
        t_(t),
        memo_(2 * static_cast<size_t>(q.size()) * static_cast<size_t>(t.size()),
              kUnknown) {}

  /// x carries v's label (or v is a wildcard), every child-edge child of v
  /// embeds at some child of x, and every descendant-edge child of v embeds
  /// at some proper descendant of x.
  bool Sat(NodeId v, NodeId x) {
    int8_t& cell = Cell(0, v, x);
    if (cell != kUnknown) return cell != 0;
    bool ok = q_.IsWildcard(v) || q_.Label(v) == t_.Label(x);
    for (NodeId c = q_.FirstChild(v); ok && c != kNoNode;
         c = q_.NextSibling(c)) {
      const bool child_edge = q_.Edge(c) == EdgeKind::kChild;
      bool found = false;
      for (NodeId y = t_.FirstChild(x); !found && y != kNoNode;
           y = t_.NextSibling(y)) {
        found = child_edge ? Sat(c, y) : Below(c, y);
      }
      ok = found;
    }
    cell = ok ? 1 : 0;
    return ok;
  }

  /// Sat(v, y) for some y in subtree(x), x included.
  bool Below(NodeId v, NodeId x) {
    int8_t& cell = Cell(1, v, x);
    if (cell != kUnknown) return cell != 0;
    bool ok = Sat(v, x);
    for (NodeId y = t_.FirstChild(x); !ok && y != kNoNode;
         y = t_.NextSibling(y)) {
      ok = Below(v, y);
    }
    cell = ok ? 1 : 0;
    return ok;
  }

  /// t is in the weak language L_w(q): q's root maps anywhere.
  bool MatchesWeak() { return !q_.empty() && !t_.empty() && Below(0, 0); }

  /// t is in the strong language L_s(q): q's root maps to t's root.
  bool MatchesStrong() { return !q_.empty() && !t_.empty() && Sat(0, 0); }

  bool Matches(Mode mode) {
    return mode == Mode::kStrong ? MatchesStrong() : MatchesWeak();
  }

 private:
  static constexpr int8_t kUnknown = -1;

  int8_t& Cell(int table, NodeId v, NodeId x) {
    return memo_[(static_cast<size_t>(table) * static_cast<size_t>(q_.size()) +
                  static_cast<size_t>(v)) *
                     static_cast<size_t>(t_.size()) +
                 static_cast<size_t>(x)];
  }

  const Tpq& q_;
  const Tree& t_;
  std::vector<int8_t> memo_;  // [sat | below][v][x]
};

/// Whether `map` (pattern node -> tree node) is an embedding of `q` into `t`
/// per Definition 2.1: labels respected, child edges onto tree children,
/// descendant edges onto proper descendants, and for strong embeddings the
/// root onto the root.
inline bool IsEmbedding(const Tpq& q, const Tree& t,
                        const std::vector<NodeId>& map, bool strong) {
  if (map.size() != static_cast<size_t>(q.size())) return false;
  for (NodeId v = 0; v < q.size(); ++v) {
    const NodeId x = map[static_cast<size_t>(v)];
    if (x < 0 || x >= t.size()) return false;
    if (!q.IsWildcard(v) && q.Label(v) != t.Label(x)) return false;
    if (v == 0) {
      if (strong && x != 0) return false;
      continue;
    }
    const NodeId px = map[static_cast<size_t>(q.Parent(v))];
    if (q.Edge(v) == EdgeKind::kChild) {
      if (t.Parent(x) != px) return false;
    } else {
      NodeId a = t.Parent(x);
      while (a != kNoNode && a != px) a = t.Parent(a);
      if (a == kNoNode) return false;
    }
  }
  return true;
}

/// The chain-length bound the dispatcher's general canonical route sweeps
/// `q` with: `CanonicalBound` of the pattern it evaluates, which is q
/// normalized after the strong-mode root relabelling (Observation 2.3).
/// Only wildcard-ness enters the bound, so any letter stands in for the
/// fresh root label.
inline int32_t SweepBound(const Tpq& q, Mode mode,
                          ContainmentOptions::Bound bound) {
  Tpq evaluated = q;
  if (mode == Mode::kStrong) evaluated.SetLabel(0, kWildcard + 1);
  return CanonicalBound(Normalize(evaluated), bound);
}

/// Every canonical model of p with chains up to `bound`, built from scratch
/// and matched by the oracle, in `CanonicalLengthEnumerator` order.  Returns
/// the first refuting length vector, or nullopt when q matches every model.
inline std::optional<std::vector<int32_t>> ReferenceSweep(const Tpq& p,
                                                          const Tpq& q,
                                                          Mode mode,
                                                          int32_t bound,
                                                          LabelId bottom) {
  CanonicalLengthEnumerator lengths(DescendantEdges(p).size(), bound);
  do {
    const Tree t = CanonicalTree(p, lengths.lengths(), bottom);
    if (!ReferenceEmbedding(q, t).Matches(mode)) return lengths.lengths();
  } while (lengths.Next());
  return std::nullopt;
}

/// Checks one decided result against `reference` (a `ReferenceSweep` at the
/// bound the result was swept with): the verdict always; on the
/// canonical-enumeration route of a sequential sweep (`exact_lengths`) the
/// exact first-in-order length vector; otherwise — the homomorphism
/// (all-ones) and minimal-canonical (all-zeros) routes, or a parallel sweep
/// whose winning chunk is schedule-dependent — that the reported vector's
/// model really refutes q.  A reported counterexample tree must be in L(p)
/// and outside L(q).
inline void ExpectAgreesWithReference(
    const ContainmentResult& r, const Tpq& p, const Tpq& q, Mode mode,
    LabelId bottom, const std::optional<std::vector<int32_t>>& reference,
    const std::string& where, bool exact_lengths = true) {
  ASSERT_EQ(r.outcome, Outcome::kDecided) << where;
  ASSERT_EQ(r.contained, !reference.has_value()) << where;
  if (r.counterexample.has_value()) {
    const Tree& witness = *r.counterexample;
    EXPECT_TRUE(ReferenceEmbedding(p, witness).Matches(mode))
        << where << ": counterexample is not a model of p";
    EXPECT_FALSE(ReferenceEmbedding(q, witness).Matches(mode))
        << where << ": counterexample matches q";
  }
  if (!r.counterexample_lengths.has_value()) return;
  ASSERT_FALSE(r.contained) << where;
  ASSERT_EQ(r.counterexample_lengths->size(), DescendantEdges(p).size())
      << where;
  if (exact_lengths &&
      r.algorithm == ContainmentAlgorithm::kCanonicalEnumeration) {
    EXPECT_EQ(*r.counterexample_lengths, *reference) << where;
    return;
  }
  const Tree t = CanonicalTree(p, *r.counterexample_lengths, bottom);
  EXPECT_FALSE(ReferenceEmbedding(q, t).Matches(mode))
      << where << ": reported lengths do not refute q";
}

}  // namespace tpc

#endif  // TPC_TESTS_REFERENCE_EMBEDDING_H_
