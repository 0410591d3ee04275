// A bank of per-member matcher executors for the canonical sweep.
//
// The coNP procedure enumerates canonical models of the *enumeration-side*
// pattern p; when many in-flight queries share p (zipf tenant traffic, batch
// fan-in), every tree of that exponential space can be built once and
// evaluated against all partner patterns in a single columnar pass.  The
// `SweepBank` is the evaluation half of that loop: one slot per member
// pattern q_i, each holding the member's compiled `MatcherProgram` +
// `ProgramSweep` executor — or the generic `MatcherWorkspace` fallback when
// the pattern is oversize (> 64 nodes) or compilation was declined — so the
// sweep in contain/containment.cc (a solo decision is a group of one) just
// walks the undecided mask and calls `EvalMember` per live member.
//
// Attribution stays per member: `ChargeMember` books the executor's table
// bytes against the *member's* budget (exactly the bytes a solo sweep of
// that member would charge), and `EvalMember` reports DP work into the
// member's own `EngineStats`.  The bank itself owns no budget and no lock —
// the sweep drives one bank per chunk.

#ifndef TPC_COMPILE_SWEEP_BANK_H_
#define TPC_COMPILE_SWEEP_BANK_H_

#include <memory>
#include <vector>

#include "compile/matcher_program.h"
#include "engine/budget.h"
#include "engine/stats.h"
#include "match/embedding.h"
#include "pattern/tpq.h"
#include "tree/tree.h"

namespace tpc {

/// Per-member executor bank for the multi-pattern canonical sweep.  Slots
/// are stable (never reordered or dropped); callers address members by the
/// index `AddMember` returned.
class SweepBank {
 public:
  SweepBank() = default;

  SweepBank(const SweepBank&) = delete;
  SweepBank& operator=(const SweepBank&) = delete;

  /// Adds an evaluation-side pattern.  `program` is the member's compiled
  /// matcher (shareable across banks/threads) or null for the generic
  /// `MatcherWorkspace` path.  `q` must outlive the bank.  Returns the
  /// member's slot index.
  size_t AddMember(const Tpq* q,
                   std::shared_ptr<const MatcherProgram> program);

  size_t size() const { return members_.size(); }

  const Tpq& pattern(size_t i) const { return *members_[i]->q; }

  /// Whether member `i` evaluates through a compiled program.
  bool compiled(size_t i) const { return members_[i]->program != nullptr; }

  /// Books member `i`'s table bytes for an evaluation against `t` on
  /// `budget` — the same high-water charge the member's solo sweep would
  /// make.  False means the budget refused; the caller retires the member
  /// as memory-exhausted and must not call `EvalMember`.
  bool ChargeMember(size_t i, const Tree& t, Budget* budget);

  /// Evaluates member `i` against `t` and returns whether it matches
  /// (`strong` selects root-to-root matching).  With `suffix_only`, refills
  /// only the postorder suffix above `stable_limit`; precondition: the
  /// member's previous `EvalMember` used the same tree object and the
  /// nodes below `stable_limit` are unchanged (the grouped sweep guarantees
  /// this — an undecided member has evaluated every tree so far).
  /// `ChargeMember(i, t, ...)` must have succeeded for this tree.
  bool EvalMember(size_t i, const Tree& t, bool suffix_only,
                  NodeId stable_limit, bool strong, bool word_parallel,
                  EngineStats* stats);

 private:
  struct Member {
    const Tpq* q = nullptr;
    std::shared_ptr<const MatcherProgram> program;
    ProgramSweep psweep;
    MatcherWorkspace ws;
  };
  // unique_ptr slots: executors hold `TrackedBytes` and interior state whose
  // addresses must survive vector growth.
  std::vector<std::unique_ptr<Member>> members_;
};

}  // namespace tpc

#endif  // TPC_COMPILE_SWEEP_BANK_H_
