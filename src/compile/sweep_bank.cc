#include "compile/sweep_bank.h"

#include <utility>

namespace tpc {

size_t SweepBank::AddMember(const Tpq* q,
                            std::shared_ptr<const MatcherProgram> program) {
  auto member = std::make_unique<Member>();
  member->q = q;
  member->program = std::move(program);
  members_.push_back(std::move(member));
  return members_.size() - 1;
}

bool SweepBank::ChargeMember(size_t i, const Tree& t, Budget* budget) {
  Member& m = *members_[i];
  if (m.program != nullptr) return m.psweep.ChargeTables(t, budget);
  return m.ws.ChargeTables(*m.q, t, budget);
}

bool SweepBank::EvalMember(size_t i, const Tree& t, bool suffix_only,
                           NodeId stable_limit, bool strong,
                           EngineStats* stats) {
  Member& m = *members_[i];
  if (m.program != nullptr) {
    if (suffix_only) {
      m.psweep.EvalIncremental(*m.program, t, stable_limit, stats);
    } else {
      m.psweep.EvalFull(*m.program, t, stats);
    }
    return strong ? m.psweep.MatchesStrong() : m.psweep.MatchesWeak();
  }
  if (suffix_only) {
    m.ws.EvalIncremental(*m.q, t, stable_limit, stats);
  } else {
    m.ws.EvalFull(*m.q, t, stats);
  }
  return strong ? m.ws.MatchesStrong() : m.ws.MatchesWeak();
}

}  // namespace tpc
