// Seeded input generation for the three workloads.  Everything here is a
// pure function of the seed and produces wire text (patterns in the
// XPath-like syntax, DTDs in the `root: a; a -> b c*;` syntax), so the
// program under test only ever sees generated inputs.

#ifndef E2EBENCH_INPUTS_H_
#define E2EBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "contain/containment.h"
#include "util.h"

namespace e2e {

/// A pattern as the generator builds it: node 0 is the root, parents come
/// before children, `desc[v]` is the kind of v's incoming edge.
struct PatternTree {
  std::vector<std::string> label;
  std::vector<int32_t> parent;
  std::vector<bool> desc;

  int32_t Add(int32_t parent_node, const std::string& l, bool descendant);
  int32_t size() const { return static_cast<int32_t>(label.size()); }
  /// Wire text with children in creation order.
  std::string Text() const;
  /// Wire text with every node's children shuffled (a sibling permutation:
  /// the same query, spelled differently).
  std::string PermutedText(Rng* rng) const;
  /// A copy with one leaf duplicated beside itself: an equivalent query
  /// whose extra branch minimizes away.
  PatternTree WithRedundantBranch(Rng* rng) const;
};

/// Shape of a random pattern.
struct PatternSpec {
  int32_t size = 5;
  bool child = true;       // child edges allowed
  bool desc = true;        // descendant edges allowed
  double desc_prob = 0.4;  // when both are allowed
  double wildcard = 0.0;   // chance a non-root node is `*`
  bool branching = true;
  int32_t alphabet = 3;
  std::string prefix = "a";  // labels are prefix0, prefix1, ...
};

PatternTree RandomPattern(const PatternSpec& spec, Rng* rng);

/// A generalization of `p`: some labels become `*`, some child edges become
/// descendant edges, some leaf branches are dropped.  p is contained in the
/// result (a homomorphism exists), unless `perturb` also renames a label.
PatternTree Generalize(const PatternTree& p, Rng* rng, bool perturb);

/// The coNP family of Table 1 (Thm 3.3(2)) with its labels prefixed:
/// p_n = r[u/a0//b0/c]...[u/a{n-1}//b{n-1}/c] (`tpc::BuildConpFamily`); `Conp(n).q_yes` = */*/*/*/c holds by
/// a full canonical sweep, `q_no` = */*/*/*/*/c is refuted.
struct ConpFamily {
  PatternTree p;
  std::string q_yes, q_no;
  /// Further right-hand sides over the same p: c at depth >= 3 and >= 6,
  /// and *//*/*/*/c (contained, the same size and chain bound as q_yes and
  /// no homomorphism into p, so it sweeps in one group with q_yes).
  std::string q_shallow, q_deep, q_yes_desc;
};
ConpFamily Conp(int32_t n, const std::string& prefix);

struct Query {
  std::string p;
  std::string q;
  tpc::Mode mode = tpc::Mode::kWeak;
};

/// Serialized form of a query list, for byte-identity checks.
std::string Dump(const std::vector<Query>& queries);

// ---------------------------------------------------------------- serve_mixed

/// The heavy tenant's universe: items drawn zipf(kZipfExponent) by rank; an
/// item is one pair or a group of pairs sharing the enumeration-side p,
/// sent back to back so the daemon's coalescing window sees them together.
struct ServeUniverse {
  std::vector<std::vector<Query>> items;
  std::vector<Query> light;  // PTIME pairs of the light tenant
  int64_t pairs = 0;         // total pairs over all items
};
inline constexpr double kZipfExponent = 1.1;
inline constexpr double kTailShare = 0.01;  // draws that are never-seen pairs

ServeUniverse MakeServeUniverse(uint64_t seed);

/// The k-th never-seen item of the heavy tail (distinct for every k: its
/// labels carry k).  One in four is a fresh coNP family member with two
/// contained right-hand sides of equal size and a refuted one, sent back
/// to back, so misses sharing p reach the daemon's coalescing window
/// together; the rest are single pairs of a random route class.
std::vector<Query> TailItem(uint64_t seed, uint64_t k);

/// An endless, deterministic item sequence over a universe: each call
/// yields the next heavy item (a zipf draw, or a tail item), whose members
/// are sent back to back.  The same seed yields the same sequence.
class HeavyStream {
 public:
  HeavyStream(const ServeUniverse* universe, uint64_t seed);
  /// Next item, valid until the next call; `*novel` is set for tail items.
  const std::vector<Query>& NextItem(bool* novel);

 private:
  const ServeUniverse* universe_;
  uint64_t seed_;
  Rng rng_;
  Zipf zipf_;
  uint64_t tail_next_ = 0;
  std::vector<Query> tail_;
};

// ---------------------------------------------------------------- batch_cold

inline constexpr int32_t kBatchSize = 16;

/// The `index`-th arrival batch: half the pairs share one enumeration-side
/// p (a coNP family member or a random TPQ(/,//,*) pattern), the rest are
/// independent random canonical-route pairs.  Batch p patterns carry a
/// branch labelled by (seed, index), so no pair repeats within a run.
std::vector<Query> ColdBatch(uint64_t seed, uint64_t index);

/// The `index`-th single PTIME request sent between arrivals.
Query ColdLight(uint64_t seed, uint64_t index);

// ---------------------------------------------------------------- schema_dtd

struct SchemaCall {
  enum Kind { kSat, kValid, kContained, kPathSat };
  Kind kind = kSat;
  int32_t dtd = 0;  // index into SchemaInputs::dtds
  std::string p, q;
  tpc::Mode mode = tpc::Mode::kWeak;
  /// Heavy fixed cells have an independent reference; `expect_yes` holds it.
  bool heavy = false;
  bool has_expect = false;
  bool expect_yes = false;
  std::string name;  // heavy cells only
};

struct SchemaInputs {
  std::vector<std::string> dtds;       // DTD text
  std::vector<SchemaCall> calls;       // engine decisions
  std::vector<SchemaCall> path_calls;  // SatisfiablePathWithDtd (PTIME)
};

/// The seed's random DTDs and patterns.  The fixed heavy cells come from
/// the library's reduction builders and are built by the workload.
SchemaInputs MakeSchemaRandom(uint64_t seed);

std::string Dump(const SchemaInputs& inputs);

}  // namespace e2e

#endif  // E2EBENCH_INPUTS_H_
