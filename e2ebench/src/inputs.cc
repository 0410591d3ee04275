#include "inputs.h"

#include <algorithm>

namespace e2e {

namespace {

uint64_t Mix(uint64_t a, uint64_t b) {
  Rng r(a * 0x9e3779b97f4a7c15ULL ^ (b + 0x632be59bd9b4e019ULL));
  return r.Next();
}

void Shuffle(std::vector<int32_t>* v, Rng* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng->Below(i)]);
  }
}

std::vector<std::vector<int32_t>> ChildLists(const PatternTree& t) {
  std::vector<std::vector<int32_t>> kids(t.label.size());
  for (int32_t v = 1; v < t.size(); ++v) kids[t.parent[v]].push_back(v);
  return kids;
}

void AppendPath(const PatternTree& t,
                const std::vector<std::vector<int32_t>>& kids, int32_t v,
                std::string* out) {
  out->append(t.label[v]);
  const auto& c = kids[v];
  if (c.empty()) return;
  for (size_t i = 0; i + 1 < c.size(); ++i) {
    out->push_back('[');
    if (t.desc[c[i]]) out->append("//");
    AppendPath(t, kids, c[i], out);
    out->push_back(']');
  }
  out->append(t.desc[c.back()] ? "//" : "/");
  AppendPath(t, kids, c.back(), out);
}

int32_t CountDesc(const PatternTree& t) {
  int32_t n = 0;
  for (int32_t v = 1; v < t.size(); ++v) n += t.desc[v] ? 1 : 0;
  return n;
}

bool HasWildcard(const PatternTree& t) {
  return std::find(t.label.begin(), t.label.end(), "*") != t.label.end();
}

void EnsureWildcard(PatternTree* t, Rng* rng) {
  if (t->size() < 2 || HasWildcard(*t)) return;
  t->label[1 + rng->Below(t->size() - 1)] = "*";
}

void EnsureChildEdge(PatternTree* t, Rng* rng) {
  if (t->size() < 2 || CountDesc(*t) < t->size() - 1) return;
  t->desc[1 + rng->Below(t->size() - 1)] = false;
}

void AllDesc(PatternTree* t) {
  for (int32_t v = 1; v < t->size(); ++v) t->desc[v] = true;
}

}  // namespace

int32_t PatternTree::Add(int32_t parent_node, const std::string& l,
                         bool descendant) {
  label.push_back(l);
  parent.push_back(parent_node);
  desc.push_back(descendant);
  return size() - 1;
}

std::string PatternTree::Text() const {
  std::string out;
  if (!label.empty()) AppendPath(*this, ChildLists(*this), 0, &out);
  return out;
}

std::string PatternTree::PermutedText(Rng* rng) const {
  auto kids = ChildLists(*this);
  for (auto& c : kids) Shuffle(&c, rng);
  std::string out;
  if (!label.empty()) AppendPath(*this, kids, 0, &out);
  return out;
}

PatternTree PatternTree::WithRedundantBranch(Rng* rng) const {
  PatternTree out = *this;
  // Copy one leaf beside itself, preferring a child-edge leaf: a copied
  // subtree full of descendant edges would make the variant's first
  // minimization cost seconds, and one such pair would set a whole run's
  // tail.
  std::vector<int32_t> leaves, child_leaves;
  const auto kids = ChildLists(*this);
  for (int32_t v = 1; v < size(); ++v) {
    if (!kids[v].empty()) continue;
    leaves.push_back(v);
    if (!desc[v]) child_leaves.push_back(v);
  }
  const auto& pick = child_leaves.empty() ? leaves : child_leaves;
  if (pick.empty()) return out;
  const int32_t v = pick[rng->Below(pick.size())];
  out.Add(parent[v], label[v], desc[v]);
  return out;
}

PatternTree RandomPattern(const PatternSpec& spec, Rng* rng) {
  PatternTree t;
  auto pick_label = [&](bool allow_wild) {
    if (allow_wild && rng->Chance(spec.wildcard)) return std::string("*");
    return spec.prefix + std::to_string(rng->Below(spec.alphabet));
  };
  t.Add(-1, pick_label(false), false);
  for (int32_t i = 1; i < spec.size; ++i) {
    int32_t parent = i - 1;
    if (spec.branching && rng->Chance(0.5)) {
      parent = static_cast<int32_t>(rng->Below(i));
    }
    bool d = spec.desc;
    if (spec.child && spec.desc) d = rng->Chance(spec.desc_prob);
    t.Add(parent, pick_label(true), d);
  }
  return t;
}

PatternTree Generalize(const PatternTree& p, Rng* rng, bool perturb) {
  const auto kids = ChildLists(p);
  PatternTree q;
  std::vector<int32_t> image(p.size(), -1);
  for (int32_t v = 0; v < p.size(); ++v) {
    if (v > 0 && image[p.parent[v]] < 0) continue;
    if (v > 0 && kids[v].empty() && rng->Chance(0.25)) continue;
    std::string l = p.label[v];
    if (v > 0 && rng->Chance(0.3)) l = "*";
    if (perturb && rng->Chance(0.2)) l = p.label[v] == "*" ? "x" : p.label[v] + "x";
    const bool d = v > 0 && (p.desc[v] || rng->Chance(0.25));
    image[v] = q.Add(v == 0 ? -1 : image[p.parent[v]], l, d);
  }
  return q;
}

ConpFamily Conp(int32_t n, const std::string& prefix) {
  ConpFamily f;
  const int32_t root = f.p.Add(-1, prefix + "r", false);
  const std::string c = prefix + "c";
  for (int32_t i = 0; i < n; ++i) {
    const int32_t u = f.p.Add(root, prefix + "u", false);
    const int32_t a = f.p.Add(u, prefix + "a" + std::to_string(i), false);
    const int32_t b = f.p.Add(a, prefix + "b" + std::to_string(i), true);
    f.p.Add(b, c, false);
  }
  f.q_shallow = "*/*/*/" + c;
  f.q_yes = "*/*/*/*/" + c;
  f.q_no = "*/*/*/*/*/" + c;
  f.q_deep = "*/*/*/*/*/*/" + c;
  f.q_yes_desc = "*//*/*/*/" + c;
  return f;
}

std::string Dump(const std::vector<Query>& queries) {
  std::string out;
  for (const Query& q : queries) {
    out += q.p + "\t" + q.q + "\t" +
           (q.mode == tpc::Mode::kWeak ? "weak" : "strong") + "\n";
  }
  return out;
}

namespace {

// The six dispatcher routes, targeted by fragment (contain/containment.h):
// the service minimizes first, so the route actually taken is measured, not
// assumed.
enum RouteClass {
  kHom,          // q wildcard-free
  kMinCanon,     // q child-edge-free
  kSingleCanon,  // p descendant-free
  kPath,         // p a path query
  kChildFree,    // p child-edge-free
  kCanon,        // general coNP cell
  kNumRouteClasses
};

PatternSpec SpecFor(int32_t size, Rng* rng) {
  PatternSpec s;
  s.size = size;
  s.wildcard = 0.2;
  s.alphabet = 3;
  s.prefix = rng->Chance(0.5) ? "a" : "b";
  return s;
}

// Keeps the canonical model space bounded: at most `max_desc` descendant
// edges on the enumeration side.
void CapDesc(PatternTree* t, int32_t max_desc) {
  int32_t seen = 0;
  for (int32_t v = 1; v < t->size(); ++v) {
    if (t->desc[v] && ++seen > max_desc) t->desc[v] = false;
  }
}

// The first `n` nodes of `t` (parents precede children, so a prefix is a
// pattern).  The right-hand side's size sets the canonical chain bound, so
// batch right-hand sides are kept small.
PatternTree Truncate(const PatternTree& t, int32_t n) {
  PatternTree out = t;
  const size_t keep = static_cast<size_t>(std::min(n, t.size()));
  out.label.resize(keep);
  out.parent.resize(keep);
  out.desc.resize(keep);
  return out;
}

struct TreePair {
  PatternTree p, q;
  tpc::Mode mode = tpc::Mode::kWeak;
};

TreePair RouteTrees(int32_t cls, Rng* rng) {
  const int32_t size = 5 + static_cast<int32_t>(rng->Below(3));
  PatternSpec ps = SpecFor(size, rng);
  PatternTree p, q;
  const bool perturb = rng->Chance(0.4);
  switch (cls) {
    case kHom: {
      p = RandomPattern(ps, rng);
      q = Generalize(p, rng, perturb);
      for (auto& l : q.label) {
        if (l == "*") l = ps.prefix + "0";
      }
      break;
    }
    case kMinCanon: {
      p = RandomPattern(ps, rng);
      q = Generalize(p, rng, perturb);
      AllDesc(&q);
      EnsureWildcard(&q, rng);
      break;
    }
    case kSingleCanon: {
      ps.desc = false;
      p = RandomPattern(ps, rng);
      q = Generalize(p, rng, perturb);
      EnsureWildcard(&q, rng);
      EnsureChildEdge(&q, rng);
      break;
    }
    case kPath: {
      ps.branching = false;
      p = RandomPattern(ps, rng);
      q = Generalize(p, rng, perturb);
      EnsureWildcard(&q, rng);
      EnsureChildEdge(&q, rng);
      break;
    }
    case kChildFree: {
      ps.child = false;
      p = RandomPattern(ps, rng);
      PatternSpec qs = SpecFor(3 + static_cast<int32_t>(rng->Below(2)), rng);
      qs.prefix = ps.prefix;
      qs.wildcard = 0.4;
      q = rng->Chance(0.5) ? Generalize(p, rng, perturb) : RandomPattern(qs, rng);
      EnsureWildcard(&q, rng);
      EnsureChildEdge(&q, rng);
      break;
    }
    default: {
      p = RandomPattern(ps, rng);
      q = Generalize(p, rng, perturb);
      EnsureWildcard(&q, rng);
      EnsureChildEdge(&q, rng);
      break;
    }
  }
  CapDesc(&p, 4);
  const tpc::Mode mode = rng->Chance(0.2) ? tpc::Mode::kStrong : tpc::Mode::kWeak;
  return {std::move(p), std::move(q), mode};
}

Query RoutePair(int32_t cls, Rng* rng) {
  TreePair t = RouteTrees(cls, rng);
  return {t.p.Text(), t.q.Text(), t.mode};
}

// A query whose p carries one extra branch labelled `tag`, so it is new to
// every cache while keeping its route class.
Query TaggedPair(int32_t cls, Rng* rng, const std::string& tag) {
  Query out = RoutePair(cls, rng);
  const size_t cut = out.p.find_first_of("/[");
  out.p.insert(cut == std::string::npos ? out.p.size() : cut, "[" + tag + "]");
  return out;
}

}  // namespace

ServeUniverse MakeServeUniverse(uint64_t seed) {
  Rng rng(Mix(seed, 1));
  ServeUniverse u;
  // Items by kind: the six route classes, near-repeats, coNP groups and
  // random canonical groups.
  enum Kind { kVariant = kNumRouteClasses, kConpGroup, kRandomGroup, kNumKinds };
  std::vector<std::vector<std::vector<Query>>> kinds(kNumKinds);
  constexpr int32_t kPerClass = 300;
  for (int32_t cls = 0; cls < kNumRouteClasses; ++cls) {
    for (int32_t j = 0; j < kPerClass; ++j) {
      TreePair t = RouteTrees(cls, &rng);
      kinds[cls].push_back({{t.p.Text(), t.q.Text(), t.mode}});
      // Near-repeats: the same question spelled differently, as a sibling
      // permutation or with a redundant leaf that minimizes away.
      if (j % 4 == 0) {
        const std::string p = j % 8 == 0 ? t.p.PermutedText(&rng)
                                         : t.p.WithRedundantBranch(&rng).Text();
        kinds[kVariant].push_back({{p, t.q.PermutedText(&rng), t.mode}});
      }
    }
  }
  // Groups sharing one enumeration-side p: the coNP family, and random
  // canonical-route patterns with several right-hand sides.
  const int32_t conp_n[] = {4, 4, 4, 4, 4, 5, 5, 5, 6, 6};
  for (int32_t g = 0; g < 10; ++g) {
    ConpFamily f = Conp(conp_n[g], "g" + std::to_string(g) + "_");
    const std::string p = f.p.Text();
    kinds[kConpGroup].push_back({{p, f.q_yes, tpc::Mode::kWeak},
                                 {p, f.q_no, tpc::Mode::kWeak},
                                 {p, f.q_shallow, tpc::Mode::kWeak},
                                 {p, f.q_deep, tpc::Mode::kWeak},
                                 {p, f.q_yes_desc, tpc::Mode::kWeak}});
  }
  for (int32_t g = 0; g < 40; ++g) {
    PatternSpec ps = SpecFor(7, &rng);
    PatternTree p = RandomPattern(ps, &rng);
    CapDesc(&p, 4);
    std::vector<Query> group;
    for (int32_t m = 0; m < 3; ++m) {
      PatternTree q = Generalize(p, &rng, m == 2);
      EnsureWildcard(&q, &rng);
      EnsureChildEdge(&q, &rng);
      group.push_back({p.Text(), q.Text(), tpc::Mode::kWeak});
    }
    kinds[kRandomGroup].push_back(group);
  }
  // Ranks interleave the kinds in a fixed cycle, so every seed gives each
  // kind the same share of the zipf mass; the seed picks the items.
  for (auto& k : kinds) {
    std::vector<int32_t> order(k.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int32_t>(i);
    Shuffle(&order, &rng);
    std::vector<std::vector<Query>> shuffled;
    for (int32_t i : order) shuffled.push_back(std::move(k[i]));
    k = std::move(shuffled);
  }
  const int32_t cycle[] = {kHom,     kMinCanon, kSingleCanon, kVariant,
                           kPath,    kChildFree, kCanon,      kRandomGroup,
                           kVariant, kHom,      kCanon,       kConpGroup};
  std::vector<size_t> next(kNumKinds, 0);
  for (bool added = true; added;) {
    added = false;
    for (int32_t kind : cycle) {
      if (next[kind] < kinds[kind].size()) {
        u.items.push_back(std::move(kinds[kind][next[kind]++]));
        added = true;
      }
    }
  }
  for (const auto& item : u.items) u.pairs += static_cast<int64_t>(item.size());

  Rng lr(Mix(seed, 3));
  for (int32_t j = 0; j < 400; ++j) {
    u.light.push_back(RoutePair(j % 2 == 0 ? kHom : kPath, &lr));
  }
  return u;
}

std::vector<Query> TailItem(uint64_t seed, uint64_t k) {
  Rng rng(Mix(seed ^ 0x7a11ULL, k));
  const std::string tag = "t" + std::to_string(k);
  if (k % 4 == 3) {
    const ConpFamily f = Conp(4, tag + "_");
    const std::string p = f.p.Text();
    return {{p, f.q_yes, tpc::Mode::kWeak},
            {p, f.q_yes_desc, tpc::Mode::kWeak},
            {p, f.q_no, tpc::Mode::kWeak}};
  }
  return {TaggedPair(static_cast<int32_t>(rng.Below(kNumRouteClasses)), &rng, tag)};
}

HeavyStream::HeavyStream(const ServeUniverse* universe, uint64_t seed)
    : universe_(universe),
      seed_(seed),
      rng_(Mix(seed, 4)),
      zipf_(universe->items.size(), kZipfExponent) {}

const std::vector<Query>& HeavyStream::NextItem(bool* novel) {
  *novel = rng_.Chance(kTailShare);
  if (*novel) {
    tail_ = TailItem(seed_, tail_next_++);
    return tail_;
  }
  return universe_->items[zipf_.Draw(&rng_)];
}

std::vector<Query> ColdBatch(uint64_t seed, uint64_t index) {
  Rng rng(Mix(seed ^ 0xc01dULL, index));
  const std::string tag = "z" + std::to_string(index);
  std::vector<Query> batch;
  // The shared-p half, in two groups of the same shape in every batch (so
  // arrival latencies form one mode, not one per batch kind): a coNP family
  // member with its four right-hand sides, and a random pattern with four
  // generalizations.
  ConpFamily f = Conp(4, "k" + std::to_string(rng.Below(4)) + "_");
  f.p.Add(0, tag, false);
  const std::string conp_p = f.p.Text();
  for (const std::string& q : {f.q_yes, f.q_yes_desc, f.q_no, f.q_deep}) {
    batch.push_back({conp_p, q, tpc::Mode::kWeak});
  }
  PatternSpec ps = SpecFor(7, &rng);
  PatternTree p = RandomPattern(ps, &rng);
  CapDesc(&p, 4);
  p.Add(0, tag, false);
  const std::string p_text = p.Text();
  while (static_cast<int32_t>(batch.size()) < kBatchSize / 2) {
    const bool perturb = rng.Chance(0.5);
    PatternTree q = Truncate(Generalize(p, &rng, perturb), 6);
    EnsureWildcard(&q, &rng);
    EnsureChildEdge(&q, &rng);
    batch.push_back({p_text, q.Text(), tpc::Mode::kWeak});
  }
  // The independent half.
  for (int32_t j = 0; static_cast<int32_t>(batch.size()) < kBatchSize; ++j) {
    batch.push_back(TaggedPair(kCanon, &rng, tag + "_" + std::to_string(j)));
  }
  return batch;
}

Query ColdLight(uint64_t seed, uint64_t index) {
  Rng rng(Mix(seed ^ 0x11647ULL, index));
  return TaggedPair(index % 2 == 0 ? kHom : kPath, &rng,
                    "w" + std::to_string(index));
}

namespace {

// A DTD over l0..l{k-1} rooted at l0 where each rule names only higher
// labels, so every symbol derives a finite tree (the language is nonempty).
std::string RandomDtdText(Rng* rng, int32_t k) {
  auto name = [](int32_t i) { return "l" + std::to_string(i); };
  std::string out = "root: l0;\n";
  for (int32_t i = 0; i + 2 < k; ++i) {
    std::string rule;
    const int32_t atoms = 1 + static_cast<int32_t>(rng->Below(3));
    for (int32_t a = 0; a < atoms; ++a) {
      const int32_t j = i + 1 + static_cast<int32_t>(rng->Below(k - i - 1));
      std::string atom = name(j);
      if (rng->Chance(0.3)) {
        const int32_t j2 = i + 1 + static_cast<int32_t>(rng->Below(k - i - 1));
        atom = "(" + atom + " | " + name(j2) + ")";
      }
      const double r = rng->Unit();
      if (r < 0.35) {
        atom += "*";
      } else if (r < 0.6) {
        atom += "?";
      }
      rule += (a > 0 ? " " : "") + atom;
    }
    out += name(i) + " -> " + rule + ";\n";
  }
  return out;
}

}  // namespace

SchemaInputs MakeSchemaRandom(uint64_t seed) {
  Rng rng(Mix(seed, 5));
  SchemaInputs in;
  constexpr int32_t kDtds = 64;
  constexpr int32_t kLabels = 6;
  for (int32_t d = 0; d < kDtds; ++d) in.dtds.push_back(RandomDtdText(&rng, kLabels));
  auto pattern = [&](int32_t size, bool branching) {
    PatternSpec s;
    s.size = size;
    s.branching = branching;
    s.wildcard = 0.25;
    s.alphabet = kLabels;
    s.prefix = "l";
    PatternTree t = RandomPattern(s, &rng);
    t.label[0] = rng.Chance(0.6) ? "l0" : t.label[0];
    return t.Text();
  };
  for (int32_t d = 0; d < kDtds; ++d) {
    const tpc::Mode mode = rng.Chance(0.25) ? tpc::Mode::kStrong : tpc::Mode::kWeak;
    // One statement per draw: the draw order must not depend on the
    // compiler's argument evaluation order.
    SchemaCall sat, valid, contained, path_engine, path1, path2;
    sat.kind = SchemaCall::kSat;
    valid.kind = SchemaCall::kValid;
    contained.kind = SchemaCall::kContained;
    path_engine.kind = SchemaCall::kSat;
    path1.kind = path2.kind = SchemaCall::kPathSat;
    for (SchemaCall* c : {&sat, &valid, &contained, &path_engine, &path1, &path2}) {
      c->dtd = d;
      c->mode = mode;
    }
    sat.p = pattern(4, true);
    valid.q = pattern(3, true);
    contained.p = pattern(4, true);
    contained.q = pattern(3, true);
    path1.p = pattern(4, false);
    path2.p = pattern(3, false);
    // The engine on a path pattern, checked against the automata route.
    path_engine.p = path1.p;
    in.calls.insert(in.calls.end(), {sat, valid, contained, path_engine});
    in.path_calls.insert(in.path_calls.end(), {path1, path2});
  }
  return in;
}

std::string Dump(const SchemaInputs& inputs) {
  std::string out;
  for (const std::string& d : inputs.dtds) out += d + "--\n";
  std::vector<SchemaCall> all = inputs.calls;
  all.insert(all.end(), inputs.path_calls.begin(), inputs.path_calls.end());
  for (const SchemaCall& c : all) {
    out += std::to_string(c.kind) + "\t" + std::to_string(c.dtd) + "\t" + c.p +
           "\t" + c.q + "\t" + (c.mode == tpc::Mode::kWeak ? "weak" : "strong") +
           "\n";
  }
  return out;
}

}  // namespace e2e
