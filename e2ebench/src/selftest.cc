// Tests of the benchmark's own arithmetic and input generation: tail-rung
// selection from the sample count, nearest-rank percentiles, sliced tails,
// span self time with nested and overlapping children, and byte-identical
// inputs for the same seed.  Exit 0 when every check passes.

#include <iostream>
#include <string>

#include "base/label.h"
#include "bench.h"
#include "dtd/dtd.h"
#include "inputs.h"
#include "pattern/tpq_parser.h"
#include "reductions/hardness_families.h"

namespace {

int failures = 0;

void Check(bool ok, const std::string& what) {
  if (!ok) {
    std::cerr << "FAIL: " << what << "\n";
    ++failures;
  }
}

void TestTailRung() {
  using e2e::TailRung;
  Check(TailRung(0) == 0, "no samples: no rung");
  Check(TailRung(19) == 0, "19 samples: p50 leaves 9 beyond");
  Check(TailRung(20) == 50, "20 samples: p50 leaves 10 beyond");
  Check(TailRung(99) == 50, "99 samples: p90 leaves 9 beyond");
  Check(TailRung(100) == 90, "100 samples: p90");
  Check(TailRung(999) == 90, "999 samples: p99 leaves 9 beyond");
  Check(TailRung(1000) == 99, "1000 samples: p99");
  Check(TailRung(5000000) == 99, "the ladder stops at p99");
  Check(TailRung(5000000, 90) == 90, "a cap at p90 stops the ladder there");
  Check(TailRung(99, 90) == 50, "below the cap the sample count decides");

  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(1001 - i);  // unsorted input
  const e2e::Tail t = e2e::TailOf(v);
  Check(t.pct == 99 && t.value == 990 && t.samples == 1000,
        "tail of 1..1000 is p99 = 990");
  Check(e2e::TailOf({3, 1, 2}).value == 3, "too few samples: the maximum");
  Check(e2e::Percentile(v, 50) == 500, "nearest-rank median of 1..1000");
  Check(e2e::Median({5}) == 5 && e2e::Median({}) == 0, "median edge cases");

  // 10 windows of 1 s: nine hold 1000 events, one holds a burst of 50000;
  // events outside the phase are ignored.
  std::vector<int64_t> events = {-5, 10000000000LL};
  for (int w = 0; w < 10; ++w) {
    for (int k = 0; k < (w == 4 ? 50000 : 1000); ++k) {
      events.push_back(w * 1000000000LL + k * 1000);
    }
  }
  Check(e2e::MedianWindowRate(events, 0, 10000000000LL) == 1000,
        "window rate: the median window, not the burst");
  // Too few events for slices: the plain rate.
  Check(e2e::MedianWindowRate({1, 2, 3, 4}, 0, 2000000000LL) == 2,
        "window rate: one slice below the minimum count");

  // Timed samples, 200 a second with values 1..200 each second, and the
  // second `slow` ten times slower.
  auto timed = [](int seconds, int slow, std::vector<double>* lat,
                  std::vector<int64_t>* at) {
    lat->clear();
    at->clear();
    for (int w = 0; w < seconds; ++w) {
      for (int k = 1; k <= 200; ++k) {
        lat->push_back(w == slow ? 10.0 * k : k);
        at->push_back(w * 1000000000LL + k * 1000000LL);
      }
    }
  };
  std::vector<double> lat;
  std::vector<int64_t> at;
  // 800 samples: p90, which needs 100 a slice, so four slices of 200.
  timed(4, 2, &lat, &at);
  const e2e::Tail sliced = e2e::SlicedTail(lat, at, 0, 4000000000LL);
  Check(sliced.pct == 90 && sliced.slices == 4 && sliced.value == 180,
        "sliced tail: the median of the slices' p90s, not the slow slice");
  Check(e2e::TailOf(lat).value > 200, "...which moves the whole run's p90");
  // 2000 samples: p99, which needs 1000 a slice, too few for two slices.
  timed(10, 7, &lat, &at);
  const e2e::Tail whole = e2e::SlicedTail(lat, at, 0, 10000000000LL);
  Check(whole.pct == 99 && whole.slices == 1 &&
            whole.value == e2e::TailOf(lat).value,
        "sliced tail: one slice is the whole run's tail");
  // The same 2000 samples capped at p90: ten slices of 200.
  const e2e::Tail capped = e2e::SlicedTail(lat, at, 0, 10000000000LL, 90);
  Check(capped.pct == 90 && capped.slices == 10 && capped.value == 180,
        "sliced tail capped at p90: the median of ten slices' p90s");
}

void TestSelfTime() {
  e2e::Tracer t;
  // root [0,100]: children a [10,40] and b [30,60] overlap; a has a child
  // g [15,20].  A second root r2 [150,160].
  const int32_t root = t.Add({"root", 0, 100, -1, 1});
  const int32_t a = t.Add({"a", 10, 40, root, 1});
  t.Add({"b", 30, 60, root, 1});
  t.Add({"g", 15, 20, a, 1});
  t.Add({"r2", 150, 160, -1, 2});
  const std::vector<int64_t> self = t.SelfTimes();
  Check(self[0] == 50, "root self = 100 - union([10,40],[30,60])");
  Check(self[1] == 25, "a self = 30 - 5");
  Check(self[2] == 30, "b self = 30");
  Check(self[3] == 5 && self[4] == 10, "leaf self = duration");
  Check(t.Uncovered(0, 200) == 90, "uncovered = 200 - 100 - 10");
  Check(t.Uncovered(50, 155) == 50, "uncovered clips to the window");

  // A child that sticks out of its parent counts only inside it.
  e2e::Tracer u;
  const int32_t p = u.Add({"p", 0, 10, -1, 1});
  u.Add({"c", 5, 20, p, 1});
  Check(u.SelfTimes()[0] == 5, "children clip to the parent");

  // Scoped spans nest through the stack.
  e2e::Tracer s;
  {
    e2e::ScopedSpan outer(&s, "outer", 7);
    e2e::ScopedSpan inner(&s, "inner", 7);
  }
  Check(s.spans().size() == 2 && s.spans()[1].parent == 0 &&
            s.spans()[0].parent == -1 && s.spans()[1].request == 7,
        "scoped spans record their parent and request");
}

void TestInputs() {
  using namespace e2e;
  for (uint64_t seed : {1ULL, 42ULL}) {
    const ServeUniverse a = MakeServeUniverse(seed);
    const ServeUniverse b = MakeServeUniverse(seed);
    std::string da, db;
    for (const auto& item : a.items) da += Dump(item) + "--\n";
    for (const auto& item : b.items) db += Dump(item) + "--\n";
    da += Dump(a.light);
    db += Dump(b.light);
    Check(!da.empty() && da == db, "serve universe is byte-identical per seed");
    HeavyStream sa(&a, seed), sb(&b, seed);
    std::string ha, hb;
    for (int i = 0; i < 5000; ++i) {
      bool n1 = false, n2 = false;
      ha += Dump(sa.NextItem(&n1));
      hb += Dump(sb.NextItem(&n2));
    }
    Check(ha == hb, "heavy stream is identical per seed");
    Check(Dump(ColdBatch(seed, 3)) == Dump(ColdBatch(seed, 3)) &&
              Dump({ColdLight(seed, 3)}) == Dump({ColdLight(seed, 3)}),
          "cold batches are byte-identical per seed");
    Check(Dump(MakeSchemaRandom(seed)) == Dump(MakeSchemaRandom(seed)),
          "schema inputs are byte-identical per seed");
  }
  Check(Dump(ColdBatch(1, 0)) != Dump(ColdBatch(2, 0)),
        "different seeds give different batches");
  Check(Dump(ColdBatch(1, 0)) != Dump(ColdBatch(1, 1)),
        "batches of one run differ");

  // Every generated input parses.
  tpc::LabelPool pool;
  auto parses = [&](const std::string& text) {
    tpc::ParseDiagnostic diag;
    return tpc::ParseTpqChecked(text, &pool, &diag).has_value();
  };
  bool all = true;
  const ServeUniverse u = MakeServeUniverse(5);
  for (const auto& item : u.items) {
    for (const Query& q : item) all = all && parses(q.p) && parses(q.q);
  }
  for (uint64_t i = 0; i < 50; ++i) {
    for (const Query& q : ColdBatch(5, i)) all = all && parses(q.p) && parses(q.q);
    for (const Query& t : TailItem(5, i)) all = all && parses(t.p) && parses(t.q);
  }
  Check(all, "generated patterns parse");
  const SchemaInputs s = MakeSchemaRandom(5);
  for (const std::string& d : s.dtds) {
    tpc::ParseDiagnostic diag;
    std::optional<tpc::Dtd> dtd = tpc::ParseDtdChecked(d, &pool, &diag);
    Check(dtd.has_value() && !dtd->IsEmptyLanguage(),
          "generated DTD parses and is nonempty: " + d);
  }

  // The coNP family spelled by the generator is the library's.
  tpc::LabelPool fam;
  const tpc::ConpFamilyInstance lib = tpc::BuildConpFamily(5, &fam);
  const ConpFamily mine = Conp(5, "");
  Check(ParseOrDie(mine.p.Text(), &fam) == lib.p &&
            ParseOrDie(mine.q_yes, &fam) == lib.q_yes &&
            ParseOrDie(mine.q_no, &fam) == lib.q_no,
        "Conp(n) matches BuildConpFamily(n)");
}

}  // namespace

int main() {
  TestTailRung();
  TestSelfTime();
  TestInputs();
  if (failures > 0) {
    std::cerr << failures << " check(s) failed\n";
    return 1;
  }
  std::cout << "e2ebench selftest: all checks passed\n";
  return 0;
}
