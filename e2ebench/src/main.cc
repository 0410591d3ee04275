// tpc_e2e: one run of one workload of the end-to-end benchmark.
//
//   tpc_e2e --workload <serve_mixed|batch_cold|schema_dtd> --seed <n>
//           --seconds <s> --trace <0|1> --work-dir <dir> [--stamp k=v]...
//
// Prints a report line (stamp, tail rungs and sample counts, failed share,
// input sizes), then, as the last line, the result:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones.  With --trace 1 the
// workload runs twice on the same seed, untraced and then traced; the
// metrics are the per-layer ones plus the tracing overhead (traced minus
// untraced end-to-end numbers), and the spans go to
// <work-dir>/spans-<workload>-<seed>.tsv.  Exit 3 marks an invalid run (the
// load generator fell behind), exit 2 a usage or set-up error.

#include <unistd.h>

#include <cstdlib>
#include <iostream>

#include "bench.h"

namespace e2e {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

const MetricSpec kEndToEnd[] = {
    {"verdicts_per_s", "1/s"}, {"latency_p50_us", "us"},
    {"latency_tail_us", "us"}, {"light_p50_us", "us"},
    {"light_tail_us", "us"},   {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

const MetricSpec kPerLayer[] = {
    {"serve.overhead_us", "us"},
    {"serve.coalesced_per_group", "count"},
    {"serve.shed_share", "share"},
    {"loadgen.late_p99_us", "us"},
    {"loadgen.cpu_share", "share"},
    {"pattern.parse_ns", "ns"},
    {"pattern.digest_ns", "ns"},
    {"pattern.canonical_build_ns_per_tree", "ns"},
    {"service.cache_hit_share", "share"},
    {"service.stitch_share", "share"},
    {"service.borrow_share", "share"},
    {"service.prefilter_accept_share", "share"},
    {"service.prefilter_refute_share", "share"},
    {"service.dedup_share", "share"},
    {"service.dispatch_share", "share"},
    {"service.fast_tier_us", "us"},
    {"service.evictions_per_kquery", "count"},
    {"contain.minimize_us", "us"},
    {"contain.route_share.homomorphism", "share"},
    {"contain.route_share.minimal_canonical", "share"},
    {"contain.route_share.single_canonical", "share"},
    {"contain.route_share.path_in_tpq", "share"},
    {"contain.route_share.childfree_in_tpq", "share"},
    {"contain.route_share.canonical_enumeration", "share"},
    {"contain.ptime_us", "us"},
    {"contain.sweep_us", "us"},
    {"contain.trees_per_decision", "count"},
    {"contain.rebuilds_per_decision", "count"},
    {"contain.group_size", "count"},
    {"contain.retired_early_share", "share"},
    {"compile.compile_us", "us"},
    {"compile.exec_share", "share"},
    {"compile.programs_per_kquery", "count"},
    {"match.eval_ns_per_tree", "ns"},
    {"match.words_per_tree", "count"},
    {"schema.decide_ms", "ms"},
    {"schema.configs_per_decision", "count"},
    {"schema.horizontal_nodes_per_decision", "count"},
    {"schema.subsumed_share", "share"},
    {"automata.unions_memoized_per_decision", "count"},
    {"automata.state_sets_per_decision", "count"},
    {"automata.det_states_per_decision", "count"},
    {"dtd.automaton_build_us", "us"},
    {"persist.load_ms", "ms"},
    {"engine.steps_per_decision", "count"},
    {"engine.bytes_peak_kb", "KiB"},
    {"trace.unattributed_share", "share"},
};

int Usage() {
  std::cerr << "usage: tpc_e2e --workload <serve_mixed|batch_cold|schema_dtd> "
               "--seed <n> --seconds <s> --trace <0|1> --work-dir <dir> "
               "[--stamp key=value]...\n";
  return 2;
}

RunResult Run(const Options& opt, Tracer* tracer) {
  if (opt.workload == "serve_mixed") return RunServeMixed(opt, tracer);
  if (opt.workload == "batch_cold") return RunBatchCold(opt, tracer);
  return RunSchemaDtd(opt, tracer);
}

// The first reading of a name wins: workloads add their own readings
// before the shared layer probe's.
double Lookup(const RunResult& r, const std::string& name,
              bool* found = nullptr) {
  for (const Metric& m : r.metrics) {
    if (m.name == name) {
      if (found != nullptr) *found = true;
      return m.value;
    }
  }
  if (found != nullptr) *found = false;
  return 0;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  Json out;
  for (const Metric& m : metrics) {
    out.Raw(m.name, Json().Num("value", m.value).Str("unit", m.unit).Dump());
  }
  return out.Dump();
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  using namespace e2e;
  Options opt;
  std::vector<std::pair<std::string, std::string>> stamps;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      trace = std::atoi(value.c_str());
    } else if (flag == "--work-dir") {
      opt.work_dir = value;
    } else if (flag == "--stamp") {
      const size_t eq = value.find('=');
      if (eq == std::string::npos) return Usage();
      stamps.emplace_back(value.substr(0, eq), value.substr(eq + 1));
    } else {
      return Usage();
    }
  }
  if ((opt.workload != "serve_mixed" && opt.workload != "batch_cold" &&
       opt.workload != "schema_dtd") ||
      opt.seconds < 1 || (trace != 0 && trace != 1) || opt.work_dir.empty()) {
    return Usage();
  }
  opt.trace = trace == 1;
  const std::string self = argv[0];
  const size_t slash = self.rfind('/');
  opt.bin_dir = slash == std::string::npos ? "." : self.substr(0, slash);

#if !defined(__OPTIMIZE__)
  std::cerr << "tpc_e2e: refusing to record results from an unoptimised "
               "build\n";
  return 2;
#endif

  Json stamp;
  for (const auto& [k, v] : stamps) stamp.Str(k, v);
  stamp.Str("compiler", __VERSION__)
      .Bool("optimized", true)
#ifdef NDEBUG
      .Bool("ndebug", true)
#else
      .Bool("ndebug", false)
#endif
      .Int("nproc", sysconf(_SC_NPROCESSORS_ONLN))
      .Int("seed", static_cast<int64_t>(opt.seed))
      .Str("workload", opt.workload)
      .Int("seconds", opt.seconds)
      .Bool("trace", opt.trace);

  RunResult result = Run(opt, nullptr);
  std::vector<Metric> out;
  Json report;
  report.Raw("stamp", stamp.Dump()).Raw("untraced", result.info.Dump());
  if (opt.trace) {
    Tracer tracer;
    RunResult traced = Run(opt, &tracer);
    std::vector<std::string> unmeasured;
    for (const MetricSpec& m : kPerLayer) {
      bool found = false;
      const double v = Lookup(traced, m.name, &found);
      if (!found) unmeasured.push_back(m.name);
      out.push_back({m.name, v, m.unit});
    }
    // The tracing overhead: traced minus untraced end-to-end numbers.
    for (const MetricSpec& m : kEndToEnd) {
      out.push_back({std::string("trace.overhead.") + m.name,
                     Lookup(traced, m.name) - Lookup(result, m.name), m.unit});
    }
    std::string spans = opt.work_dir + "/spans-" + opt.workload + "-" +
                        std::to_string(opt.seed) + ".tsv";
    if (!tracer.Write(spans)) spans = "(not written)";
    Json self_time;
    for (const auto& [name, ns] : tracer.SelfTimeByName()) {
      self_time.Num(name, ns / 1e6);
    }
    std::string not_measured = "[";
    for (size_t i = 0; i < unmeasured.size(); ++i) {
      not_measured += (i ? ", " : "") + JsonQuote(unmeasured[i]);
    }
    not_measured += "]";
    report.Raw("traced", traced.info.Dump())
        .Raw("self_time_ms", self_time.Dump())
        .Raw("zero_on_this_workload", not_measured)
        .Str("spans", spans)
        .Int("spans_recorded", static_cast<int64_t>(tracer.spans().size()));
    result.correct = result.correct && traced.correct;
    result.attempted += traced.attempted;
    result.failed += traced.failed;
    result.checked += traced.checked;
    if (result.invalid.empty()) result.invalid = traced.invalid;
  } else {
    for (const MetricSpec& m : kEndToEnd) {
      out.push_back({m.name, Lookup(result, m.name), m.unit});
    }
  }
  report.Int("verdicts_checked", result.checked)
      .Num("failed_share",
           result.attempted > 0
               ? static_cast<double>(result.failed) / result.attempted
               : 0)
      .Raw("metrics", MetricsJson(out));
  std::cout << "report " << report.Dump() << std::endl;
  if (!result.invalid.empty()) {
    std::cerr << "tpc_e2e: run invalid: " << result.invalid << "\n";
    return 3;
  }
  std::cout << Json()
                   .Bool("correct", result.correct)
                   .Int("attempted", result.attempted)
                   .Int("failed", result.failed)
                   .Raw("metrics", MetricsJson(out))
                   .Dump()
            << std::endl;
  return 0;
}
