// batch_cold: the sweep path, called in process.  Arrival batches of pairs
// that never repeat go through `QueryService::ContainsBatch` (closed loop,
// one batch in flight) with a verdict cache smaller than the run's working
// set, so the fast tiers rarely answer and the time goes to minimize,
// dispatch, enumerate, compile and match, while the cache churns on its
// write side.  One PTIME single call follows each arrival (the light class).

#include "bench.h"
#include "inputs.h"
#include "service/query_service.h"
#include "service/verdict_cache.h"

namespace e2e {

namespace {

// One engine thread: with two, every arrival's fan-out woke a second vCPU,
// and on a shared 4-vCPU machine those wake-ups swung throughput by 30%
// between consecutive runs as the host's steal time changed.
constexpr int kEngineThreads = 1;
constexpr int64_t kCacheBytes = 256 << 10;
// Set-up takes microseconds, so many repeats steady its median.
constexpr int kSetupRepeats = 101;
// Peak memory is read when this many arrivals have finished (or at the end
// of a run that finishes fewer), so it does not grow with the number of
// arrivals a faster build fits into the measured phase.
constexpr uint64_t kRssArrivals = 500;

// What the reference check after the phase keeps of each pair.
enum Verdict : uint8_t { kUndecided, kContained, kRefuted };

}  // namespace

RunResult RunBatchCold(const Options& opt, Tracer* tracer) {
  RunResult res;
  tpc::ServiceOptions service_options;
  service_options.cache_bytes = kCacheBytes;
  tpc::EngineConfig config;
  config.threads = kEngineThreads;

  // Set-up: the context and the service.
  const bool rss_reset = ResetPeakRss();
  std::vector<double> setups;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const int64_t t0 = NowNs();
    tpc::LabelPool pool;
    tpc::EngineContext ctx(config);
    tpc::QueryService service(&pool, &ctx, service_options);
    setups.push_back((NowNs() - t0) / 1e9);
  }
  tpc::LabelPool pool;
  tpc::EngineContext ctx(config);
  tpc::QueryService service(&pool, &ctx, service_options);

  // Each answer is checked as its arrival completes, on a paused clock:
  // its counterexample is replayed and only its verdict is kept, in arrival
  // order, for the reference check after the phase (which generates the
  // pairs again from the seed).
  std::vector<uint8_t> verdicts;
  std::vector<int64_t> ok_ns;  // completion times of decided verdicts
  int64_t working_set = 0;     // verdict-cache bytes of the decided verdicts
  int64_t paused_ns = 0;
  auto clock = [&] { return NowNs() - paused_ns; };
  auto record = [&](const tpc::Tpq& p, const tpc::Tpq& q, tpc::Mode mode,
                    const tpc::ContainmentResult& r, int64_t t1) {
    if (r.outcome != tpc::Outcome::kDecided) {
      verdicts.push_back(kUndecided);
      return;
    }
    verdicts.push_back(r.contained ? kContained : kRefuted);
    ok_ns.push_back(t1 - paused_ns);
    tpc::VerdictEntry entry;
    entry.contained = r.contained;
    entry.counterexample_lengths = r.counterexample_lengths;
    working_set += tpc::VerdictEntryCost(tpc::VerdictKey{}, entry);
    if (!r.contained && r.counterexample &&
        !WitnessRefutes(p, q, mode, *r.counterexample)) {
      res.Wrong("batch_cold counterexample does not refute " +
                r.counterexample->ToString(pool));
    }
  };
  std::vector<double> arrival_us, light_us;
  std::vector<int64_t> arrival_at, light_at;  // completion times of those
  ServiceAccount account;
  double rss = 0;

  const int64_t t_start = NowNs();
  const int64_t t_end = t_start + static_cast<int64_t>(opt.seconds) * 1000000000;
  uint64_t index = 0;
  while (clock() < t_end) {
    const std::vector<Query> batch = ColdBatch(opt.seed, index);
    std::vector<tpc::QueryService::BatchItem> parsed;
    for (const Query& q : batch) {
      parsed.push_back({ParseOrDie(q.p, &pool), ParseOrDie(q.q, &pool), q.mode});
    }
    const Counters before = Counters::Of(ctx);
    std::vector<tpc::ContainmentResult> results;
    int64_t t0 = 0, t1 = 0;
    {
      ScopedSpan span(tracer, "service.contains_batch", static_cast<int64_t>(index));
      t0 = NowNs();
      results = service.ContainsBatch(parsed);
      t1 = NowNs();
    }
    arrival_us.push_back((t1 - t0) / 1e3);
    arrival_at.push_back(t1 - paused_ns);
    const Counters after = Counters::Of(ctx);
    if (tracer != nullptr) {
      account.Add(after.Since(before), static_cast<int64_t>(batch.size()), 0);
    }
    {
      ScopedSpan span(tracer, "check", static_cast<int64_t>(index));
      const int64_t c0 = NowNs();
      for (size_t i = 0; i < batch.size(); ++i) {
        record(parsed[i].p, parsed[i].q, batch[i].mode, results[i], t1);
      }
      paused_ns += NowNs() - c0;
    }

    const Query light = ColdLight(opt.seed, index);
    const tpc::Tpq lp = ParseOrDie(light.p, &pool);
    const tpc::Tpq lq = ParseOrDie(light.q, &pool);
    tpc::ContainmentResult r;
    {
      ScopedSpan span(tracer, "service.contains", static_cast<int64_t>(index));
      t0 = NowNs();
      r = service.Contains(lp, lq, light.mode);
      t1 = NowNs();
    }
    light_us.push_back((t1 - t0) / 1e3);
    light_at.push_back(t1 - paused_ns);
    if (tracer != nullptr) account.Add(Counters::Of(ctx).Since(after), 1, t1 - t0);
    {
      ScopedSpan span(tracer, "check", static_cast<int64_t>(index));
      const int64_t c0 = NowNs();
      record(lp, lq, light.mode, r, t1);
      if (++index == kRssArrivals) rss = PeakRssMb(0);
      paused_ns += NowNs() - c0;
    }
  }
  const int64_t t_stop = clock();
  const int64_t t_stop_wall = NowNs();
  const uint64_t rss_arrivals = rss > 0 ? kRssArrivals : index;
  if (rss == 0) rss = PeakRssMb(0);

  // The reference check: the same pairs, generated again, against the
  // plain dispatcher.
  std::vector<Query> queries;
  queries.reserve(verdicts.size());
  for (uint64_t i = 0; i < index; ++i) {
    for (Query& q : ColdBatch(opt.seed, i)) queries.push_back(std::move(q));
    queries.push_back(ColdLight(opt.seed, i));
  }
  std::vector<Answer> answers(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    answers[i].query = &queries[i];
    answers[i].decided = verdicts[i] != kUndecided;
    answers[i].contained = verdicts[i] == kContained;
  }
  Verify(answers, {}, &pool, "batch_cold", &res);

  res.Add("verdicts_per_s", MedianWindowRate(ok_ns, t_start, t_stop), "1/s");
  const Tail tail = SlicedTail(arrival_us, arrival_at, t_start, t_stop);
  const Tail light_tail = SlicedTail(light_us, light_at, t_start, t_stop);
  res.Add("latency_p50_us", Median(arrival_us), "us");
  res.Add("latency_tail_us", tail.value, "us");
  res.Add("light_p50_us", Median(light_us), "us");
  res.Add("light_tail_us", light_tail.value, "us");
  res.Add("setup_s", Median(setups), "s");
  res.Add("peak_rss_mb", rss, "MB");
  res.info.Str("loop", "closed: one ContainsBatch arrival of " +
                           std::to_string(kBatchSize) +
                           " pairs in flight, then one PTIME Contains call")
      .Int("engine_threads", kEngineThreads)
      .Int("arrivals", static_cast<int64_t>(index))
      .Int("peak_rss_at_arrivals", static_cast<int64_t>(rss_arrivals))
      .Str("peak_rss_from", rss_reset ? "set-up" : "process start")
      .Num("latency_tail_pct", tail.pct)
      .Int("latency_samples", static_cast<int64_t>(tail.samples))
      .Num("light_tail_pct", light_tail.pct)
      .Int("light_samples", static_cast<int64_t>(light_tail.samples))
      .Int("latency_tail_slices", tail.slices)
      .Int("light_tail_slices", light_tail.slices)
      .Int("cache_bytes", kCacheBytes)
      .Int("working_set_bytes", working_set)
      .Num("cache_to_working_set", Ratio(kCacheBytes, working_set))
      .Num("measured_s", (t_stop - t_start) / 1e9)
      .Num("checking_s", paused_ns / 1e9);

  if (tracer != nullptr) {
    account.Emit(&res);
    res.Add("trace.unattributed_share",
            Ratio(tracer->Uncovered(t_start, t_stop_wall), t_stop_wall - t_start),
            "share");

    // The layer probe on the pairs of the first arrivals, after the measured
    // phase, each layer's public call under its own span.
    LayerProbe probe(&pool, tracer);
    const int64_t probe_end = NowNs() + static_cast<int64_t>(opt.seconds) * 250000000;
    for (size_t i = 0; i < queries.size() && NowNs() < probe_end; ++i) {
      probe.Probe(queries[i].p, queries[i].q, queries[i].mode, static_cast<int64_t>(i));
    }
    probe.Emit(&res);
  }
  return res;
}

}  // namespace e2e
