// serve_mixed: the production request mix.  Two tenants:
//
//   heavy  zipf(1.1) over a few thousand pairs that cover all six
//          dispatcher routes, coNP sweep groups sharing p (sent together,
//          as the daemon's coalescing window would decide them),
//          near-repeats, and a tail of never-seen pairs;
//   light  PTIME pairs in an open loop at kLightRate per second, each
//          timed from its due time.
//
// The service (daemon options) is warm-started from a snapshot written
// before timing from a warm-up stream under another seed.  The service
// tiers answer most requests; the sweep runs only on misses, and the one
// non-preemptible request in flight sets the light tenant's tail.
//
// The end-to-end numbers come from the mix driven through
// `QueryService::ContainsFor` in process, one request at a time, as on a
// daemon worker.  The same mix over the `tpc_serve` socket runs only in the
// traced run, for the serve layer's metrics: on a shared 4-vCPU machine the
// socket path's throughput and latencies swung 2-3x between consecutive
// runs of one seed with the host's steal time, far beyond any bound a
// regression gate could use.

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <deque>
#include <iostream>
#include <memory>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "bench.h"
#include "inputs.h"
#include "serve/protocol.h"
#include "service/query_service.h"

namespace e2e {

namespace {

namespace serve = tpc::serve;

// The traced run's daemon: one worker (with the IO thread and this
// process's client thread, three busy threads on four vCPUs), heavy window
// below the 64-request tenant cap.
constexpr int kWorkers = 1;
constexpr int kHeavyWindow = 16;
constexpr double kLightRate = 500;  // requests per second
// A light request waits out the heavy request in flight, so its latency
// samples the heavy requests' remaining time.  The fresh coNP groups (a
// sweep of ~2.5 ms, a quarter of the run's time) set the p90 of that; the
// top percent is set by the dozen slowest requests of a run (evicted
// universe pairs and random misses of 10-130 ms), whose number and length
// vary so much between runs that the p99 of runs of the same code spread
// 0.3-0.8 of its median.  So the light tail stops at p90.
constexpr double kLightTailMaxPct = 90;
constexpr int kWarmRequests = 30000;
constexpr int kSetupRepeats = 15;
// Peak memory is read when this many requests have been answered (or at the
// end of a run that answers fewer), so it does not grow with the number of
// requests a faster build fits into the measured phase.
constexpr int64_t kRssRequests = 200000;
// Beyond these the open-loop generator did not keep its schedule and the
// run's latencies are not reported.  Lateness of a few milliseconds is
// normal on a shared 4-vCPU machine and is counted in the light latencies
// anyway (they run from the due time); 20 ms at p99 means the generator
// stalled.
constexpr double kMaxLateP99Us = 20000;
constexpr int64_t kMaxLightBacklog = 32;

// One client connection, non-blocking after the HELLO exchange.
struct Conn {
  int fd = -1;
  serve::FrameReader reader;
  std::string outbox;
  size_t flushed = 0;

  ~Conn() {
    if (fd >= 0) close(fd);
  }
  bool Flush() {
    while (flushed < outbox.size()) {
      ssize_t n = write(fd, outbox.data() + flushed, outbox.size() - flushed);
      if (n < 0) return errno == EAGAIN || errno == EWOULDBLOCK;
      flushed += static_cast<size_t>(n);
    }
    outbox.clear();
    flushed = 0;
    return true;
  }
  bool Send(const std::string& bytes) {
    outbox += bytes;
    return Flush();
  }
  // Reads what is available; false on EOF or error.
  bool Fill() {
    char buf[1 << 16];
    while (true) {
      ssize_t n = read(fd, buf, sizeof(buf));
      if (n > 0) {
        reader.Feed(buf, static_cast<size_t>(n));
        continue;
      }
      if (n == 0) return false;
      return errno == EAGAIN || errno == EWOULDBLOCK;
    }
  }
  // Blocks until one whole frame is buffered.
  bool WaitFrame(serve::Frame* frame, int64_t deadline_ns) {
    while (true) {
      std::string err;
      serve::FrameReader::Result r = reader.Poll(frame, &err);
      if (r == serve::FrameReader::Result::kFrame) return true;
      if (r == serve::FrameReader::Result::kError) return false;
      if (NowNs() > deadline_ns) return false;
      pollfd pfd{fd, POLLIN, 0};
      poll(&pfd, 1, 10);
      if (!Fill()) return false;
    }
  }
};

bool Connect(const std::string& path, const std::string& tenant, Conn* conn,
             int64_t deadline_ns) {
  while (true) {
    conn->fd = socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s", path.c_str());
    if (connect(conn->fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) break;
    close(conn->fd);
    conn->fd = -1;
    if (NowNs() > deadline_ns) return false;
    usleep(200);
  }
  fcntl(conn->fd, F_SETFL, fcntl(conn->fd, F_GETFL) | O_NONBLOCK);
  if (!conn->Send(serve::EncodeHello(tenant))) return false;
  serve::Frame frame;
  return conn->WaitFrame(&frame, deadline_ns) &&
         frame.type == serve::FrameType::kHelloOk;
}

// A spawned daemon; terminated and reaped on destruction.
struct Daemon {
  pid_t pid = -1;
  ~Daemon() { Stop(); }
  bool Start(const std::string& binary, const std::vector<std::string>& args,
             const std::string& log) {
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(binary.c_str()));
    for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    pid = fork();
    if (pid == 0) {
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      int fd = open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (fd >= 0) dup2(fd, 2);
      execv(binary.c_str(), argv.data());
      _exit(127);
    }
    return pid > 0;
  }
  void Stop() {
    if (pid <= 0) return;
    kill(pid, SIGTERM);
    for (int i = 0; i < 3000; ++i) {
      if (waitpid(pid, nullptr, WNOHANG) == pid) {
        pid = -1;
        return;
      }
      usleep(1000);
    }
    kill(pid, SIGKILL);
    waitpid(pid, nullptr, 0);
    pid = -1;
  }
};

// Integer value of the first `"key": <int>` after `anchor` in a STATS dump.
int64_t JsonInt(const std::string& json, const std::string& anchor,
                const std::string& key) {
  size_t at = anchor.empty() ? 0 : json.find(anchor);
  if (at == std::string::npos) return 0;
  at = json.find("\"" + key + "\": ", at);
  if (at == std::string::npos) return 0;
  return std::strtoll(json.c_str() + at + key.size() + 4, nullptr, 10);
}

// Sends every query through `conn` with `window` in flight and waits for
// all responses; false if the daemon stopped answering.
bool Prime(Conn* conn, const std::vector<const Query*>& queries, int window) {
  size_t sent = 0, answered = 0;
  const int64_t deadline = NowNs() + 120000000000LL;
  while (answered < queries.size()) {
    while (sent < queries.size() && sent - answered < static_cast<size_t>(window)) {
      const Query& q = *queries[sent];
      conn->outbox += serve::EncodeQuery(1000000000 + sent, q.mode, q.p, q.q);
      ++sent;
    }
    if (!conn->Flush()) return false;
    serve::Frame frame;
    if (!conn->WaitFrame(&frame, deadline)) return false;
    if (frame.type == serve::FrameType::kResponse) ++answered;
  }
  return true;
}

bool Stats(Conn* conn, std::string* json) {
  if (!conn->Send(serve::EncodeStatsRequest())) return false;
  serve::Frame frame;
  while (conn->WaitFrame(&frame, NowNs() + 10000000000LL)) {
    if (frame.type == serve::FrameType::kStatsJson) {
      *json = frame.payload;
      return true;
    }
  }
  return false;
}

struct Sent {
  const Query* query = nullptr;
  bool light = false;
  int64_t due_ns = 0;   // light: scheduled send time
  int64_t send_ns = 0;
  int64_t recv_ns = 0;
  serve::WireStatus status = serve::WireStatus::kOk;
  bool contained = false;
  std::string detail;
};

[[noreturn]] void Die(const std::string& why) {
  std::cerr << "e2ebench: " << why << "\n";
  std::exit(2);
}

// One tenant's side of the measured phase: its connection, the requests it
// sent and those still unanswered.
class Tenant {
 public:
  Tenant(Conn* conn, bool light) : conn_(conn), light_(light) {}

  std::vector<Sent> sent;

  int64_t outstanding() const { return static_cast<int64_t>(open_.size()); }

  // Queues one query; `Pump` writes it.
  void Send(const Query* q, int64_t due_ns) {
    Sent s;
    s.query = q;
    s.light = light_;
    s.due_ns = due_ns;
    s.send_ns = NowNs();
    open_.emplace(next_id_, sent.size());
    conn_->outbox += serve::EncodeQuery(next_id_++, q->mode, q->p, q->q);
    sent.push_back(std::move(s));
  }

  // Writes the queued queries of both tenants, waits up to `timeout_ns` for
  // responses and records those that arrived.  One thread drives both
  // tenants: a client thread that never sleeps between requests avoids the
  // virtual CPU's wake-up latency, which would otherwise dominate the light
  // tenant's numbers.
  static void Pump(Tenant* a, Tenant* b, int64_t timeout_ns) {
    if (!a->conn_->Flush() || !b->conn_->Flush()) Die("send failed");
    pollfd fds[2] = {{a->conn_->fd, POLLIN, 0}, {b->conn_->fd, POLLIN, 0}};
    if (!a->conn_->outbox.empty()) fds[0].events |= POLLOUT;
    if (!b->conn_->outbox.empty()) fds[1].events |= POLLOUT;
    timespec ts{static_cast<time_t>(timeout_ns / 1000000000),
                static_cast<long>(timeout_ns % 1000000000)};
    ppoll(fds, 2, &ts, nullptr);
    Tenant* tenants[2] = {a, b};
    for (int i = 0; i < 2; ++i) {
      if (fds[i].revents & POLLOUT) tenants[i]->conn_->Flush();
      if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) tenants[i]->Receive();
    }
  }

  // Pumps until every query of both tenants is answered.
  static void Drain(Tenant* a, Tenant* b) {
    const int64_t deadline = NowNs() + 120000000000LL;
    while (a->outstanding() > 0 || b->outstanding() > 0) {
      if (NowNs() > deadline) Die("responses missing after the drain");
      Pump(a, b, 10000000);
    }
  }

 private:
  void Receive() {
    if (!conn_->Fill()) Die("daemon closed the connection");
    serve::Frame frame;
    std::string err;
    while (conn_->reader.Poll(&frame, &err) == serve::FrameReader::Result::kFrame) {
      if (frame.type != serve::FrameType::kResponse) continue;
      serve::ResponseFrame r;
      if (!serve::DecodeResponse(frame.payload, &r, &err)) continue;
      auto it = open_.find(r.request_id);
      if (it == open_.end()) continue;
      Sent& s = sent[it->second];
      open_.erase(it);
      s.recv_ns = NowNs();
      s.status = r.status;
      s.contained = r.contained;
      s.detail = std::move(r.detail);
    }
  }

  Conn* conn_;
  bool light_;
  uint64_t next_id_ = 1;
  std::unordered_map<uint64_t, size_t> open_;  // request id -> sent index
};

// The wire path, run only in the traced run: a `tpc_serve` child process
// (service defaults, kWorkers worker, warm-started from the same snapshot
// and primed with one untimed pass of the universe) serves the heavy tenant
// (closed loop, kHeavyWindow outstanding, below the 64-request cap) and the
// light tenant (open loop at kLightRate) over a unix socket, both driven
// from this one thread.  Adds the serve and loadgen layer metrics and the
// daemon's verdicts to `res`.
void DaemonPhase(const Options& opt, const ServeUniverse& universe,
                 const std::string& base, const std::string& snapshot,
                 const RefMap& refs, tpc::LabelPool* ref_pool,
                 double light_call_p50_us, Tracer* tracer, RunResult* res) {
  const std::string socket_path = base + ".sock";
  Daemon daemon;
  Conn heavy, light;
  const int64_t deadline = NowNs() + 30000000000LL;
  if (!daemon.Start(opt.bin_dir + "/tpc_serve",
                    {"--unix", socket_path, "--workers", std::to_string(kWorkers),
                     "--snapshot-load", snapshot},
                    base + ".log") ||
      !Connect(socket_path, "heavy", &heavy, deadline) ||
      !Connect(socket_path, "light", &light, deadline)) {
    Die("tpc_serve did not come up (see " + base + ".log)");
  }
  std::vector<const Query*> all;
  for (const auto& item : universe.items) {
    for (const Query& q : item) all.push_back(&q);
  }
  for (const Query& q : universe.light) all.push_back(&q);
  std::string stats_before, stats_after;
  if (!Prime(&heavy, all, kHeavyWindow) || !Stats(&light, &stats_before)) {
    Die("tpc_serve stopped answering while priming");
  }

  std::deque<Query> tail_sent;  // stable storage for never-seen pairs
  std::deque<const Query*> pending;
  HeavyStream stream(&universe, opt.seed);
  Rng light_rng(opt.seed ^ 0x116ULL);
  const int64_t period_ns = static_cast<int64_t>(1e9 / kLightRate);
  std::vector<double> late_us;
  Tenant heavy_tenant(&heavy, false), light_tenant(&light, true);
  const int64_t cpu0 = ProcessCpuNs();
  const int64_t t_start = NowNs();
  // Half the run's seconds: the traced run must stay well inside its time.
  const int64_t t_end = t_start + static_cast<int64_t>(opt.seconds) * 500000000;
  for (int64_t due = t_start; NowNs() < t_end;) {
    while (due <= NowNs() && due < t_end) {
      late_us.push_back((NowNs() - due) / 1e3);
      light_tenant.Send(&universe.light[light_rng.Below(universe.light.size())],
                        due);
      due += period_ns;
    }
    while (heavy_tenant.outstanding() < kHeavyWindow) {
      if (pending.empty()) {
        bool novel = false;
        const std::vector<Query>& item = stream.NextItem(&novel);
        for (const Query& q : item) {
          if (novel) tail_sent.push_back(q);
          pending.push_back(novel ? &tail_sent.back() : &q);
        }
      }
      heavy_tenant.Send(pending.front(), 0);
      pending.pop_front();
    }
    Tenant::Pump(&heavy_tenant, &light_tenant,
                 std::max<int64_t>(0, std::min(due, t_end) - NowNs()));
  }
  const int64_t t_stop = NowNs();
  const int64_t cpu_used = ProcessCpuNs() - cpu0;
  const int64_t light_backlog = light_tenant.outstanding();
  Tenant::Drain(&heavy_tenant, &light_tenant);
  Stats(&light, &stats_after);
  const double daemon_rss = PeakRssMb(daemon.pid);
  heavy.Send(serve::EncodeGoodbye());
  light.Send(serve::EncodeGoodbye());
  daemon.Stop();
  unlink(socket_path.c_str());

  std::vector<Answer> answers;
  std::vector<double> light_rtt_us;
  int64_t not_ok = 0;
  for (std::vector<Sent>* sent : {&heavy_tenant.sent, &light_tenant.sent}) {
    for (Sent& s : *sent) {
      tracer->Add({s.light ? "serve.light_round_trip" : "serve.heavy_round_trip",
                   s.light ? s.due_ns : s.send_ns, s.recv_ns, -1, -1});
      if (s.light) light_rtt_us.push_back((s.recv_ns - s.due_ns) / 1e3);
      not_ok += s.status != serve::WireStatus::kOk;
      answers.push_back({s.query, s.light, s.due_ns, s.send_ns, s.recv_ns,
                         s.status == serve::WireStatus::kOk, s.contained,
                         std::move(s.detail)});
    }
  }
  Verify(answers, refs, ref_pool, "serve_mixed", res);

  const double late_p99 = Percentile(late_us, 99);
  if (late_p99 > kMaxLateP99Us || light_backlog > kMaxLightBacklog) {
    res->invalid = "the open-loop generator fell behind (late p99 " +
                   FormatDouble(late_p99) + " us, light backlog " +
                   std::to_string(light_backlog) + ")";
  }
  auto delta = [&](const std::string& anchor, const std::string& key) {
    return JsonInt(stats_after, anchor, key) - JsonInt(stats_before, anchor, key);
  };
  const int64_t shed = delta("\"heavy\": {", "shed") + delta("\"light\": {", "shed");
  // The scheduler's coalescing window: requests dequeued together per
  // coalesced batch of the heavy tenant.
  res->Add("serve.overhead_us", Median(light_rtt_us) - light_call_p50_us, "us");
  res->Add("serve.coalesced_per_group",
           Ratio(delta("\"heavy\": {", "group_members"),
                 delta("\"heavy\": {", "sweep_groups")),
           "count");
  res->Add("serve.shed_share", Ratio(shed, static_cast<double>(answers.size())),
           "share");
  res->Add("loadgen.late_p99_us", late_p99, "us");
  res->Add("loadgen.cpu_share", Ratio(cpu_used, t_stop - t_start), "share");
  res->info.Raw(
      "daemon_phase",
      Json()
          .Str("loop", "heavy: closed, window " + std::to_string(kHeavyWindow) +
                           "; light: open, " + FormatDouble(kLightRate) + "/s")
          .Int("workers", kWorkers)
          .Int("requests", static_cast<int64_t>(answers.size()))
          .Int("not_ok", not_ok)
          .Int("shed", shed)
          .Num("light_rtt_p50_us", Median(light_rtt_us))
          .Num("loadgen_late_p99_us", late_p99)
          .Int("light_backlog_at_end", light_backlog)
          .Num("daemon_peak_rss_mb", daemon_rss)
          .Dump());
}

}  // namespace

RunResult RunServeMixed(const Options& opt, Tracer* tracer) {
  RunResult res;
  const ServeUniverse universe = MakeServeUniverse(opt.seed);

  // Reference verdicts of the universe, before timing.
  tpc::LabelPool ref_pool;
  RefMap refs;
  for (const auto& item : universe.items) {
    for (const Query& q : item) {
      refs.emplace(QueryKey(q.p, q.q, q.mode),
                   ReferenceVerdict(ParseOrDie(q.p, &ref_pool),
                                    ParseOrDie(q.q, &ref_pool), q.mode, &ref_pool));
    }
  }
  for (const Query& q : universe.light) {
    refs.emplace(QueryKey(q.p, q.q, q.mode),
                 ReferenceVerdict(ParseOrDie(q.p, &ref_pool),
                                  ParseOrDie(q.q, &ref_pool), q.mode, &ref_pool));
  }

  // The warm tier: every universe pair once, so the only misses of the
  // measured phase are the never-seen tail, then a zipf stream under
  // another seed for recency.  Written as a snapshot before timing.
  const std::string base = opt.work_dir + "/serve-" + std::to_string(getpid());
  const std::string snapshot = base + ".snap";
  {
    tpc::LabelPool pool;
    tpc::EngineContext ctx;
    tpc::QueryService service(&pool, &ctx);
    auto decide = [&](const Query& q) {
      service.Contains(ParseOrDie(q.p, &pool), ParseOrDie(q.q, &pool), q.mode);
    };
    for (const auto& item : universe.items) {
      for (const Query& q : item) decide(q);
    }
    HeavyStream warm(&universe, opt.seed ^ 0x5eedULL);
    for (int64_t sent = 0; sent < kWarmRequests;) {
      bool novel = false;
      for (const Query& q : warm.NextItem(&novel)) {
        decide(q);
        ++sent;
      }
    }
    for (const Query& q : universe.light) decide(q);
    std::string error;
    if (!service.SaveSnapshot(snapshot, &error)) {
      Die("cannot write the warm snapshot: " + error);
    }
  }

  // Set-up, timed: the service (daemon options) and its warm tier loaded
  // from the snapshot.
  const bool rss_reset = ResetPeakRss();
  std::vector<double> setups;
  std::vector<double> loads_ms;
  std::unique_ptr<tpc::LabelPool> pool;
  std::unique_ptr<tpc::EngineContext> service_ctx;
  std::unique_ptr<tpc::QueryService> service;
  for (int i = 0; i < kSetupRepeats; ++i) {
    service.reset();
    service_ctx.reset();
    pool.reset();
    const int64_t t0 = NowNs();
    pool = std::make_unique<tpc::LabelPool>();
    service_ctx = std::make_unique<tpc::EngineContext>();
    service = std::make_unique<tpc::QueryService>(pool.get(), service_ctx.get());
    const int64_t t1 = NowNs();
    std::string error;
    if (!service->LoadSnapshot(snapshot, &error)) {
      Die("cannot load the warm snapshot: " + error);
    }
    const int64_t t2 = NowNs();
    setups.push_back((t2 - t0) / 1e9);
    loads_ms.push_back((t2 - t1) / 1e6);
  }

  // Each request runs on its own single-threaded context, as on a daemon
  // worker; group members each get one.
  constexpr size_t kMaxGroup = 8;
  tpc::EngineContext req_ctx;
  std::vector<std::unique_ptr<tpc::EngineContext>> member_ctx;
  for (size_t i = 0; i < kMaxGroup; ++i) {
    member_ctx.push_back(std::make_unique<tpc::EngineContext>());
  }
  // Traced-run counters.  Each request's context is reset before it runs,
  // so its counters are that request's.
  ServiceAccount account;
  auto count = [&](tpc::EngineContext* ctx, int64_t ns) {
    if (tracer != nullptr) account.Add(Counters::Of(*ctx), 1, ns);
  };
  auto arm = [](tpc::EngineContext* ctx) {
    ctx->stats().Reset();
    ctx->ResetBudget();
  };
  auto witness = [&](const tpc::ContainmentResult& r) {
    return r.counterexample ? r.counterexample->ToString(*pool) : std::string();
  };
  // One request: parse (as a daemon worker does) and decide.
  auto decide_one = [&](const Query& q, int64_t request) {
    ScopedSpan span(tracer, "service.contains_for", request);
    tpc::Tpq p, qq;
    {
      ScopedSpan parse(tracer, "pattern.parse", request);
      p = ParseOrDie(q.p, pool.get());
      qq = ParseOrDie(q.q, pool.get());
    }
    arm(&req_ctx);
    return service->ContainsFor(p, qq, q.mode, &req_ctx);
  };

  // Untimed: one pass of the universe finishes the restart's one-off work
  // (entries the snapshot does not carry, first minimizations of raw
  // forms), so the measured phase sees the steady state.
  for (const auto& item : universe.items) {
    for (const Query& q : item) decide_one(q, -1);
  }
  for (const Query& q : universe.light) decide_one(q, -1);

  // Expected verdicts by query, for the check made as each answer arrives.
  std::unordered_map<const Query*, bool> expect;
  for (const auto& item : universe.items) {
    for (const Query& q : item) expect[&q] = refs.at(QueryKey(q.p, q.q, q.mode)).contained;
  }
  for (const Query& q : universe.light) {
    expect[&q] = refs.at(QueryKey(q.p, q.q, q.mode)).contained;
  }

  // The measured phase, in process on one thread: heavy items back to back
  // (a group sharing p through ContainsGroupFor, as the daemon's
  // coalescing window decides it), and each light request as soon as it is
  // due, after the request in flight.  Answers are checked as they arrive
  // against the references, so nothing per answer is kept beyond its
  // timings; never-seen pairs and distinct counterexamples are checked
  // after the phase.
  std::deque<std::vector<Query>> tail_store;  // stable storage for tail items
  std::vector<Answer> deferred;               // answers for tail pairs
  std::set<std::pair<const Query*, std::string>> witnesses;
  std::vector<const Query*> first_seen;  // distinct queries, for the probe
  std::unordered_set<const Query*> seen;
  std::vector<double> heavy_us, light_us, light_call_us;
  std::vector<int64_t> heavy_at, light_at;  // completion times of those
  std::vector<int64_t> ok_ns;  // completion times of decided verdicts
  int64_t requests = 0, tail_pairs = 0;
  double rss = 0;
  auto record = [&](const Query* q, bool light, int64_t due, int64_t t0,
                    int64_t t1, const tpc::ContainmentResult& r) {
    if (++requests == kRssRequests) rss = PeakRssMb(0);
    if (seen.insert(q).second) first_seen.push_back(q);
    const bool decided = r.outcome == tpc::Outcome::kDecided;
    auto it = expect.find(q);
    if (it == expect.end()) {
      deferred.push_back({q, light, due, t0, t1, decided, r.contained, witness(r)});
    } else {
      ++res.attempted;
      if (!decided) {
        ++res.failed;
        return;
      }
      ++res.checked;
      if (r.contained != it->second) {
        res.Wrong("serve_mixed verdict differs from the plain dispatcher on " +
                  QueryKey(q->p, q->q, q->mode));
      }
      if (!r.contained && r.counterexample) witnesses.emplace(q, witness(r));
    }
    if (!decided) return;
    ok_ns.push_back(t1);
    (light ? light_us : heavy_us).push_back(((light ? t1 - due : t1 - t0)) / 1e3);
    (light ? light_at : heavy_at).push_back(t1);
  };
  HeavyStream stream(&universe, opt.seed);
  Rng light_rng(opt.seed ^ 0x116ULL);
  const int64_t period_ns = static_cast<int64_t>(1e9 / kLightRate);
  // Counts on the service's own context (outside any request's).
  const Counters service_before = Counters::Of(*service_ctx);
  const int64_t t_start = NowNs();
  const int64_t t_end = t_start + static_cast<int64_t>(opt.seconds) * 1000000000;
  for (int64_t due = t_start; NowNs() < t_end;) {
    if (due <= NowNs()) {
      const Query& q = universe.light[light_rng.Below(universe.light.size())];
      const int64_t t0 = NowNs();
      tpc::ContainmentResult r = decide_one(q, requests);
      const int64_t t1 = NowNs();
      count(&req_ctx, t1 - t0);
      light_call_us.push_back((t1 - t0) / 1e3);
      record(&q, true, due, t0, t1, r);
      due += period_ns;
      continue;
    }
    bool novel = false;
    const std::vector<Query>* item = &stream.NextItem(&novel);
    if (novel) {
      tail_store.push_back(*item);
      item = &tail_store.back();
      tail_pairs += static_cast<int64_t>(item->size());
    }
    if (item->size() == 1 || item->size() > kMaxGroup) {
      for (const Query& q : *item) {
        const int64_t t0 = NowNs();
        tpc::ContainmentResult r = decide_one(q, requests);
        const int64_t t1 = NowNs();
        count(&req_ctx, t1 - t0);
        record(&q, false, 0, t0, t1, r);
      }
      continue;
    }
    const int64_t t0 = NowNs();
    std::vector<tpc::ContainmentResult> rs;
    {
      ScopedSpan span(tracer, "service.contains_group_for", requests);
      std::vector<tpc::Tpq> ps, qs;
      {
        ScopedSpan parse(tracer, "pattern.parse", requests);
        for (const Query& q : *item) {
          ps.push_back(ParseOrDie(q.p, pool.get()));
          qs.push_back(ParseOrDie(q.q, pool.get()));
        }
      }
      std::vector<tpc::QueryService::GroupQuery> group;
      for (size_t m = 0; m < item->size(); ++m) {
        arm(member_ctx[m].get());
        group.push_back({&ps[m], &qs[m], (*item)[m].mode, member_ctx[m].get()});
      }
      rs = service->ContainsGroupFor(group);
    }
    const int64_t t1 = NowNs();
    for (size_t m = 0; m < item->size(); ++m) {
      count(member_ctx[m].get(), t1 - t0);
      record(&(*item)[m], false, 0, t0, t1, rs[m]);
    }
  }
  const int64_t t_stop = NowNs();
  const int64_t rss_requests = rss > 0 ? kRssRequests : requests;
  if (rss == 0) rss = PeakRssMb(0);
  if (tracer != nullptr) {
    account.Add(Counters::Of(*service_ctx).Since(service_before), 0, 0);
  }

  // After the phase: the never-seen pairs in full, and every distinct
  // counterexample of the universe pairs replayed.
  Verify(deferred, refs, &ref_pool, "serve_mixed", &res);
  {
    std::vector<Answer> replays;
    for (const auto& [q, w] : witnesses) {
      replays.push_back({q, false, 0, 0, 0, true, false, w});
    }
    RunResult replayed;  // counted once above, as answers
    Verify(replays, refs, &ref_pool, "serve_mixed", &replayed);
    if (!replayed.correct) res.Wrong("serve_mixed counterexample does not refute");
  }
  const Tail tail = SlicedTail(heavy_us, heavy_at, t_start, t_stop);
  const Tail light_tail =
      SlicedTail(light_us, light_at, t_start, t_stop, kLightTailMaxPct);
  res.Add("verdicts_per_s", MedianWindowRate(ok_ns, t_start, t_stop), "1/s");
  res.Add("latency_p50_us", Median(heavy_us), "us");
  res.Add("latency_tail_us", tail.value, "us");
  res.Add("light_p50_us", Median(light_us), "us");
  res.Add("light_tail_us", light_tail.value, "us");
  res.Add("setup_s", Median(setups), "s");
  res.Add("peak_rss_mb", rss, "MB");
  res.info
      .Str("loop", "in process, one thread: heavy items back to back, light "
                   "open loop at " + FormatDouble(kLightRate) +
                   "/s served after the request in flight")
      .Int("universe_pairs", universe.pairs)
      .Int("universe_items", static_cast<int64_t>(universe.items.size()))
      .Num("zipf_exponent", kZipfExponent)
      .Num("tail_share", kTailShare)
      .Int("tail_pairs_sent", tail_pairs)
      .Int("warm_requests", kWarmRequests)
      .Str("peak_rss_from", rss_reset ? "set-up" : "process start")
      .Int("peak_rss_at_requests", rss_requests)
      .Num("latency_tail_pct", tail.pct)
      .Int("latency_samples", static_cast<int64_t>(tail.samples))
      .Num("light_tail_pct", light_tail.pct)
      .Int("light_samples", static_cast<int64_t>(light_tail.samples))
      .Int("latency_tail_slices", tail.slices)
      .Int("light_tail_slices", light_tail.slices)
      .Num("measured_s", (t_stop - t_start) / 1e9);

  if (tracer != nullptr) {
    account.Emit(&res);
    res.Add("persist.load_ms", Median(loads_ms), "ms");

    DaemonPhase(opt, universe, base, snapshot, refs, &ref_pool,
                Median(light_call_us), tracer, &res);

    // The layer probe on the distinct pairs of the stream, in order of
    // first sighting.
    LayerProbe probe(pool.get(), tracer);
    const int64_t probe_end = NowNs() + static_cast<int64_t>(opt.seconds) * 250000000;
    for (size_t i = 0; i < first_seen.size() && NowNs() < probe_end; ++i) {
      const Query& q = *first_seen[i];
      probe.Probe(q.p, q.q, q.mode, static_cast<int64_t>(i));
    }
    probe.Emit(&res);
  }
  unlink(snapshot.c_str());
  return res;
}

}  // namespace e2e
