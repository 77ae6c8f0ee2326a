// W1-W3: the simulated workloads.
//
// Every invocation runs the workload's spec several times on the same seed:
//   1. stock     Controllers::Attach(kTopFull), no probes (the reference)
//   2. traced    probes timing every call, spans kept in memory
//   3. untraced  probes counting only, repeated until --seconds elapse,
//                each between two reference passes (HostSlowdown)
// All runs must produce the stock run's outcome digest; the end-to-end
// metrics come from the untraced repeats at nominal host speed, the
// per-layer ones from the traced run, as measured. Sharded workloads run
// stock and traced on one thread per shard (real cores: the shard.* layer
// metrics) and the untraced repeats with the bit-identical sequential
// shard protocol. On a shared host, barrier-synchronized threads pay for
// every slice the hypervisor steals from any of them: threaded timings of
// alibaba_sharded varied up to 4x between runs, while sequential ones stay
// as steady as the unsharded workload.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/alibaba_demo.hpp"
#include "apps/online_boutique.hpp"
#include "exp/harness.hpp"
#include "exp/model_cache.hpp"
#include "exp/run_executor.hpp"
#include "exp/sharded_run.hpp"
#include "ledger.hpp"
#include "obs/rules.hpp"
#include "obs/slo_monitor.hpp"
#include "obs/tsdb_plane.hpp"
#include "probes.hpp"

namespace ledger {
namespace {

using namespace topfull;

struct SimWorkload {
  const char* name;
  int shards;  ///< 0 = the unsharded RunExecutor::RunOne path
  double duration_s;
  double warmup_s;  ///< goodput / SLO-miss windows start after this
  bool observers;   ///< SloMonitor + TsdbPlane with the SLO burn rules
  std::unique_ptr<sim::Application> (*make)(std::uint64_t seed);
  void (*traffic)(workload::TrafficDriver&, sim::Application&);
};

/// Online Boutique with the fig08 traffic: 4,200 closed-loop users.
std::unique_ptr<sim::Application> MakeBoutique(std::uint64_t seed) {
  apps::BoutiqueOptions options;
  options.seed = seed;
  return apps::MakeOnlineBoutique(options);
}

void BoutiqueTraffic(workload::TrafficDriver& traffic, sim::Application& app) {
  workload::ClosedLoopConfig users = exp::UniformUsers(app);
  users.mix.weights = {1.0, 1.2, 0.9, 0.9, 1.0};
  traffic.AddClosedLoop(users, workload::Schedule::Constant(4200));
}

/// Alibaba demo x4 (508 services). The topology seed stays fixed so every
/// seed simulates the same deployment; the seed drives the request stream
/// (path sampling and the user pool's fork).
std::unique_ptr<sim::Application> MakeAlibaba4(std::uint64_t seed) {
  apps::AlibabaDemoOptions options;
  options.replicas = 4;
  auto app = apps::MakeAlibabaDemo(options).app;
  app->rng() = Rng(seed ^ 0xA11BABA5EEDULL);
  return app;
}

void AlibabaTraffic(workload::TrafficDriver& traffic, sim::Application& app) {
  traffic.AddClosedLoop(exp::UniformUsers(app),
                        workload::Schedule::Constant(200000));
}

const SimWorkload kWorkloads[] = {
    {"boutique_overload", 0, 150.0, 30.0, true, MakeBoutique, BoutiqueTraffic},
    {"alibaba_sharded", 4, 8.0, 3.0, false, MakeAlibaba4, AlibabaTraffic},
    {"boutique_split", 2, 60.0, 30.0, false, MakeBoutique, BoutiqueTraffic},
};

const SimWorkload* Find(const std::string& name) {
  for (const SimWorkload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

enum class Mode { kStock, kUntraced, kTraced };

/// Everything one run yields, read after the run from public counters and
/// the probes.
struct SimRun {
  std::uint64_t digest = 0;
  double setup_s = 0.0;
  double simulate_s = 0.0;
  double policy_load_s = 0.0;
  double make_app_s = 0.0;
  double attach_s = 0.0;
  double goodput_rps = 0.0;
  double slo_miss_frac = 0.0;

  std::uint64_t events = 0, cancelled = 0, scheduled = 0;
  std::uint64_t requests = 0, hop_attempts = 0, retries = 0, arena_slots = 0;
  std::uint64_t rounds = 0, msgs = 0;
  std::vector<double> shard_busy_s, shard_blocked_s;
  bool cluster_aligned = true;

  // Probe aggregates (zero for the stock run).
  std::uint64_t admit_calls = 0, admitted = 0;
  std::int64_t admit_busy_ns = 0;
  /// Untraced runs: every 8th gate call's latency, over all shards.
  std::unique_ptr<LatencyHistogram> admit_latency;
  std::uint64_t ticks = 0, clusters = 0, decisions = 0;
  std::int64_t tick_busy_ns = 0;
  std::vector<double> tick_us;
  std::uint64_t rl_calls = 0;
  std::int64_t rl_busy_ns = 0;
  std::uint64_t windows = 0;
  std::int64_t window_busy_ns = 0;
  std::vector<double> window_us;
  std::uint64_t publishes = 0, coalesced = 0;

  std::vector<SpanLog> spans;  ///< traced runs: setup log + one per shard
  std::vector<TraceCounter> admit_counters;  ///< traced runs: one per shard
};

/// FNV-1a over a full-precision rendering of the merged metrics timeline
/// and the run's RPC counters (the serialization of the engine-identity
/// digests).
class Digest {
 public:
  void Add(const char* text) {
    for (const char* c = text; *c != '\0'; ++c) {
      hash_ ^= static_cast<unsigned char>(*c);
      hash_ *= 1099511628211ull;
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 1469598103934665603ull;
};

std::uint64_t TimelineDigest(const std::vector<sim::Snapshot>& timeline,
                             std::uint64_t timeouts, std::uint64_t retries,
                             int inflight, std::uint64_t remote) {
  Digest d;
  char buf[512];
  for (const auto& snap : timeline) {
    std::snprintf(buf, sizeof buf, "t=%.17g\n", snap.t_end_s);
    d.Add(buf);
    for (const auto& a : snap.apis) {
      std::snprintf(buf, sizeof buf,
                    "api o=%llu a=%llu re=%llu rs=%llu c=%llu g=%llu "
                    "p50=%.17g p95=%.17g p99=%.17g mean=%.17g\n",
                    static_cast<unsigned long long>(a.offered),
                    static_cast<unsigned long long>(a.admitted),
                    static_cast<unsigned long long>(a.rejected_entry),
                    static_cast<unsigned long long>(a.rejected_service),
                    static_cast<unsigned long long>(a.completed),
                    static_cast<unsigned long long>(a.good), a.latency_p50_ms,
                    a.latency_p95_ms, a.latency_p99_ms, a.latency_mean_ms);
      d.Add(buf);
    }
    for (const auto& s : snap.services) {
      std::snprintf(buf, sizeof buf,
                    "svc util=%.17g avgq=%.17g maxq=%.17g pods=%d out=%d\n",
                    s.cpu_utilization, s.avg_queue_delay_s, s.max_queue_delay_s,
                    s.running_pods, s.outstanding);
      d.Add(buf);
    }
  }
  std::snprintf(buf, sizeof buf,
                "timeouts=%llu retries=%llu inflight=%d remote=%llu\n",
                static_cast<unsigned long long>(timeouts),
                static_cast<unsigned long long>(retries), inflight,
                static_cast<unsigned long long>(remote));
  d.Add(buf);
  return d.value();
}

/// Reads the run's outcome and engine counters. `apps` are the replicas
/// (one when unsharded).
void Collect(const SimWorkload& w, const std::vector<sim::Snapshot>& timeline,
             const std::vector<const sim::Application*>& apps, SimRun& run) {
  double offered = 0.0, good = 0.0;
  std::size_t windows = 0;
  for (const auto& snap : timeline) {
    for (const auto& a : snap.apis) run.requests += a.offered;
    if (snap.t_end_s <= w.warmup_s || snap.t_end_s > w.duration_s) continue;
    ++windows;
    for (const auto& a : snap.apis) {
      offered += static_cast<double>(a.offered);
      good += static_cast<double>(a.good);
    }
  }
  run.goodput_rps = windows > 0 ? good / static_cast<double>(windows) : 0.0;
  run.slo_miss_frac = offered > 0.0 ? (offered - good) / offered : 0.0;
  std::uint64_t timeouts = 0, remote = 0;
  int inflight = 0;
  for (const sim::Application* app : apps) {
    run.events += app->sim().EventsProcessed();
    run.cancelled += app->sim().EventsCancelled();
    run.scheduled += app->sim().EventsScheduled();
    run.hop_attempts += app->HopAttempts();
    run.retries += app->Retries();
    const auto arena = app->Arena();
    run.arena_slots += arena.request_capacity + arena.attempt_capacity;
    timeouts += app->HopTimeouts();
    inflight += app->Inflight();
    remote += app->RemoteCallsOut();
  }
  run.digest = TimelineDigest(timeline, timeouts, run.retries, inflight, remote);
}

SimRun RunSim(const SimWorkload& w, std::uint64_t seed, Mode mode,
              bool threaded) {
  SimRun run;
  // The probes of all shards share it, so untraced runs must be unthreaded.
  if (mode == Mode::kUntraced) {
    run.admit_latency = std::make_unique<LatencyHistogram>();
  }
  SpanLog setup(/*tid=*/1000);
  const auto t_start = Clock::now();
  int span = setup.Begin("setup/policy_load");
  // Read-only loader: never retrains, never writes models/.
  const std::shared_ptr<rl::GaussianPolicy> policy =
      exp::LoadCachedPolicy("base_policy");
  run.policy_load_s = static_cast<double>(setup.End(span)) / 1e9;
  if (policy == nullptr) {
    throw std::runtime_error(
        "models/base_policy.txt is missing or unreadable; the ledger never "
        "retrains it");
  }

  std::vector<std::unique_ptr<obs::SloMonitor>> monitors;
  std::unique_ptr<obs::TsdbPlane> tsdb;
  if (w.observers) {
    tsdb = std::make_unique<obs::TsdbPlane>();
    for (obs::AlertRule& rule : obs::SloBurnRules()) {
      tsdb->rules().AddAlert(std::move(rule));
    }
  }
  std::vector<std::shared_ptr<ShardProbe>> probes;
  Clock::time_point setup_end = t_start;

  exp::RunSpec spec;
  spec.label = w.name;
  spec.duration_s = w.duration_s;
  spec.tsdb = tsdb.get();
  spec.make_app = [&]() {
    const int id = setup.Begin("setup/make_app");
    auto app = w.make(seed);
    // The monitor heads the observer chain; the TSDB feeder chains to it.
    if (w.observers) monitors.push_back(obs::SloMonitor::ForApp(*app));
    run.make_app_s += static_cast<double>(setup.End(id)) / 1e9;
    return app;
  };
  spec.traffic = [&](workload::TrafficDriver& traffic, sim::Application& app) {
    w.traffic(traffic, app);
    setup_end = Clock::now();  // the last step before the first event
  };
  if (mode == Mode::kStock) {
    spec.variant = exp::Variant::kTopFull;
    spec.policy = policy.get();
  } else {
    spec.attach = [&](sim::Application& app) -> std::shared_ptr<void> {
      const int id = setup.Begin("setup/attach");
      auto probe = std::make_shared<ShardProbe>(
          app, policy.get(), mode == Mode::kTraced,
          static_cast<int>(probes.size()), run.admit_latency.get());
      probes.push_back(probe);
      run.attach_s += static_cast<double>(setup.End(id)) / 1e9;
      return probe;
    };
  }

  if (w.shards == 0) {
    const exp::RunResult result = exp::RunExecutor::RunOne(spec);
    run.simulate_s = std::chrono::duration<double>(Clock::now() - setup_end).count();
    Collect(w, result.app->metrics().Timeline(), {result.app.get()}, run);
  } else {
    exp::ShardedRunOptions options;
    options.shards = w.shards;
    options.threaded = threaded;
    const exp::ShardedRunResult result = exp::RunShardedSpec(spec, options);
    run.simulate_s = std::chrono::duration<double>(Clock::now() - setup_end).count();
    const sim::ShardedApp& sharded = *result.app;
    std::vector<const sim::Application*> apps;
    for (int i = 0; i < sharded.num_shards(); ++i) apps.push_back(&sharded.app(i));
    Collect(w, sharded.MergedTimeline(), apps, run);
    run.rounds = sharded.engine().Rounds();
    run.msgs = sharded.engine().TotalMessages();
    for (const auto& s : sharded.engine().Stats()) {
      run.shard_busy_s.push_back(s.busy_s);
      run.shard_blocked_s.push_back(s.blocked_s);
    }
    run.cluster_aligned = sharded.plan().cluster_aligned;
  }
  run.setup_s = std::chrono::duration<double>(setup_end - t_start).count();

  for (const auto& p : probes) {
    run.admit_calls += p->gate().calls();
    run.admitted += p->gate().admitted();
    run.admit_busy_ns += p->gate().busy_ns();
    run.ticks += p->ticks().calls;
    run.tick_busy_ns += p->ticks().busy_ns;
    run.tick_us.insert(run.tick_us.end(), p->ticks().samples_us.begin(),
                       p->ticks().samples_us.end());
    run.clusters += p->clusters();
    run.decisions += p->controller().Decisions();
    run.rl_calls += p->rl().calls;
    run.rl_busy_ns += p->rl().busy_ns;
    run.windows += p->windows().calls;
    run.window_busy_ns += p->windows().busy_ns;
    run.window_us.insert(run.window_us.end(), p->windows().samples_us.begin(),
                         p->windows().samples_us.end());
    const admit::PlaneStats plane = p->controller().admission_plane().Stats();
    run.publishes += plane.snapshots_published;
    run.coalesced += plane.reconfigs_coalesced;
  }
  if (mode == Mode::kTraced) {
    run.spans.push_back(setup);
    for (const auto& p : probes) {
      run.spans.push_back(p->spans());
      const auto& s = p->spans().spans();
      run.admit_counters.push_back(TraceCounter{
          "admit", p->spans().tid(), s.empty() ? 0 : s.back().end_ns,
          static_cast<double>(p->gate().calls()),
          static_cast<double>(p->gate().busy_ns()) / 1e6});
    }
  }
  return run;
}

std::string Hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

double Sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

void WriteTrace(const Options& options, const SimRun& traced, Report& report) {
  if (options.trace_out.empty()) return;
  std::vector<const SpanLog*> logs;
  for (const SpanLog& log : traced.spans) logs.push_back(&log);
  if (!WriteChromeTrace(options.trace_out, logs, traced.admit_counters)) {
    report.Fail("cannot write trace " + options.trace_out);
    return;
  }
  report.Note("trace: " + options.trace_out);
}

}  // namespace

bool IsSimWorkload(const std::string& name) { return Find(name) != nullptr; }

Report RunSimWorkload(const Options& options) {
  const SimWorkload& w = *Find(options.workload);
  // Threaded shards only when the machine has a core per shard; the
  // sequential protocol is bit-identical.
  const bool threaded = w.shards <= options.nproc;
  Report report;
  char line[256];

  const SimRun stock = RunSim(w, options.seed, Mode::kStock, threaded);
  // Peak RSS of one run on a fresh heap: later repeats only add allocator
  // fragmentation, which says nothing about the program.
  report.Set("peak_rss_mb", PeakRssMb());
  const SimRun traced = RunSim(w, options.seed, Mode::kTraced, threaded);
  // Untraced repeats, each between two reference passes (see
  // HostSlowdown); their timings are reported at nominal host speed.
  std::vector<SimRun> runs;
  std::vector<double> slowdown;
  std::vector<double> speed, mops, setup, ticks_us, p50, p99;
  double lat_samples = std::numeric_limits<double>::infinity();
  const auto measure_start = Clock::now();
  do {
    const double before = ReferencePassSeconds();
    runs.push_back(RunSim(w, options.seed, Mode::kUntraced, /*threaded=*/false));
    const double k = HostSlowdown(0.5 * (before + ReferencePassSeconds()));
    SimRun& r = runs.back();
    slowdown.push_back(k);
    speed.push_back(w.duration_s / r.simulate_s * k);
    mops.push_back(static_cast<double>(r.admit_calls) / r.simulate_s / 1e6 * k);
    setup.push_back(r.setup_s / k);
    for (const double us : r.tick_us) ticks_us.push_back(us / k);
    p50.push_back(r.admit_latency->Quantile(0.5) / k);
    p99.push_back(r.admit_latency->Quantile(0.99) / k);
    lat_samples = std::min(lat_samples, static_cast<double>(r.admit_latency->total()));
    r.admit_latency.reset();
  } while (SecondsSince(measure_start) < options.seconds);

  // Correctness: every run reproduces the stock run's outcome.
  report.attempted = 2 + runs.size();
  if (traced.digest != stock.digest) {
    report.Fail("traced digest " + Hex(traced.digest) + " != stock " +
                Hex(stock.digest));
  }
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (runs[i].digest != stock.digest) {
      report.Fail("untraced run " + std::to_string(i) + " digest " +
                  Hex(runs[i].digest) + " != stock " + Hex(stock.digest));
    }
  }
  if (!(stock.goodput_rps > 0.0)) report.Fail("no goodput");
  std::snprintf(line, sizeof line,
                "host seconds (setup + simulate): stock %.3f + %.3f, traced "
                "%.3f + %.3f",
                stock.setup_s, stock.simulate_s, traced.setup_s, traced.simulate_s);
  report.Note(line);
  std::snprintf(line, sizeof line,
                "digest %s of the stock run, checked against the traced run "
                "and %zu untraced runs (%s)",
                Hex(stock.digest).c_str(), runs.size(),
                w.shards == 0 ? "unsharded"
                : threaded    ? "stock and traced on threaded shards, untraced "
                                "on sequential shards"
                              : "sequential shards");
  report.Note(line);

  // End-to-end timings: medians over the untraced runs of each run's own
  // figure at nominal host speed; tick latencies pool every run's ticks (a
  // run has only 8-300 of them).
  report.Set("sim_speed", Median(speed));
  report.Set("setup_s", Median(setup));
  report.Set("tick_p50_us", Median(ticks_us));
  report.Set("goodput_rps", stock.goodput_rps);
  report.Set("slo_miss_frac", stock.slo_miss_frac);
  report.Set("admit_mops", Median(mops));
  report.Set("admit_p50_ns", Median(p50));
  report.Set("admit_p99_ns", Median(p99));
  report.Set("admit.lat_samples", lat_samples);
  report.Set("calib.host_slowdown", Median(slowdown));
  std::vector<double> raw_speed;
  for (const SimRun& r : runs) raw_speed.push_back(w.duration_s / r.simulate_s);
  std::snprintf(line, sizeof line,
                "%zu untraced runs: host slowdown min %.3f median %.3f max "
                "%.3f; sim_speed as measured min %.3f median %.3f max %.3f, "
                "at nominal host speed median %.3f",
                runs.size(), *std::min_element(slowdown.begin(), slowdown.end()),
                Median(slowdown), *std::max_element(slowdown.begin(), slowdown.end()),
                *std::min_element(raw_speed.begin(), raw_speed.end()),
                Median(raw_speed),
                *std::max_element(raw_speed.begin(), raw_speed.end()), Median(speed));
  report.Note(line);

  // Per-layer metrics: the traced run.
  const SimRun& t = traced;
  const double events = static_cast<double>(t.events);
  const bool sharded = !t.shard_busy_s.empty();
  // Sequential shards report no busy time; the run is then one thread.
  const double engine_busy_s =
      Sum(t.shard_busy_s) > 0.0 ? Sum(t.shard_busy_s) : t.simulate_s;
  const double admit_s = static_cast<double>(t.admit_busy_ns) / 1e9;
  const double tick_s = static_cast<double>(t.tick_busy_ns) / 1e9;
  const double rl_s = static_cast<double>(t.rl_busy_ns) / 1e9;
  const double window_s = static_cast<double>(t.window_busy_ns) / 1e9;
  const double self_s = engine_busy_s - admit_s - tick_s - window_s;
  report.Set("des.events", events);
  report.Set("des.events_cancelled", static_cast<double>(t.cancelled));
  report.Set("des.events_scheduled", static_cast<double>(t.scheduled));
  report.Set("des.events_per_s", events / t.simulate_s);
  report.Set("sim.requests", static_cast<double>(t.requests));
  report.Set("sim.hop_attempts", static_cast<double>(t.hop_attempts));
  report.Set("sim.retries", static_cast<double>(t.retries));
  report.Set("sim.arena_slots", static_cast<double>(t.arena_slots));
  report.Set("sim.self_s", self_s);
  report.Set("sim.ns_per_event", events > 0 ? self_s / events * 1e9 : 0.0);
  const double calls = static_cast<double>(t.admit_calls);
  report.Set("admit.calls", calls);
  report.Set("admit.admit_frac", calls > 0 ? static_cast<double>(t.admitted) / calls : 0.0);
  report.Set("admit.busy_s", admit_s);
  report.Set("admit.ns_per_call", calls > 0 ? admit_s / calls * 1e9 : 0.0);
  report.Set("admit.publishes", static_cast<double>(t.publishes));
  report.Set("admit.coalesced", static_cast<double>(t.coalesced));
  const double ticks_n = static_cast<double>(t.ticks);
  report.Set("core.ticks", ticks_n);
  report.Set("core.tick_busy_s", tick_s);
  report.Set("core.tick_p90_us", Percentile(t.tick_us, 0.9));
  report.Set("core.tick_self_s", tick_s - rl_s);
  report.Set("core.decisions", static_cast<double>(t.decisions));
  report.Set("core.clusters_per_tick",
             ticks_n > 0 ? static_cast<double>(t.clusters) / ticks_n : 0.0);
  report.Set("rl.infer_calls", static_cast<double>(t.rl_calls));
  report.Set("rl.infer_busy_s", rl_s);
  report.Set("rl.infer_ns_per_call",
             t.rl_calls > 0 ? rl_s / static_cast<double>(t.rl_calls) * 1e9 : 0.0);
  report.Set("obs.windows", static_cast<double>(t.windows));
  report.Set("obs.window_busy_s", window_s);
  report.Set("obs.window_us_p50", Median(t.window_us));
  if (sharded) {
    const double busy = Sum(t.shard_busy_s);
    const double blocked = Sum(t.shard_blocked_s);
    const double busy_max =
        *std::max_element(t.shard_busy_s.begin(), t.shard_busy_s.end());
    const double busy_mean = busy / static_cast<double>(t.shard_busy_s.size());
    report.Set("shard.rounds", static_cast<double>(t.rounds));
    report.Set("shard.msgs", static_cast<double>(t.msgs));
    report.Set("shard.blocked_frac", busy + blocked > 0 ? blocked / (busy + blocked) : 0.0);
    report.Set("shard.busy_max_s", busy_max);
    report.Set("shard.busy_imbalance", busy_mean > 0 ? busy_max / busy_mean : 0.0);
    std::snprintf(line, sizeof line,
                  "shard plan: %d shards, %s; %llu rounds, %llu cross-shard messages",
                  w.shards, t.cluster_aligned ? "cluster-aligned (empty cut)"
                                              : "split clusters (non-empty cut)",
                  static_cast<unsigned long long>(t.rounds),
                  static_cast<unsigned long long>(t.msgs));
    report.Note(line);
  }
  report.Set("setup.policy_load_s", t.policy_load_s);
  report.Set("setup.make_app_s", t.make_app_s);
  report.Set("setup.attach_s", t.attach_s);
  // Traced vs stock: the same execution mode, probes and spans vs none.
  report.Set("trace.overhead_frac", 1.0 - stock.simulate_s / t.simulate_s);
  if (sharded && threaded) {
    report.Set("shard.threaded_speed", w.duration_s / stock.simulate_s);
  }

  WriteTrace(options, traced, report);
  return report;
}

}  // namespace ledger
