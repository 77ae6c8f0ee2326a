#include "exp/sharded_run.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "autoscale/hpa.hpp"
#include "obs/live.hpp"
#include "obs/profile.hpp"
#include "obs/tsdb_plane.hpp"

namespace topfull::exp {

namespace {

/// Splits a fault schedule by target-service ownership: each event lands
/// only on the shard owning its service (cluster-wide and unknown-service
/// events land on shard 0). The union over shards is the whole schedule.
fault::FaultSchedule FaultsForShard(const fault::FaultSchedule& all,
                                    const sim::Application& app,
                                    const sim::ShardPlan& plan, int shard) {
  fault::FaultSchedule out;
  for (const fault::FaultEvent& event : all.events()) {
    int owner = 0;  // cluster-wide and unknown-service events: shard 0
    if (event.type != fault::FaultType::kVmOutage) {
      const sim::ServiceId s = app.FindService(event.service);
      if (s != sim::kNoService) owner = plan.OwnerOf(s);
    }
    if (owner == shard) out.Add(event);
  }
  return out;
}

}  // namespace

ShardedRunResult RunShardedSpec(const RunSpec& spec,
                                const ShardedRunOptions& options,
                                const std::string& telemetry_name) {
  // The autoscaler models one cluster, so it needs the whole app on one
  // engine.
  if (spec.hpa && options.shards > 1) {
    throw std::invalid_argument("RunSpec::hpa needs a single shard");
  }
  obs::ScopedTimer run_timer("exp/run");
  ShardedRunResult result;
  result.label = spec.label;

  {
    obs::ScopedTimer timer("exp/make_app");
    result.app = std::make_unique<sim::ShardedApp>(spec.make_app, options);
  }
  sim::ShardedApp& sharded = *result.app;
  const int n = sharded.num_shards();

  // One store for all shards (cells labelled shard="k" when n > 1).
  std::unique_ptr<obs::TsdbPlane> owned_tsdb;
  obs::TsdbPlane* tsdb = spec.tsdb;
  if (tsdb == nullptr) {
    owned_tsdb = MakeSloTsdbPlane();
    tsdb = owned_tsdb.get();
  }

  // Every replica is set up with the same steps in the same order. All of
  // it lives until the run finishes; after that the metrics timeline is
  // self-contained.
  const TelemetryOptions telemetry_options =
      spec.telemetry.value_or(TelemetryOptions::FromEnv());
  std::vector<Telemetry> telemetry;
  telemetry.reserve(static_cast<std::size_t>(n));
  std::vector<Controllers> controllers(static_cast<std::size_t>(n));
  std::vector<std::shared_ptr<void>> custom;
  std::unique_ptr<autoscale::Cluster> cluster;
  std::unique_ptr<autoscale::HorizontalPodAutoscaler> hpa;
  std::vector<std::unique_ptr<workload::TrafficDriver>> traffic;
  std::vector<std::unique_ptr<fault::FaultInjector>> injectors;
  obs::LiveSources sources;
  for (int i = 0; i < n; ++i) {
    sim::Application& app = sharded.app(i);
    Telemetry& shard_telemetry = telemetry.emplace_back(telemetry_options);
    shard_telemetry.Attach(app);
    sources.shards.push_back(
        {&app, shard_telemetry.tracer(), shard_telemetry.monitor()});

    // The TSDB feeder chains after the telemetry observers, so it attaches
    // second. A single shard exports the plane with the run's other
    // artifacts (and merges alert transitions into its decision log).
    if (tsdb != nullptr) {
      tsdb->Attach(app, i, n);
      if (n == 1) shard_telemetry.SetTsdb(tsdb);
    }

    Controllers& shard_controllers = controllers[i];
    if (spec.attach) {
      custom.push_back(spec.attach(app));
    } else {
      shard_controllers.Attach(spec.variant, app, spec.policy,
                               spec.topfull_config, /*mimd_decrease=*/0.05,
                               /*mimd_increase=*/0.01, spec.static_rate);
    }
    if (shard_controllers.topfull() != nullptr) {
      shard_telemetry.Attach(*shard_controllers.topfull());
    }

    if (spec.hpa) {
      cluster = std::make_unique<autoscale::Cluster>(&app.sim(), *spec.hpa);
      hpa = std::make_unique<autoscale::HorizontalPodAutoscaler>(
          &app, cluster.get(), autoscale::HpaConfig{});
      hpa->Start();
    }

    traffic.push_back(std::make_unique<workload::TrafficDriver>(&app));
    if (n > 1) {
      traffic.back()->SetShardScope(
          workload::TrafficDriver::ShardScope{&sharded.plan().api_origin, i});
    }
    if (spec.traffic) spec.traffic(*traffic.back(), app);

    injectors.push_back(std::make_unique<fault::FaultInjector>(
        &app, FaultsForShard(spec.faults, app, sharded.plan(), i),
        spec.fault_seed));
    if (cluster != nullptr) injectors.back()->AttachCluster(cluster.get());
    if (!injectors.back()->schedule().empty()) injectors.back()->Arm();
  }

  sources.label = spec.label;
  sources.duration_s = spec.duration_s;
  sources.sharded = &sharded;
  // A start-of-run snapshot, so a scrape that races the first chunk never
  // sees an empty board.
  if (spec.live != nullptr) spec.live->MaybePublish(sources);
  {
    obs::ScopedTimer timer("exp/simulate");
    // Chunks are whole multiples of the lookahead so the window edges land
    // exactly where an unchunked run puts them — otherwise a truncated
    // window could reorder same-timestamp cross-shard delivery.
    const SimTime lookahead = std::max<SimTime>(options.net_latency, 1);
    const SimTime chunk =
        std::max<SimTime>(Millis(100) / lookahead, 1) * lookahead;
    const SimTime end = sharded.Now() + Seconds(spec.duration_s);
    while (sharded.Now() < end) {
      sharded.RunUntil(std::min(sharded.Now() + chunk, end));
      if (tsdb != nullptr) tsdb->EvaluateRulesUpTo(ToSeconds(sharded.Now()));
      if (spec.live != nullptr) spec.live->MaybePublish(sources);
    }
  }
  // Catch the final boundary (already-evaluated boundaries are skipped).
  if (tsdb != nullptr) tsdb->FinishRules(ToSeconds(sharded.Now()));
  if (spec.live != nullptr) spec.live->Publish(sources, /*finished=*/true);

  // Deterministic merged fault log: shard-major concatenation, then a
  // stable sort by injection time (ties keep shard order).
  for (const auto& injector : injectors) {
    const auto& log = injector->Log();
    result.fault_log.insert(result.fault_log.end(), log.begin(), log.end());
  }
  std::stable_sort(
      result.fault_log.begin(), result.fault_log.end(),
      [](const fault::FaultRecord& a, const fault::FaultRecord& b) {
        return a.at < b.at;
      });

  for (const auto& driver : traffic) {
    const auto& pools = driver->pools();
    if (result.pool_outcomes.size() < pools.size()) {
      result.pool_outcomes.resize(pools.size());
    }
    for (std::size_t p = 0; p < pools.size(); ++p) {
      const auto& users = pools[p]->Outcomes();
      result.pool_outcomes[p].insert(result.pool_outcomes[p].end(),
                                     users.begin(), users.end());
    }
  }

  if (telemetry_options.enabled()) {
    obs::ScopedTimer timer("exp/export_telemetry");
    const std::string base =
        telemetry_name.empty() ? SanitizeFileName(spec.label) : telemetry_name;
    for (int i = 0; i < n; ++i) {
      const auto& log = injectors[i]->Log();
      result.telemetry.push_back(telemetry[i].Export(
          sharded.app(i), n > 1 ? base + ".shard" + std::to_string(i) : base,
          controllers[i].topfull(), log.empty() ? nullptr : &log));
    }
    // Sharded runs write the run-level plane once, under the run name.
    if (tsdb != nullptr && n > 1) {
      const std::string path = telemetry_options.dir + "/" + base;
      obs::WriteTsdbJson(tsdb->tsdb(), path + ".tsdb.json");
      obs::WriteAlertsJson(tsdb->rules(), path + ".alerts.json");
    }
  }
  return result;
}

}  // namespace topfull::exp
