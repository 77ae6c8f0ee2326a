// Parallel sweep harness for the bench binaries.
//
// Every paper figure is a matrix of independent simulation runs
// (variant x demand, variant x seed, vCPUs x with/without, ...). A RunSpec
// describes one cell — an app factory, the controller variant to attach,
// the traffic to drive, and how long to run — and RunExecutor runs the
// whole list on the shared worker pool, one complete Simulation +
// Application per worker. Each run owns its app, RNG streams, and metrics,
// so runs never share mutable state (the pre-trained policy is shared
// read-only); results come back in spec order, making a parallel sweep's
// output bit-identical to the sequential one.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "autoscale/cluster.hpp"
#include "common/thread_pool.hpp"
#include "exp/harness.hpp"
#include "fault/fault.hpp"
#include "sim/app.hpp"
#include "workload/generators.hpp"

namespace topfull::obs {
class LivePlane;
class TsdbPlane;
}  // namespace topfull::obs

namespace topfull::exp {

/// One independent simulation run.
struct RunSpec {
  std::string label;
  double duration_s = 0.0;

  /// Builds the application (topology, seeds, pod counts). Runs on the
  /// worker, so factories must not share mutable state across specs.
  std::function<std::unique_ptr<sim::Application>()> make_app;

  /// Installs the workload (closed-loop pools / open-loop generators).
  std::function<void(workload::TrafficDriver&, sim::Application&)> traffic;

  /// Standard controller attachment (ignored when `attach` is set).
  Variant variant = Variant::kNoControl;
  const rl::GaussianPolicy* policy = nullptr;  ///< shared read-only
  /// Config for the TopFull variants (ignored by the baselines).
  core::TopFullConfig topfull_config;
  /// Per-API entry rate for Variant::kStaticLimit (<= 0 = uncapped).
  double static_rate = 0.0;

  /// Custom controller attachment (e.g. a DAGOR with a swept config). The
  /// returned object is kept alive until the run completes.
  std::function<std::shared_ptr<void>(sim::Application&)> attach;

  /// Faults injected during the run (empty = none; zero perturbation).
  /// The injector draws only from its own stream seeded by `fault_seed`.
  fault::FaultSchedule faults;
  std::uint64_t fault_seed = fault::FaultInjector::kDefaultSeed;

  /// When set, starts a horizontal pod autoscaler (default HpaConfig) on a
  /// cluster of this shape after the controllers, and lets VM-outage
  /// faults act on that cluster. Single-shard runs only (RunShardedSpec
  /// throws otherwise).
  std::optional<autoscale::ClusterConfig> hpa;

  /// Telemetry export settings; unset reads TOPFULL_TRACE_DIR and
  /// TOPFULL_TRACE_SAMPLE (TelemetryOptions::FromEnv).
  std::optional<TelemetryOptions> telemetry;

  /// Live telemetry plane (non-owning; may be null). When set, a metrics
  /// snapshot is published to the plane at the run's chunk edges — a pure
  /// observer, so the run stays bit-identical to one without it. The final
  /// snapshot is published with finished=true.
  obs::LivePlane* live = nullptr;

  /// Time-series plane (non-owning; may be null). When set, a window
  /// feeder is attached (chained after any telemetry observers) and rules
  /// evaluate at the run's chunk edges; like `live`, a pure observer. When
  /// null, the TOPFULL_TSDB env var (non-empty, not "0") creates a
  /// run-owned plane with the default SLO burn rules, so benches gain the
  /// `.tsdb.json`/`.alerts.json` artifacts without code changes.
  obs::TsdbPlane* tsdb = nullptr;
};

/// The finished run: label echoed back plus the application with its full
/// metrics timeline, ready for goodput / convergence analysis.
struct RunResult {
  std::string label;
  std::unique_ptr<sim::Application> app;
  /// What the fault injector actually did (empty when no faults ran).
  std::vector<fault::FaultRecord> fault_log;
  /// Per-user outcomes of each closed-loop pool, in the order the traffic
  /// hook added the pools.
  std::vector<std::vector<workload::UserOutcomes>> pool_outcomes;
};

class RunExecutor {
 public:
  /// `pool == nullptr` uses ThreadPool::Global().
  explicit RunExecutor(ThreadPool* pool = nullptr) : pool_(pool) {}

  /// Runs every spec to completion; results are in spec order. With
  /// TOPFULL_TRACE_DIR set, every run additionally exports its telemetry
  /// (trace JSON / decision JSONL / Prometheus dump) under a deterministic
  /// "<index>_<label>" name, identically for any pool size.
  std::vector<RunResult> Execute(const std::vector<RunSpec>& specs) const;

  /// Runs a single spec on the calling thread: RunShardedSpec at one
  /// shard, with the replica handed back as a plain Application.
  /// `telemetry_name` names the run's telemetry files (defaults to the
  /// sanitized label).
  static RunResult RunOne(const RunSpec& spec,
                          const std::string& telemetry_name = "");

 private:
  ThreadPool* pool_;
};

}  // namespace topfull::exp
