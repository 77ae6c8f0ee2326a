// The run executor: one RunSpec executed across N engine shards.
//
// Every run in the repo goes through RunShardedSpec — RunExecutor::RunOne
// is this at one shard: the bench sweeps, the scenario runner's cells,
// `topfull run` and the perf ledger. Only loops that must step the engine
// themselves stay outside: the RL environment (1 s agent steps), the
// engine microbench and the per-second recluster sampler. The steps are:
// app factory (one replica per shard), telemetry, time-series plane,
// controllers, autoscaler, traffic, faults, run, export. Each per-app step
// runs once per replica with shard-local scope: controllers attach to
// every replica (a controller whose APIs see no local traffic simply never
// acts), traffic is apportioned by API origin, and fault events are armed
// only on the shard owning their target service. With shards == 1 every
// step degenerates to a plain single-app run, which the engine-identity
// digests pin byte-for-byte to the seed engine.
//
// The run loop advances in chunks of 100 ms of sim time, rounded to whole
// lookahead multiples so window edges land exactly where an unchunked run
// puts them. Every chunk edge is a quiescent point: there the rules of the
// time-series plane are evaluated and the live plane publishes.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "exp/run_executor.hpp"
#include "sim/sharded_app.hpp"

namespace topfull::exp {

/// Shard count, cross-shard latency (== lookahead) and threaded vs
/// sequential execution: exactly what the ShardedApp is built with.
using ShardedRunOptions = sim::ShardedApp::Options;

struct ShardedRunResult {
  std::string label;
  std::unique_ptr<sim::ShardedApp> app;
  /// Per-shard injector logs merged deterministically (stable-sorted by
  /// injection time, shard order preserved within a timestamp).
  std::vector<fault::FaultRecord> fault_log;
  /// Per-user outcomes of each closed-loop pool (traffic-hook order), each
  /// pool's users from every shard in shard order.
  std::vector<std::vector<workload::UserOutcomes>> pool_outcomes;
  /// One export summary per shard; empty when telemetry is off.
  std::vector<TelemetrySummary> telemetry;
};

/// Runs `spec` across `options.shards` shards. Telemetry files are named
/// `telemetry_name` (default: the sanitized label), per shard with a
/// ".shard<k>" suffix for N > 1. The time-series plane's artifacts are
/// written once per run under `telemetry_name`.
ShardedRunResult RunShardedSpec(const RunSpec& spec,
                                const ShardedRunOptions& options,
                                const std::string& telemetry_name = "");

}  // namespace topfull::exp
