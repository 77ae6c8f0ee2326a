// In-process TSDB feed + rule evaluation for a simulation run.
//
// A TsdbPlane owns one Tsdb and one RuleEngine and feeds the store from
// the sim::MetricsCollector window stream: Attach installs a
// WindowObserver on the application that, at every window close, builds a
// registry-only MetricsSnapshot (no wall-clock families — none of the
// live-only profiler/scheduler gauges ever enter the store) and appends it
// at the window's sim-time stamp. The feeder chains to whatever observer
// was already installed (obs::SloMonitor) and calls it first, so the SLO
// event stream is untouched and alert transitions at the same timestamp
// sort after monitor events.
//
// Feeders only append: rules are evaluated by the thread that runs the
// simulation, at quiescent points. The run executor (exp/sharded_run.hpp)
// calls EvaluateRulesUpTo at every chunk edge and FinishRules at end of run.
// Query evaluation is strictly backward-looking (query.hpp), so evaluating
// a boundary after later windows were appended gives the same result as
// evaluating it the moment its window closed.
//
// The plane is a pure observer: it never schedules events or touches RNG
// state, so a run with it attached is bit-identical to one without.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "obs/http_server.hpp"
#include "obs/rules.hpp"
#include "obs/tsdb.hpp"
#include "sim/metrics.hpp"

namespace topfull::sim {
class Application;
}  // namespace topfull::sim

namespace topfull::obs {

class TsdbPlane {
 public:
  explicit TsdbPlane(TsdbOptions options = {});
  ~TsdbPlane();
  TsdbPlane(const TsdbPlane&) = delete;
  TsdbPlane& operator=(const TsdbPlane&) = delete;

  /// Installs the window feeder on `app`, chaining to any observer already
  /// installed there. Cells get a shard="k" label only when num_shards > 1
  /// (so unsharded series keys match the text exposition exactly).
  void Attach(sim::Application& app, int shard = 0, int num_shards = 1);

  Tsdb& tsdb() { return tsdb_; }
  const Tsdb& tsdb() const { return tsdb_; }
  RuleEngine& rules() { return rules_; }
  const RuleEngine& rules() const { return rules_; }

  /// Evaluates every not-yet-evaluated step boundary strictly before
  /// `t_s`. Strictly: a window closing exactly at a chunk edge may not
  /// have run yet, so the edge itself is deferred to the next call.
  void EvaluateRulesUpTo(double t_s);

  /// End-of-run catch-up: evaluates boundaries up to and including `t_s`.
  void FinishRules(double t_s);

 private:
  struct Feeder;
  void EvaluateBoundaries(double limit_s, bool inclusive);

  Tsdb tsdb_;
  RuleEngine rules_;
  std::uint64_t next_boundary_ = 1;  ///< next boundary is next_boundary_*step
  std::vector<std::unique_ptr<Feeder>> feeders_;
};

/// Writes TsdbJson(tsdb) to `path`. Returns false on I/O failure.
bool WriteTsdbJson(const Tsdb& tsdb, const std::string& path);

/// Writes rules.AlertsJson() to `path`. Returns false on I/O failure.
bool WriteAlertsJson(const RuleEngine& rules, const std::string& path);

/// Reloads a "topfull.tsdb.v1" document (the `<name>.tsdb.json` artifact)
/// into a fresh store. Samples are stored in `%.17g`, so the reload is
/// bit-exact and replayed /query responses match the live ones byte for
/// byte. Returns null with `error` filled on malformed input.
std::unique_ptr<Tsdb> TsdbFromJson(const std::string& text,
                                   std::string* error = nullptr);

/// Serves `/query?expr=...` over any store: `time=` (default: the store's
/// latest sample time) selects an instant query, `start=`/`end=`/`step=`
/// a range query. Body is QueryResultJson; parse/eval errors return 400,
/// missing/bad parameters 400 with the same JSON error envelope.
HttpResponse HandleQueryRequest(const HttpRequest& request, const Tsdb& tsdb);

}  // namespace topfull::obs
