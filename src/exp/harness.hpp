// Shared experiment harness: attaching a named overload-control variant to
// an application, and small reporting helpers used by every bench binary.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "baselines/breakwater.hpp"
#include "baselines/dagor.hpp"
#include "baselines/static_limit.hpp"
#include "baselines/wisp.hpp"
#include "core/controller.hpp"
#include "fault/fault.hpp"
#include "obs/decision_log.hpp"
#include "obs/slo_monitor.hpp"
#include "obs/trace.hpp"
#include "rl/policy.hpp"
#include "sim/app.hpp"
#include "workload/generators.hpp"

namespace topfull::obs {
class TsdbPlane;
}  // namespace topfull::obs

namespace topfull::exp {

/// The overload-control variants compared across the paper's figures.
enum class Variant {
  kNoControl,         ///< nothing installed
  kTopFull,           ///< full system, RL rate controller
  kTopFullMimd,       ///< ablation: static MIMD steps instead of RL (§6.2)
  kTopFullNoCluster,  ///< ablation: sequential control, no parallel clusters
  kTopFullBw,         ///< TopFull(BW): Breakwater-style AIMD at entry (§6.3)
  kDagor,             ///< DAGOR baseline (per-pod priority admission)
  kBreakwater,        ///< Breakwater baseline (per-pod credits + AQM)
  kWisp,              ///< WISP baseline (per-pod limits, upstream shedding)
  kStaticLimit,       ///< fixed per-API entry token bucket (non-adaptive)
};

std::string VariantName(Variant variant);

/// True when Controllers::Attach runs `variant` on the pre-trained RL
/// policy (and so needs one).
bool VariantNeedsPolicy(Variant variant);

/// Inverse of VariantName plus the CLI short names ("topfull", "mimd",
/// "dagor", "breakwater", "wisp", "static", "none", ...). Returns nullopt
/// for unknown names.
std::optional<Variant> VariantFromName(const std::string& name);

/// Attaches a variant's controller(s) to an application and keeps them
/// alive. `policy` must outlive this object for the RL variants.
/// `mimd_decrease`/`mimd_increase` customise the fixed-step controller
/// (Fig. 13 sweeps the decrease step).
class Controllers {
 public:
  Controllers() = default;

  void Attach(Variant variant, sim::Application& app,
              const rl::GaussianPolicy* policy,
              core::TopFullConfig config = {},
              double mimd_decrease = 0.05, double mimd_increase = 0.01,
              double static_rate = 0.0);

  core::TopFullController* topfull() { return topfull_.get(); }
  baselines::DagorAdmission* dagor() { return dagor_.get(); }
  baselines::BreakwaterAdmission* breakwater() { return breakwater_.get(); }
  baselines::WispAdmission* wisp() { return wisp_.get(); }
  baselines::StaticLimitAdmission* static_limit() { return static_.get(); }

 private:
  std::unique_ptr<core::TopFullController> topfull_;
  std::unique_ptr<baselines::DagorAdmission> dagor_;
  std::unique_ptr<baselines::BreakwaterAdmission> breakwater_;
  std::unique_ptr<baselines::WispAdmission> wisp_;
  std::unique_ptr<baselines::StaticLimitAdmission> static_;
};

/// Closed-loop user config with a uniform mix over all APIs of `app`
/// (the paper's Locust setup: N users, 1 request/second each).
workload::ClosedLoopConfig UniformUsers(const sim::Application& app);

/// Sum of AvgGoodput over all APIs in [from_s, to_s).
double TotalGoodput(const sim::Application& app, double from_s, double to_s = -1.0);

/// Per-API goodput averages in [from_s, to_s) as a row of doubles, with the
/// total appended.
std::vector<double> PerApiGoodputRow(const sim::Application& app, double from_s,
                                     double to_s = -1.0);

// --- Telemetry (span tracing + decision log + exporters) ---------------------

/// Where and how much to trace. Disabled (dir empty) by default; FromEnv
/// reads TOPFULL_TRACE_DIR and TOPFULL_TRACE_SAMPLE.
struct TelemetryOptions {
  std::string dir;           ///< output directory; empty = telemetry off
  double sample_rate = 1.0;  ///< fraction of requests traced, in [0, 1]
  std::size_t max_traces = 50000;

  bool enabled() const { return !dir.empty(); }
  static TelemetryOptions FromEnv();
};

/// End-of-run telemetry accounting returned by Telemetry::Export.
struct TelemetrySummary {
  std::uint64_t sampled = 0;
  std::uint64_t dropped = 0;
  std::uint64_t ticks = 0;      ///< decision-log ticks
  std::uint64_t decisions = 0;  ///< decision-log decisions (cluster + recovery)
  std::uint64_t slo_events = 0; ///< SLO monitor events emitted
  std::vector<std::string> paths;  ///< files written
};

/// Owns a RequestTracer, DecisionLog and SloMonitor for one run and writes
/// the Perfetto trace, decision JSONL, Prometheus dump, run summary JSON
/// and HTML report at the end. Must outlive the simulation run (the
/// application/controller hold raw observer pointers).
class Telemetry {
 public:
  Telemetry() = default;
  explicit Telemetry(TelemetryOptions options);

  bool enabled() const { return options_.enabled(); }

  /// Installs the span tracer and the SLO/overload monitor on `app`.
  /// No-op when disabled.
  void Attach(sim::Application& app);
  /// Installs the decision log on `controller` (and feeds it to the SLO
  /// monitor's oscillation detector). No-op when disabled.
  void Attach(core::TopFullController& controller);

  /// Associates a TSDB plane with this run (not owned, may be null). When
  /// set, Export additionally writes "<dir>/<name>.tsdb.json" and
  /// "<dir>/<name>.alerts.json" and merges the plane's alert transitions
  /// into the decision JSONL.
  void SetTsdb(const obs::TsdbPlane* tsdb) { tsdb_ = tsdb; }

  /// Writes "<dir>/<name>.trace.json", "<dir>/<name>.decisions.jsonl" (when
  /// a controller was attached), "<dir>/<name>.metrics.prom",
  /// "<dir>/<name>.summary.json" and "<dir>/<name>.report.html", creating
  /// `dir` recursively. Paths are reported on stderr when `log_stderr`
  /// (bench stdout must stay byte-identical with telemetry on or off).
  /// When `faults` is non-null, injected fault records are embedded in the
  /// trace (instant events), the summary and the report. SLO monitor
  /// events appear in the decision JSONL, the Perfetto trace, the summary
  /// and the report.
  TelemetrySummary Export(const sim::Application& app, const std::string& name,
                          const core::TopFullController* controller = nullptr,
                          const std::vector<fault::FaultRecord>* faults = nullptr,
                          bool log_stderr = true);

  const obs::RequestTracer* tracer() const { return tracer_.get(); }
  const obs::SloMonitor* monitor() const { return monitor_.get(); }

 private:
  TelemetryOptions options_;
  std::unique_ptr<obs::RequestTracer> tracer_;
  std::unique_ptr<obs::DecisionLog> decision_log_;
  std::unique_ptr<obs::SloMonitor> monitor_;
  const obs::TsdbPlane* tsdb_ = nullptr;
};

/// A time-series plane with the default SLO burn-rate alert pair; null
/// unless `force` or the TOPFULL_TSDB env var (non-empty, not "0") asks
/// for one.
std::unique_ptr<obs::TsdbPlane> MakeSloTsdbPlane(bool force = false);

/// Replaces path-hostile characters so a run label can name a trace file.
std::string SanitizeFileName(const std::string& name);

}  // namespace topfull::exp
