// Online SLO / overload monitor.
//
// Consumes the sim::MetricsCollector window stream (via sim::WindowObserver,
// synchronously at every Snapshot close) and emits structured, deterministic
// events:
//
//  - SLO burn rate over a fast and a slow sliding window (multi-window burn
//    alerting a la Google SRE): burn = bad-fraction / error-budget, where
//    bad-fraction is the share of completions missing the latency SLO.
//  - Overload onset/clear per microservice from queueing delay, the DAGOR
//    signal (Zhou et al.): average queueing delay above a threshold for N
//    consecutive windows flags the service, below it for M windows clears.
//  - Per-API starvation: offered traffic with zero goodput for K windows.
//  - Controller oscillation: rate-limit direction flips in the decision log.
//
// Events carry simulation timestamps only, so the stream is byte-identical
// across TOPFULL_THREADS values and with tracing on or off. The monitor is
// strictly pass-through: it observes windows and the decision log, never
// the controller or admission path.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "obs/decision_log.hpp"
#include "obs/metrics_registry.hpp"
#include "sim/app.hpp"
#include "sim/metrics.hpp"

namespace topfull::obs {

struct SloMonitorConfig {
  /// Metrics window length (for converting the sliding windows to counts).
  double window_s = 1.0;
  /// Target fraction of completions inside the latency SLO; the error
  /// budget is 1 - slo_target.
  double slo_target = 0.99;
  double fast_window_s = 5.0;
  double slow_window_s = 30.0;
  /// Burn-rate multiple that opens (both windows above) and closes (both
  /// below) the burn alert.
  double burn_threshold = 2.0;
  /// DAGOR-style average queueing-delay threshold (their default: 20 ms).
  double overload_queue_delay_s = 0.02;
  int overload_onset_windows = 2;
  int overload_clear_windows = 3;
  /// Windows with traffic but zero goodput before an API counts as starved.
  int starvation_windows = 5;
  std::uint64_t starvation_min_offered = 1;
  /// Oscillation: at least `oscillation_flips` direction reversals among an
  /// API's last `oscillation_window_ticks` rate-limit changes.
  int oscillation_window_ticks = 12;
  int oscillation_flips = 6;
};

enum class SloEventType {
  kSloBurnStart,
  kSloBurnEnd,
  kOverloadOnset,
  kOverloadClear,
  kStarvationStart,
  kStarvationEnd,
  kOscillation,
};

/// Stable wire name ("slo_burn_start", "overload_onset", ...).
const char* SloEventTypeName(SloEventType type);

struct SloEvent {
  double t_s = 0.0;  ///< window-close simulation time
  SloEventType type = SloEventType::kSloBurnStart;
  std::string subject;  ///< API/service name; "total" for app-level burn
  double value = 0.0;
  double threshold = 0.0;
};

class SloMonitor : public sim::WindowObserver {
 public:
  SloMonitor(std::vector<std::string> api_names,
             std::vector<std::string> service_names, SloMonitorConfig config = {});

  /// Builds a monitor for `app` (names, window/SLO parameters from its
  /// config) and installs it as the window observer, chained after any
  /// observer installed earlier (which still sees every window, first).
  /// The monitor binds the event counters into the app's registry unless
  /// it chains directly after another monitor, which already counts the
  /// same windows. The caller owns the monitor and must keep it alive for
  /// the run.
  static std::unique_ptr<SloMonitor> ForApp(sim::Application& app,
                                            SloMonitorConfig config = {});

  /// Oscillation source (not owned). Ticks appended to the log are
  /// consumed incrementally at every window close.
  void SetDecisionLog(const DecisionLog* log) { decision_log_ = log; }

  /// Mirrors per-type event counts into `topfull_slo_events_total`.
  void BindRegistry(MetricsRegistry* registry);

  // sim::WindowObserver:
  void OnWindow(const sim::Snapshot& snapshot) override;

  const std::vector<SloEvent>& events() const { return events_; }
  std::uint64_t CountOf(SloEventType type) const;
  const SloMonitorConfig& config() const { return config_; }

 private:
  void Emit(double t_s, SloEventType type, const std::string& subject,
            double value, double threshold);
  void ObserveBurn(const sim::Snapshot& snap);
  void ObserveOverload(const sim::Snapshot& snap);
  void ObserveStarvation(const sim::Snapshot& snap);
  void ObserveOscillation(const sim::Snapshot& snap);
  double BurnOver(int windows) const;

  SloMonitorConfig config_;
  std::vector<std::string> api_names_;
  std::vector<std::string> service_names_;
  const DecisionLog* decision_log_ = nullptr;
  MetricsRegistry* registry_ = nullptr;
  sim::WindowObserver* next_ = nullptr;  ///< observer installed before ForApp

  std::vector<SloEvent> events_;

  // Burn-rate state: per-window (completed, good) aggregates, newest last.
  std::deque<std::pair<std::uint64_t, std::uint64_t>> burn_history_;
  bool burn_active_ = false;

  // Per-service overload state.
  struct OverloadState {
    bool overloaded = false;
    int over_windows = 0;
    int under_windows = 0;
  };
  std::vector<OverloadState> overload_;

  // Per-API starvation state.
  struct StarvationState {
    bool starved = false;
    int starved_windows = 0;
  };
  std::vector<StarvationState> starvation_;

  // Per-API oscillation state: recent rate-change directions (+1/-1).
  std::vector<std::deque<int>> directions_;
  std::size_t decision_cursor_ = 0;
};

}  // namespace topfull::obs
