#include "obs/slo_monitor.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace topfull::obs {

const char* SloEventTypeName(SloEventType type) {
  switch (type) {
    case SloEventType::kSloBurnStart: return "slo_burn_start";
    case SloEventType::kSloBurnEnd: return "slo_burn_end";
    case SloEventType::kOverloadOnset: return "overload_onset";
    case SloEventType::kOverloadClear: return "overload_clear";
    case SloEventType::kStarvationStart: return "starvation_start";
    case SloEventType::kStarvationEnd: return "starvation_end";
    case SloEventType::kOscillation: return "oscillation";
  }
  return "unknown";
}

SloMonitor::SloMonitor(std::vector<std::string> api_names,
                       std::vector<std::string> service_names,
                       SloMonitorConfig config)
    : config_(config),
      api_names_(std::move(api_names)),
      service_names_(std::move(service_names)),
      overload_(service_names_.size()),
      starvation_(api_names_.size()),
      directions_(api_names_.size()) {
  assert(config_.window_s > 0.0);
}

std::unique_ptr<SloMonitor> SloMonitor::ForApp(sim::Application& app,
                                               SloMonitorConfig config) {
  config.window_s = ToSeconds(app.config().metrics_period);
  std::vector<std::string> api_names;
  for (sim::ApiId a = 0; a < app.NumApis(); ++a) api_names.push_back(app.api(a).name());
  std::vector<std::string> service_names;
  for (int s = 0; s < app.NumServices(); ++s) {
    service_names.push_back(app.service(s).name());
  }
  auto monitor = std::make_unique<SloMonitor>(std::move(api_names),
                                              std::move(service_names), config);
  monitor->next_ = app.metrics().window_observer();
  if (dynamic_cast<SloMonitor*>(monitor->next_) == nullptr) {
    monitor->BindRegistry(&app.metrics_registry());
  }
  app.metrics().SetWindowObserver(monitor.get());
  return monitor;
}

void SloMonitor::BindRegistry(MetricsRegistry* registry) { registry_ = registry; }

void SloMonitor::Emit(double t_s, SloEventType type, const std::string& subject,
                      double value, double threshold) {
  events_.push_back(SloEvent{t_s, type, subject, value, threshold});
  if (registry_ != nullptr) {
    registry_
        ->GetCounter("topfull_slo_events_total",
                     "Events emitted by the online SLO/overload monitor.",
                     {{"type", SloEventTypeName(type)}})
        ->Inc();
  }
}

std::uint64_t SloMonitor::CountOf(SloEventType type) const {
  std::uint64_t n = 0;
  for (const SloEvent& e : events_) {
    if (e.type == type) ++n;
  }
  return n;
}

double SloMonitor::BurnOver(int windows) const {
  std::uint64_t completed = 0, good = 0;
  const int n = std::min<int>(windows, static_cast<int>(burn_history_.size()));
  for (int i = 0; i < n; ++i) {
    const auto& [c, g] = burn_history_[burn_history_.size() - 1 - i];
    completed += c;
    good += g;
  }
  if (completed == 0) return 0.0;
  const double bad_fraction =
      static_cast<double>(completed - good) / static_cast<double>(completed);
  const double budget = std::max(1.0 - config_.slo_target, 1e-9);
  return bad_fraction / budget;
}

void SloMonitor::ObserveBurn(const sim::Snapshot& snap) {
  std::uint64_t completed = 0, good = 0;
  for (const sim::ApiWindow& w : snap.apis) {
    completed += w.completed;
    good += w.good;
  }
  burn_history_.emplace_back(completed, good);
  const auto slow_n =
      static_cast<std::size_t>(std::lround(config_.slow_window_s / config_.window_s));
  while (burn_history_.size() > std::max<std::size_t>(slow_n, 1)) {
    burn_history_.pop_front();
  }
  const int fast_n =
      std::max(1, static_cast<int>(std::lround(config_.fast_window_s / config_.window_s)));
  const double fast = BurnOver(fast_n);
  const double slow = BurnOver(static_cast<int>(slow_n));
  if (!burn_active_ && fast >= config_.burn_threshold && slow >= config_.burn_threshold) {
    burn_active_ = true;
    Emit(snap.t_end_s, SloEventType::kSloBurnStart, "total", fast,
         config_.burn_threshold);
  } else if (burn_active_ && fast < config_.burn_threshold &&
             slow < config_.burn_threshold) {
    burn_active_ = false;
    Emit(snap.t_end_s, SloEventType::kSloBurnEnd, "total", fast,
         config_.burn_threshold);
  }
}

void SloMonitor::ObserveOverload(const sim::Snapshot& snap) {
  const std::size_t n = std::min(overload_.size(), snap.services.size());
  for (std::size_t s = 0; s < n; ++s) {
    OverloadState& state = overload_[s];
    const double delay = snap.services[s].avg_queue_delay_s;
    if (delay > config_.overload_queue_delay_s) {
      ++state.over_windows;
      state.under_windows = 0;
      if (!state.overloaded && state.over_windows >= config_.overload_onset_windows) {
        state.overloaded = true;
        Emit(snap.t_end_s, SloEventType::kOverloadOnset, service_names_[s], delay,
             config_.overload_queue_delay_s);
      }
    } else {
      ++state.under_windows;
      state.over_windows = 0;
      if (state.overloaded && state.under_windows >= config_.overload_clear_windows) {
        state.overloaded = false;
        Emit(snap.t_end_s, SloEventType::kOverloadClear, service_names_[s], delay,
             config_.overload_queue_delay_s);
      }
    }
  }
}

void SloMonitor::ObserveStarvation(const sim::Snapshot& snap) {
  const std::size_t n = std::min(starvation_.size(), snap.apis.size());
  for (std::size_t a = 0; a < n; ++a) {
    StarvationState& state = starvation_[a];
    const sim::ApiWindow& w = snap.apis[a];
    if (w.offered >= config_.starvation_min_offered && w.good == 0) {
      ++state.starved_windows;
      if (!state.starved && state.starved_windows >= config_.starvation_windows) {
        state.starved = true;
        Emit(snap.t_end_s, SloEventType::kStarvationStart, api_names_[a],
             static_cast<double>(state.starved_windows),
             static_cast<double>(config_.starvation_windows));
      }
    } else {
      if (state.starved) {
        Emit(snap.t_end_s, SloEventType::kStarvationEnd, api_names_[a],
             static_cast<double>(state.starved_windows),
             static_cast<double>(config_.starvation_windows));
      }
      state.starved = false;
      state.starved_windows = 0;
    }
  }
}

void SloMonitor::ObserveOscillation(const sim::Snapshot& snap) {
  if (decision_log_ == nullptr) return;
  const auto& ticks = decision_log_->ticks();
  for (; decision_cursor_ < ticks.size(); ++decision_cursor_) {
    for (const LimitDelta& delta : ticks[decision_cursor_].limits) {
      if (delta.after == delta.before) continue;
      const int dir = delta.after > delta.before ? 1 : -1;
      if (static_cast<std::size_t>(delta.api) >= directions_.size()) continue;
      auto& history = directions_[delta.api];
      history.push_back(dir);
      while (history.size() >
             static_cast<std::size_t>(std::max(config_.oscillation_window_ticks, 2))) {
        history.pop_front();
      }
      int flips = 0;
      for (std::size_t i = 1; i < history.size(); ++i) {
        if (history[i] != history[i - 1]) ++flips;
      }
      if (flips >= config_.oscillation_flips) {
        Emit(snap.t_end_s, SloEventType::kOscillation, api_names_[delta.api],
             static_cast<double>(flips),
             static_cast<double>(config_.oscillation_flips));
        history.clear();  // cooldown: re-arm only after fresh reversals
      }
    }
  }
}

void SloMonitor::OnWindow(const sim::Snapshot& snap) {
  if (next_ != nullptr) next_->OnWindow(snap);
  ObserveBurn(snap);
  ObserveOverload(snap);
  ObserveStarvation(snap);
  ObserveOscillation(snap);
}

}  // namespace topfull::obs
