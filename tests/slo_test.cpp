// Tests for the online SLO/overload monitor: synthetic window streams must
// reproduce exact event sequences, and the event stream must be invariant
// to request tracing being attached.
#include <gtest/gtest.h>

#include <memory>

#include "core/controller.hpp"
#include "core/rate_controller.hpp"
#include "obs/decision_log.hpp"
#include "obs/slo_monitor.hpp"
#include "obs/trace.hpp"
#include "sim/metrics.hpp"
#include "workload/generators.hpp"

namespace topfull {
namespace {

sim::Snapshot Snap(double t_end_s, std::vector<sim::ApiWindow> apis,
                   std::vector<sim::ServiceWindow> services) {
  sim::Snapshot snap;
  snap.t_end_s = t_end_s;
  snap.apis = std::move(apis);
  snap.services = std::move(services);
  return snap;
}

sim::ApiWindow Api(std::uint64_t offered, std::uint64_t completed,
                   std::uint64_t good) {
  sim::ApiWindow w;
  w.offered = offered;
  w.admitted = offered;
  w.completed = completed;
  w.good = good;
  return w;
}

sim::ServiceWindow Delay(double avg_queue_delay_s) {
  sim::ServiceWindow w;
  w.avg_queue_delay_s = avg_queue_delay_s;
  return w;
}

// --- Burn-rate alerting ------------------------------------------------------

TEST(SloTest, BurnAlertOpensAndClosesOnFastAndSlowWindows) {
  obs::SloMonitorConfig config;
  config.window_s = 1.0;
  config.slo_target = 0.9;  // error budget 0.1
  config.fast_window_s = 2.0;
  config.slow_window_s = 4.0;
  config.burn_threshold = 2.0;
  obs::SloMonitor monitor({"api0"}, {}, config);

  // 4 healthy windows, 2 bad (40 % bad => burn 6 over the fast window),
  // then healthy again. The alert must open only once both windows agree
  // (t=6: fast 6, slow 3) and close only once both drop below threshold
  // (t=9: fast 0, slow 1.5).
  const std::uint64_t goods[] = {100, 100, 100, 100, 40, 40, 100, 100, 100};
  for (int i = 0; i < 9; ++i) {
    monitor.OnWindow(Snap(i + 1.0, {Api(100, 100, goods[i])}, {}));
  }
  const auto& events = monitor.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].type, obs::SloEventType::kSloBurnStart);
  EXPECT_DOUBLE_EQ(events[0].t_s, 6.0);
  EXPECT_EQ(events[0].subject, "total");
  EXPECT_DOUBLE_EQ(events[0].value, 6.0);  // fast-window burn at open
  EXPECT_DOUBLE_EQ(events[0].threshold, 2.0);
  EXPECT_EQ(events[1].type, obs::SloEventType::kSloBurnEnd);
  EXPECT_DOUBLE_EQ(events[1].t_s, 9.0);
  EXPECT_EQ(monitor.CountOf(obs::SloEventType::kSloBurnStart), 1u);
  EXPECT_EQ(monitor.CountOf(obs::SloEventType::kOverloadOnset), 0u);
}

TEST(SloTest, ZeroTrafficWindowsNeverBurn) {
  obs::SloMonitorConfig config;
  config.slo_target = 0.99;
  obs::SloMonitor monitor({"api0"}, {}, config);
  for (int i = 0; i < 40; ++i) {
    monitor.OnWindow(Snap(i + 1.0, {Api(0, 0, 0)}, {}));
  }
  EXPECT_TRUE(monitor.events().empty());
}

// --- Overload onset/clear (DAGOR queueing-delay signal) ----------------------

TEST(SloTest, OverloadHysteresisOnQueueingDelay) {
  obs::SloMonitorConfig config;
  config.overload_queue_delay_s = 0.02;
  config.overload_onset_windows = 2;
  config.overload_clear_windows = 3;
  obs::SloMonitor monitor({"api0"}, {"svcA"}, config);

  // over over | under over | under under under => onset at the 2nd over
  // window, no clear on the 1-window dip, clear after 3 consecutive under.
  const double delays[] = {0.05, 0.05, 0.01, 0.05, 0.01, 0.01, 0.01};
  for (int i = 0; i < 7; ++i) {
    monitor.OnWindow(Snap(i + 1.0, {Api(10, 10, 10)}, {Delay(delays[i])}));
  }
  const auto& events = monitor.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].type, obs::SloEventType::kOverloadOnset);
  EXPECT_DOUBLE_EQ(events[0].t_s, 2.0);
  EXPECT_EQ(events[0].subject, "svcA");
  EXPECT_DOUBLE_EQ(events[0].value, 0.05);
  EXPECT_DOUBLE_EQ(events[0].threshold, 0.02);
  EXPECT_EQ(events[1].type, obs::SloEventType::kOverloadClear);
  EXPECT_DOUBLE_EQ(events[1].t_s, 7.0);
  EXPECT_DOUBLE_EQ(events[1].value, 0.01);
}

// --- Per-API starvation ------------------------------------------------------

TEST(SloTest, StarvationRequiresTrafficWithZeroGoodput) {
  obs::SloMonitorConfig config;
  config.starvation_windows = 3;
  config.starvation_min_offered = 1;
  config.burn_threshold = 1e12;  // isolate starvation from burn alerting
  obs::SloMonitor monitor({"api0", "api1"}, {}, config);

  // api0: offered traffic, zero goodput for 3 windows, then recovers.
  // api1: idle (no offered traffic) the whole time -- never starved.
  for (int i = 0; i < 3; ++i) {
    monitor.OnWindow(Snap(i + 1.0, {Api(10, 0, 0), Api(0, 0, 0)}, {}));
  }
  monitor.OnWindow(Snap(4.0, {Api(10, 10, 5), Api(0, 0, 0)}, {}));
  const auto& events = monitor.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].type, obs::SloEventType::kStarvationStart);
  EXPECT_DOUBLE_EQ(events[0].t_s, 3.0);
  EXPECT_EQ(events[0].subject, "api0");
  EXPECT_EQ(events[1].type, obs::SloEventType::kStarvationEnd);
  EXPECT_DOUBLE_EQ(events[1].t_s, 4.0);
  EXPECT_EQ(events[1].subject, "api0");
}

// --- Controller oscillation --------------------------------------------------

TEST(SloTest, OscillationDetectedFromDecisionLogFlips) {
  obs::SloMonitorConfig config;
  config.oscillation_window_ticks = 8;
  config.oscillation_flips = 3;
  obs::SloMonitor monitor({"api0"}, {}, config);
  obs::DecisionLog log;
  monitor.SetDecisionLog(&log);

  // Alternating up/down rate changes across ticks: directions +,-,+,-
  // accumulate 3 reversals by the 4th tick.
  double rate = 100.0;
  for (int tick = 0; tick < 4; ++tick) {
    log.BeginTick(tick + 0.5, {}, {});
    const double next = tick % 2 == 0 ? rate + 10.0 : rate - 10.0;
    log.OnRateChange(0, rate, next);
    rate = next;
    log.EndTick();
  }
  monitor.OnWindow(Snap(5.0, {Api(10, 10, 10)}, {}));
  const auto& events = monitor.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].type, obs::SloEventType::kOscillation);
  EXPECT_DOUBLE_EQ(events[0].t_s, 5.0);
  EXPECT_EQ(events[0].subject, "api0");
  EXPECT_DOUBLE_EQ(events[0].value, 3.0);
  EXPECT_DOUBLE_EQ(events[0].threshold, 3.0);

  // Cooldown: the same alternation must rebuild from scratch before the
  // next event, and steady moves in one direction never fire.
  for (int tick = 4; tick < 6; ++tick) {
    log.BeginTick(tick + 0.5, {}, {});
    log.OnRateChange(0, rate, rate + 10.0);
    rate += 10.0;
    log.EndTick();
  }
  monitor.OnWindow(Snap(7.0, {Api(10, 10, 10)}, {}));
  EXPECT_EQ(monitor.CountOf(obs::SloEventType::kOscillation), 1u);
}

TEST(SloTest, NoOpRateChangesAndUnknownApisAreIgnored) {
  obs::SloMonitorConfig config;
  config.oscillation_flips = 1;
  obs::SloMonitor monitor({"api0"}, {}, config);
  obs::DecisionLog log;
  monitor.SetDecisionLog(&log);
  log.BeginTick(0.5, {}, {});
  log.OnRateChange(0, 100.0, 100.0);  // no movement
  log.OnRateChange(7, 100.0, 50.0);   // API out of range
  log.EndTick();
  monitor.OnWindow(Snap(1.0, {Api(1, 1, 1)}, {}));
  EXPECT_TRUE(monitor.events().empty());
}

// --- Event counters land in the registry -------------------------------------

TEST(SloTest, BoundRegistryMirrorsEventCounts) {
  obs::SloMonitorConfig config;
  config.overload_onset_windows = 1;
  obs::SloMonitor monitor({"api0"}, {"svcA"}, config);
  obs::MetricsRegistry registry;
  monitor.BindRegistry(&registry);
  monitor.OnWindow(Snap(1.0, {Api(10, 10, 10)}, {Delay(0.5)}));
  const auto* cell =
      registry.Find("topfull_slo_events_total", {{"type", "overload_onset"}});
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(cell->counter.value(), 1u);
  EXPECT_EQ(monitor.CountOf(obs::SloEventType::kOverloadOnset), 1u);
}

// A small overloaded app: one ~400 rps service offered 800 rps.
std::unique_ptr<sim::Application> OverloadedApp() {
  auto app = std::make_unique<sim::Application>("slo-app", 11);
  sim::ServiceConfig svc;
  svc.name = "B";
  svc.mean_service_ms = 10.0;
  svc.service_sigma = 0.25;
  svc.threads = 4;
  svc.initial_pods = 1;
  const sim::ServiceId b = app->AddService(svc);
  sim::ApiSpec api0("api0", 1);
  api0.AddPath(sim::ExecutionPath{sim::Chain({b}), 1.0, {}});
  app->AddApi(std::move(api0));
  app->Finalize();
  return app;
}

struct CountingObserver : sim::WindowObserver {
  int windows = 0;
  void OnWindow(const sim::Snapshot&) override { ++windows; }
};

TEST(SloTest, ForAppChainsToTheObserverInstalledBefore) {
  auto app = OverloadedApp();
  CountingObserver counter;
  app->metrics().SetWindowObserver(&counter);
  auto monitor = obs::SloMonitor::ForApp(*app);
  workload::TrafficDriver traffic(app.get());
  traffic.AddOpenLoop(0, workload::Schedule::Constant(800));
  app->RunFor(Seconds(10));
  ASSERT_GE(app->metrics().Timeline().size(), 9u);
  EXPECT_EQ(counter.windows,
            static_cast<int>(app->metrics().Timeline().size()))
      << "ForApp cut off the earlier observer";
  EXPECT_FALSE(monitor->events().empty()) << "the monitor saw no window";
}

TEST(SloTest, SecondMonitorOnOneAppDoesNotDoubleTheEventCounter) {
  auto app = OverloadedApp();
  auto first = obs::SloMonitor::ForApp(*app);
  auto second = obs::SloMonitor::ForApp(*app);
  workload::TrafficDriver traffic(app.get());
  traffic.AddOpenLoop(0, workload::Schedule::Constant(800));
  app->RunFor(Seconds(10));
  ASSERT_FALSE(first->events().empty());
  EXPECT_EQ(first->events().size(), second->events().size());
  std::uint64_t counted = 0;
  for (const auto& [key, cell] :
       app->metrics_registry().families().at("topfull_slo_events_total").cells) {
    counted += cell->counter.value();
  }
  EXPECT_EQ(counted, first->events().size());
}

// --- Determinism: tracing on/off must not move any event ---------------------

TEST(SloTest, EventStreamIsIdenticalWithTracingOnAndOff) {
  const auto run = [](bool traced) {
    auto app = OverloadedApp();
    obs::RequestTracer tracer;
    if (traced) app->SetObserver(&tracer);
    auto monitor = obs::SloMonitor::ForApp(*app);
    auto controller = std::make_unique<core::TopFullController>(
        app.get(), std::make_unique<core::MimdRateController>(0.05, 0.01));
    controller->Start();
    obs::DecisionLog log;
    controller->SetDecisionObserver(&log);
    monitor->SetDecisionLog(&log);
    workload::TrafficDriver traffic(app.get());
    traffic.AddOpenLoop(0, workload::Schedule::Constant(800));  // ~2x capacity
    app->RunFor(Seconds(25));
    return std::make_pair(std::move(app), std::move(monitor));
  };
  const auto [app_off, mon_off] = run(false);
  const auto [app_on, mon_on] = run(true);
  const auto& a = mon_off->events();
  const auto& b = mon_on->events();
  EXPECT_FALSE(a.empty()) << "overloaded run should emit SLO events";
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].t_s, b[i].t_s) << i;  // bit-exact
    EXPECT_EQ(a[i].type, b[i].type) << i;
    EXPECT_EQ(a[i].subject, b[i].subject) << i;
    EXPECT_EQ(a[i].value, b[i].value) << i;
    EXPECT_EQ(a[i].threshold, b[i].threshold) << i;
  }
}

}  // namespace
}  // namespace topfull
