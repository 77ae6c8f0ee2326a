// Outside seams the ledger times the program through. Every probe wraps a
// public interface of the program and delegates to the real object, so a
// run with probes attached takes exactly the same decisions as the stock
// `Controllers::Attach(kTopFull)` path (main checks this by digest):
//
//   GateProbe     sim::EntryAdmission in front of TopFullController::Admit
//   TimedPolicy   core::RateController decorator around RlRateController
//   WindowProbe   sim::WindowObserver in front of the observer chain
//   ShardProbe    one replica's controller + probes; schedules Tick()
//                 itself, exactly as TopFullController::Start() does
//
// Untraced runs count calls, time controller ticks and time every 8th
// admission. Traced runs time every call and keep spans in memory
// (SpanLog), written once at the end as Chrome trace-event JSON.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/controller.hpp"
#include "core/rate_controller.hpp"
#include "ledger.hpp"
#include "sim/admission.hpp"
#include "sim/app.hpp"
#include "sim/metrics.hpp"

namespace ledger {

/// Completed and open spans of one thread of execution. Names must be
/// string literals. Not thread-safe: one log per shard (or per phase).
class SpanLog {
 public:
  struct Span {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;  ///< index of the enclosing span, -1 for a root
  };

  explicit SpanLog(int tid) : tid_(tid) {}

  /// Opens a span nested in the currently open one; returns its index.
  int Begin(const char* name);
  /// Closes span `id` (the innermost open one); returns its duration in ns.
  std::int64_t End(int id);

  int tid() const { return tid_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  int tid_;
  int open_ = -1;
  std::vector<Span> spans_;
};

/// Call count and busy time of one layer, as seen from outside it.
struct LayerStats {
  std::uint64_t calls = 0;
  std::int64_t busy_ns = 0;
  std::vector<double> samples_us;  ///< per-call durations when kept
};

/// Entry-gate probe. Traced, it times every call and sums the busy time.
/// Untraced, it times every 8th call into `samples` (when not null): two
/// clock reads per 8 calls, well under 1 % of a simulated request.
class GateProbe final : public topfull::sim::EntryAdmission {
 public:
  static constexpr std::uint64_t kSampleEvery = 8;

  GateProbe(topfull::sim::EntryAdmission* inner, bool traced,
            LatencyHistogram* samples)
      : inner_(inner), traced_(traced), samples_(samples) {}

  bool Admit(topfull::sim::ApiId api, topfull::SimTime now) override;

  std::uint64_t calls() const { return calls_; }
  std::uint64_t admitted() const { return admitted_; }
  std::int64_t busy_ns() const { return busy_ns_; }  ///< traced runs only

 private:
  topfull::sim::EntryAdmission* inner_;
  bool traced_;
  LatencyHistogram* samples_;
  std::uint64_t calls_ = 0;
  std::uint64_t admitted_ = 0;
  std::int64_t busy_ns_ = 0;
};

/// Rate-controller decorator: counts (and, with a span log, times) every
/// policy inference. Clones wrap clones, so every per-cluster controller
/// TopFullController creates is measured.
class TimedPolicy final : public topfull::core::RateController {
 public:
  TimedPolicy(std::unique_ptr<topfull::core::RateController> inner,
              LayerStats* stats, SpanLog* spans)
      : inner_(std::move(inner)), stats_(stats), spans_(spans) {}

  double DecideStep(const topfull::core::ControlState& state) override;
  std::unique_ptr<topfull::core::RateController> Clone() const override {
    return std::make_unique<TimedPolicy>(inner_->Clone(), stats_, spans_);
  }
  void Reset() override { inner_->Reset(); }

 private:
  std::unique_ptr<topfull::core::RateController> inner_;
  LayerStats* stats_;
  SpanLog* spans_;  ///< null when untraced
};

/// Front of the window-observer chain: forwards every closed window.
class WindowProbe final : public topfull::sim::WindowObserver {
 public:
  WindowProbe(topfull::sim::WindowObserver* next, LayerStats* stats,
              SpanLog* spans)
      : next_(next), stats_(stats), spans_(spans) {}

  void OnWindow(const topfull::sim::Snapshot& snapshot) override;

 private:
  topfull::sim::WindowObserver* next_;
  LayerStats* stats_;
  SpanLog* spans_;  ///< null when untraced
};

/// One application replica's TopFull controller plus its probes. Built by
/// the RunSpec attach hook; shared with the benchmark so the counters
/// outlive the run. Holds `this` in a scheduled event: never copied/moved.
class ShardProbe {
 public:
  /// `admit_samples` receives the untraced gate's latency samples; it is
  /// not synchronized, so untraced shards must run on one thread.
  ShardProbe(topfull::sim::Application& app,
             const topfull::rl::GaussianPolicy* policy, bool traced, int tid,
             LatencyHistogram* admit_samples);
  ShardProbe(const ShardProbe&) = delete;
  ShardProbe& operator=(const ShardProbe&) = delete;

  const topfull::core::TopFullController& controller() const {
    return *controller_;
  }
  const GateProbe& gate() const { return *gate_; }
  const LayerStats& ticks() const { return ticks_; }
  const LayerStats& rl() const { return rl_; }
  const LayerStats& windows() const { return windows_; }
  const SpanLog& spans() const { return spans_; }
  /// Sum over ticks of the clusters the tick controlled.
  std::uint64_t clusters() const { return clusters_; }

 private:
  void Tick();

  bool traced_;
  SpanLog spans_;
  LayerStats ticks_;  ///< every tick timed (tick_p50_us is end-to-end)
  LayerStats rl_;
  LayerStats windows_;
  std::uint64_t clusters_ = 0;
  std::unique_ptr<topfull::core::TopFullController> controller_;
  std::unique_ptr<GateProbe> gate_;
  std::unique_ptr<WindowProbe> window_;
};

/// Per-call admission kept as an aggregate: one Chrome counter event.
struct TraceCounter {
  std::string name;
  int tid = 0;
  std::int64_t ts_ns = 0;
  double calls = 0;
  double busy_ms = 0;
};
/// Writes spans of every log as Chrome trace-event JSON ("X" events with
/// the parent index in args) plus one counter event per `counters` entry.
/// Returns false on I/O failure.
bool WriteChromeTrace(const std::string& path,
                      const std::vector<const SpanLog*>& logs,
                      const std::vector<TraceCounter>& counters);

}  // namespace ledger
