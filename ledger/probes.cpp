#include "probes.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>

#include "ledger.hpp"

namespace ledger {

using namespace topfull;

int SpanLog::Begin(const char* name) {
  spans_.push_back(Span{name, NowNs(), 0, open_});
  open_ = static_cast<int>(spans_.size()) - 1;
  return open_;
}

std::int64_t SpanLog::End(int id) {
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.end_ns = NowNs();
  open_ = span.parent;
  return span.end_ns - span.start_ns;
}

bool GateProbe::Admit(sim::ApiId api, SimTime now) {
  ++calls_;
  bool ok = false;
  if (traced_ || (samples_ != nullptr && calls_ % kSampleEvery == 0)) {
    const std::int64_t t0 = NowNs();
    ok = inner_->Admit(api, now);
    const std::int64_t dt = NowNs() - t0;
    if (traced_) {
      busy_ns_ += dt;
    } else {
      samples_->Add(dt);
    }
  } else {
    ok = inner_->Admit(api, now);
  }
  admitted_ += ok ? 1 : 0;
  return ok;
}

double TimedPolicy::DecideStep(const core::ControlState& state) {
  ++stats_->calls;
  if (spans_ == nullptr) return inner_->DecideStep(state);
  const int id = spans_->Begin("rl/infer");
  const double step = inner_->DecideStep(state);
  stats_->busy_ns += spans_->End(id);
  return step;
}

void WindowProbe::OnWindow(const sim::Snapshot& snapshot) {
  ++stats_->calls;
  if (spans_ == nullptr) {
    next_->OnWindow(snapshot);
    return;
  }
  const int id = spans_->Begin("obs/window");
  next_->OnWindow(snapshot);
  const std::int64_t dt = spans_->End(id);
  stats_->busy_ns += dt;
  stats_->samples_us.push_back(static_cast<double>(dt) / 1e3);
}

ShardProbe::ShardProbe(sim::Application& app, const rl::GaussianPolicy* policy,
                       bool traced, int tid,
                       LatencyHistogram* admit_samples)
    : traced_(traced), spans_(tid) {
  SpanLog* spans = traced ? &spans_ : nullptr;
  controller_ = std::make_unique<core::TopFullController>(
      &app,
      std::make_unique<TimedPolicy>(
          std::make_unique<core::RlRateController>(policy), &rl_, spans),
      core::TopFullConfig{});
  // The controller installed itself as the entry admission; put the probe
  // in front of it.
  gate_ = std::make_unique<GateProbe>(controller_.get(), traced,
                                      traced ? nullptr : admit_samples);
  app.SetEntryAdmission(gate_.get());
  if (sim::WindowObserver* next = app.metrics().window_observer()) {
    window_ = std::make_unique<WindowProbe>(next, &windows_, spans);
    app.metrics().SetWindowObserver(window_.get());
  }
  // Exactly TopFullController::Start(): first tick one period from now.
  const SimTime period = controller_->config().period;
  app.sim().SchedulePeriodic(app.sim().Now() + period, period,
                             [this]() { Tick(); });
}

void ShardProbe::Tick() {
  const int id = traced_ ? spans_.Begin("core/tick") : -1;
  const std::int64_t t0 = NowNs();
  controller_->Tick();
  const std::int64_t dt = NowNs() - t0;
  if (traced_) spans_.End(id);
  ++ticks_.calls;
  ticks_.busy_ns += dt;
  ticks_.samples_us.push_back(static_cast<double>(dt) / 1e3);
  clusters_ += controller_->LastClusters().size();
}

bool WriteChromeTrace(const std::string& path,
                      const std::vector<const SpanLog*>& logs,
                      const std::vector<TraceCounter>& counters) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::int64_t origin = INT64_MAX;
  for (const SpanLog* log : logs) {
    for (const auto& s : log->spans()) origin = std::min(origin, s.start_ns);
  }
  if (origin == INT64_MAX) origin = 0;
  std::fprintf(f, "{\"traceEvents\": [\n");
  bool first = true;
  for (const SpanLog* log : logs) {
    const auto& spans = log->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const auto& s = spans[i];
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, "
                   "\"args\": {\"id\": %zu, \"parent\": %d}}",
                   first ? "" : ",\n", s.name, log->tid(),
                   static_cast<double>(s.start_ns - origin) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                   s.parent);
      first = false;
    }
  }
  for (const TraceCounter& c : counters) {
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"C\", \"pid\": 1, "
                 "\"tid\": %d, \"ts\": %.3f, "
                 "\"args\": {\"calls\": %.0f, \"busy_ms\": %.6f}}",
                 first ? "" : ",\n", c.name.c_str(), c.tid,
                 static_cast<double>(std::max<std::int64_t>(c.ts_ns - origin, 0)) /
                     1e3,
                 c.calls, c.busy_ms);
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace ledger
