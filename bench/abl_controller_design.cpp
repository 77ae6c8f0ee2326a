// Ablation bench: the TopFull controller's design knobs, beyond the paper's
// Fig. 10 component breakdown. All runs use the Online Boutique overload of
// Fig. 8 (4200 closed-loop users) with the trained RL policy and vary one
// dimension at a time:
//
//   (a) overload detection — utilisation threshold sweep, and disabling the
//       queue-delay detector;
//   (b) controller latency feature — p50 vs p95 vs p99;
//   (c) control period — 0.5 s / 1 s (paper) / 2 s / 4 s;
//   (d) target-selection order — fewest-APIs-first (paper §4.1) vs
//       most-APIs-first vs arbitrary.
#include <cstdio>

#include "apps/online_boutique.hpp"
#include "common/table.hpp"
#include "exp/harness.hpp"
#include "exp/model_cache.hpp"
#include "exp/run_executor.hpp"

using namespace topfull;

namespace {

constexpr int kUsers = 4200;
constexpr double kSurgeS = 15.0;
constexpr double kEndS = 120.0;

/// One ablation table: a knob and the configs it is swept over.
struct Sweep {
  const char* title;
  const char* knob;
  std::vector<std::pair<std::string, core::TopFullConfig>> rows;
};

exp::RunSpec MakeRun(const std::string& label, const core::TopFullConfig& config,
                     const rl::GaussianPolicy* policy) {
  exp::RunSpec spec;
  spec.label = label;
  spec.duration_s = kEndS;
  spec.variant = exp::Variant::kTopFull;
  spec.policy = policy;
  spec.topfull_config = config;
  spec.make_app = [] {
    apps::BoutiqueOptions options;
    options.seed = 77;
    return apps::MakeOnlineBoutique(options);
  };
  spec.traffic = [](workload::TrafficDriver& traffic, sim::Application& app) {
    traffic.AddClosedLoop(exp::UniformUsers(app),
                          workload::Schedule::Constant(kUsers / 6)
                              .Then(Seconds(kSurgeS), kUsers));
  };
  return spec;
}

}  // namespace

int main() {
  PrintBanner("Controller-design ablations",
              "Online Boutique surge: avg total goodput (rps) while varying "
              "one controller knob at a time (all else = defaults).");
  auto policy = exp::GetPretrainedPolicy();

  Sweep detection{"(a) overload detection", "detector", {}};
  for (const double threshold : {0.85, 0.90, 0.95, 0.99}) {
    core::TopFullConfig config;
    config.overload.util_threshold = threshold;
    detection.rows.emplace_back("util > " + Fmt(threshold, 2), config);
  }
  core::TopFullConfig no_qd;
  no_qd.overload.use_queue_delay = false;
  detection.rows.emplace_back("util only (no queue-delay detector)", no_qd);

  Sweep feature{"(b) latency feature percentile", "feature", {}};
  for (const double p : {50.0, 95.0, 99.0}) {
    core::TopFullConfig config;
    config.latency_percentile = p;
    feature.rows.emplace_back("p" + Fmt(p, 0), config);
  }

  Sweep period{"(c) control period", "period", {}};
  for (const double period_s : {0.5, 1.0, 2.0, 4.0}) {
    core::TopFullConfig config;
    config.period = Seconds(period_s);
    period.rows.emplace_back(Fmt(period_s, 1) + " s", config);
  }

  Sweep order{"(d) target-selection order (paper: fewest APIs first)", "order", {}};
  const std::pair<core::TargetOrder, const char*> orders[] = {
      {core::TargetOrder::kFewestApisFirst, "fewest APIs first"},
      {core::TargetOrder::kMostApisFirst, "most APIs first"},
      {core::TargetOrder::kServiceIdOrder, "arbitrary (service id)"},
  };
  for (const auto& [target_order, name] : orders) {
    core::TopFullConfig config;
    config.target_order = target_order;
    order.rows.emplace_back(name, config);
  }

  const Sweep sweeps[] = {detection, feature, period, order};
  std::vector<exp::RunSpec> specs;
  for (const Sweep& sweep : sweeps) {
    for (const auto& [label, config] : sweep.rows) {
      specs.push_back(MakeRun(label, config, policy.get()));
    }
  }
  const std::vector<exp::RunResult> results = exp::RunExecutor().Execute(specs);

  std::size_t next = 0;
  for (const Sweep& sweep : sweeps) {
    if (next != 0) std::printf("\n");
    Table table(sweep.title);
    table.SetHeader({sweep.knob, "goodput"});
    for (const auto& row : sweep.rows) {
      table.AddRow({row.first,
                    Fmt(exp::TotalGoodput(*results[next++].app, kSurgeS, kEndS), 0)});
    }
    table.Print();
  }
  return 0;
}
