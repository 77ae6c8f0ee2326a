// Tests for the experiment harness: variant attachment, helpers, and the
// application-backed RL environment.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>

#include "apps/online_boutique.hpp"
#include "exp/harness.hpp"
#include "exp/csv.hpp"
#include "exp/microservice_env.hpp"

namespace topfull::exp {
namespace {

TEST(HarnessTest, VariantNames) {
  EXPECT_EQ(VariantName(Variant::kTopFull), "TopFull");
  EXPECT_EQ(VariantName(Variant::kDagor), "DAGOR");
  EXPECT_EQ(VariantName(Variant::kTopFullNoCluster), "TopFull(w/o cluster)");
}

TEST(HarnessTest, OnlyTheRlVariantsNeedThePolicy) {
  // Controllers::Attach gives kTopFullBw an AIMD controller and kTopFullMimd
  // fixed steps; only the RL rate controller reads the policy.
  const std::pair<Variant, bool> table[] = {
      {Variant::kNoControl, false},       {Variant::kTopFull, true},
      {Variant::kTopFullMimd, false},     {Variant::kTopFullNoCluster, true},
      {Variant::kTopFullBw, false},       {Variant::kDagor, false},
      {Variant::kBreakwater, false},      {Variant::kWisp, false},
      {Variant::kStaticLimit, false},
  };
  for (const auto& [variant, needs] : table) {
    EXPECT_EQ(VariantNeedsPolicy(variant), needs) << VariantName(variant);
  }
}

TEST(HarnessTest, AttachNoControlInstallsNothing) {
  auto app = apps::MakeOnlineBoutique({});
  Controllers controllers;
  controllers.Attach(Variant::kNoControl, *app, nullptr);
  EXPECT_EQ(controllers.topfull(), nullptr);
  EXPECT_EQ(controllers.dagor(), nullptr);
  EXPECT_EQ(controllers.breakwater(), nullptr);
}

TEST(HarnessTest, AttachMimdCreatesEntryController) {
  auto app = apps::MakeOnlineBoutique({});
  Controllers controllers;
  controllers.Attach(Variant::kTopFullMimd, *app, nullptr);
  ASSERT_NE(controllers.topfull(), nullptr);
  EXPECT_TRUE(controllers.topfull()->config().enable_clustering);
}

TEST(HarnessTest, AttachDagorInstallsOnEveryService) {
  auto app = apps::MakeOnlineBoutique({});
  Controllers controllers;
  controllers.Attach(Variant::kDagor, *app, nullptr);
  ASSERT_NE(controllers.dagor(), nullptr);
}

TEST(HarnessTest, UniformUsersCoversAllApis) {
  auto app = apps::MakeOnlineBoutique({});
  const auto config = UniformUsers(*app);
  EXPECT_EQ(config.mix.weights.size(), static_cast<std::size_t>(app->NumApis()));
}

TEST(HarnessTest, PerApiGoodputRowHasTotal) {
  auto app = apps::MakeOnlineBoutique({});
  app->RunFor(Seconds(3));
  const auto row = PerApiGoodputRow(*app, 0.0);
  EXPECT_EQ(row.size(), static_cast<std::size_t>(app->NumApis()) + 1);
}

TEST(MicroserviceEnvTest, EpisodeLifecycle) {
  MicroserviceEnvConfig config;
  config.factory = [](std::uint64_t seed) {
    apps::BoutiqueOptions options;
    options.seed = seed;
    return apps::MakeOnlineBoutique(options);
  };
  config.api_rate_ranges = {{100, 500}};
  config.steps_per_episode = 5;
  config.warmup = Seconds(2);
  MicroserviceEnv env(std::move(config));

  const auto obs = env.Reset(1);
  ASSERT_EQ(obs.size(), 2u);
  EXPECT_GE(obs[0], 0.0);
  EXPECT_LE(obs[0], 2.0);
  for (int t = 0; t < 4; ++t) {
    const auto result = env.Step(0.0);
    EXPECT_FALSE(result.done);
    EXPECT_TRUE(std::isfinite(result.reward));
  }
  EXPECT_TRUE(env.Step(0.0).done);
}

TEST(MicroserviceEnvTest, ResetRebuildsApplication) {
  MicroserviceEnvConfig config;
  config.factory = [](std::uint64_t seed) {
    apps::BoutiqueOptions options;
    options.seed = seed;
    return apps::MakeOnlineBoutique(options);
  };
  config.api_rate_ranges = {{100, 300}};
  config.steps_per_episode = 3;
  config.warmup = Seconds(1);
  MicroserviceEnv env(std::move(config));
  env.Reset(1);
  sim::Application* first = env.app();
  env.Reset(2);
  EXPECT_NE(env.app(), first);
}

TEST(MicroserviceEnvTest, NegativeActionsThrottleAdmission) {
  MicroserviceEnvConfig config;
  config.factory = [](std::uint64_t seed) {
    apps::BoutiqueOptions options;
    options.seed = seed;
    return apps::MakeOnlineBoutique(options);
  };
  // Heavy overload so the controller caps every API quickly.
  config.api_rate_ranges = {{1500, 1600}};
  config.steps_per_episode = 30;
  config.warmup = Seconds(2);
  MicroserviceEnv env(std::move(config));
  env.Reset(3);
  for (int t = 0; t < 10; ++t) env.Step(-0.5);
  const auto& snap = env.app()->metrics().Latest();
  std::uint64_t admitted = 0, offered = 0;
  for (const auto& api : snap.apis) {
    admitted += api.admitted;
    offered += api.offered;
  }
  EXPECT_LT(static_cast<double>(admitted), 0.5 * static_cast<double>(offered));
}

TEST(CsvTest, TimelineExportHasHeaderAndRows) {
  auto app = apps::MakeOnlineBoutique({});
  workload::TrafficDriver traffic(app.get());
  traffic.AddOpenLoop(0, workload::Schedule::Constant(100));
  app->RunFor(Seconds(5));
  const std::string path = ::testing::TempDir() + "/timeline.csv";
  ASSERT_TRUE(WriteTimelineCsv(*app, path));
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_NE(line.find("good_postcheckout"), std::string::npos);
  EXPECT_NE(line.find("util_recommendation"), std::string::npos);
  int rows = 0;
  while (std::getline(in, line)) ++rows;
  EXPECT_EQ(rows, 5);  // one per 1 s window
}

TEST(ExternalActionControllerTest, SharesSlotAcrossClones) {
  auto slot = std::make_shared<double>(0.25);
  ExternalActionController controller(slot);
  auto clone = controller.Clone();
  core::ControlState state;
  EXPECT_DOUBLE_EQ(clone->DecideStep(state), 0.25);
  *slot = -0.4;
  EXPECT_DOUBLE_EQ(controller.DecideStep(state), -0.4);
  EXPECT_DOUBLE_EQ(clone->DecideStep(state), -0.4);
}

}  // namespace
}  // namespace topfull::exp
