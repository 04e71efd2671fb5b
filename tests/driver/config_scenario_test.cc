#include "driver/config_scenario.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "core/simulation.h"

namespace iosched::driver {
namespace {

TEST(ConfigScenario, DefaultsProduceMiraMonth1) {
  Scenario s = ScenarioFromConfig(util::Config::FromString(
      "[workload]\ndays = 1\n"));
  EXPECT_EQ(s.config.machine.total_nodes(), 49152);
  EXPECT_DOUBLE_EQ(s.config.storage.max_bandwidth_gbps, 250.0);
  EXPECT_EQ(s.config.policy, "BASE_LINE");
  EXPECT_TRUE(s.config.batch.easy_backfill);
  EXPECT_FALSE(s.config.enforce_walltime);
  EXPECT_FALSE(s.config.burst_buffer.enabled());
  EXPECT_GT(s.jobs.size(), 50u);
}

TEST(ConfigScenario, FullConfigRoundTrip) {
  Scenario s = ScenarioFromConfig(util::Config::FromString(R"(
[machine]
preset = small
[storage]
bwmax_gbps = 20
[batch]
order = fcfs
easy_backfill = false
[policy]
name = MIN_AGGR_SLD
[burst_buffer]
capacity_gb = 1000
drain_gbps = 5
[simulation]
enforce_walltime = true
warmup_fraction = 0.1
[workload]
month = 2
days = 0.5
seed = 7
jobs_per_day = 100
expansion_factor = 1.5
)"));
  EXPECT_EQ(s.config.machine.total_nodes(), 4096);
  EXPECT_DOUBLE_EQ(s.config.storage.max_bandwidth_gbps, 20.0);
  EXPECT_EQ(s.config.batch.order, sched::QueueOrder::kFcfs);
  EXPECT_FALSE(s.config.batch.easy_backfill);
  EXPECT_EQ(s.config.policy, "MIN_AGGR_SLD");
  EXPECT_TRUE(s.config.burst_buffer.enabled());
  EXPECT_TRUE(s.config.enforce_walltime);
  EXPECT_DOUBLE_EQ(s.config.warmup_fraction, 0.1);
  EXPECT_NE(s.name.find("month2"), std::string::npos);
  EXPECT_NE(s.name.find("seed7"), std::string::npos);
}

TEST(ConfigScenario, EveryStorageAndBurstBufferKeyRoundTrips) {
  Scenario s = ScenarioFromConfig(util::Config::FromString(R"(
[storage]
bwmax_gbps = 40
[burst_buffer]
capacity_gb = 2000
drain_gbps = 8
absorb_gbps = 12
per_job_quota_gb = 250
congestion_watermark = 0.75
[workload]
days = 0.25
)"));
  EXPECT_DOUBLE_EQ(s.config.storage.max_bandwidth_gbps, 40.0);
  EXPECT_DOUBLE_EQ(s.config.burst_buffer.capacity_gb, 2000.0);
  EXPECT_DOUBLE_EQ(s.config.burst_buffer.drain_gbps, 8.0);
  EXPECT_DOUBLE_EQ(s.config.burst_buffer.absorb_gbps, 12.0);
  EXPECT_DOUBLE_EQ(s.config.burst_buffer.per_job_quota_gb, 250.0);
  EXPECT_DOUBLE_EQ(s.config.burst_buffer.congestion_watermark, 0.75);
  EXPECT_TRUE(s.config.burst_buffer.enabled());
  EXPECT_TRUE(s.config.Validate().empty());
}

TEST(ConfigScenario, BurstBufferKeyDefaults) {
  Scenario s = ScenarioFromConfig(util::Config::FromString(
      "[burst_buffer]\ncapacity_gb = 100\ndrain_gbps = 2\n"
      "[workload]\ndays = 0.25\n"));
  EXPECT_DOUBLE_EQ(s.config.burst_buffer.absorb_gbps, 0.0);
  EXPECT_DOUBLE_EQ(s.config.burst_buffer.per_job_quota_gb, 0.0);
  EXPECT_DOUBLE_EQ(s.config.burst_buffer.congestion_watermark, 0.9);
}

TEST(ConfigScenario, InvalidBurstBufferConfigFailsValidation) {
  // ScenarioFromConfig accepts the raw values; RunSimulation's validation
  // is the gate (typed, lists every problem).
  Scenario s = ScenarioFromConfig(util::Config::FromString(
      "[burst_buffer]\ncapacity_gb = 100\n[workload]\ndays = 0.1\n"));
  EXPECT_FALSE(s.config.Validate().empty());
  EXPECT_THROW(core::RunSimulation(s.config, s.jobs),
               core::ConfigValidationError);
}

TEST(ConfigScenario, ExpansionFactorApplied) {
  auto base = ScenarioFromConfig(util::Config::FromString(
      "[workload]\ndays = 0.5\nseed = 9\n"));
  auto scaled = ScenarioFromConfig(util::Config::FromString(
      "[workload]\ndays = 0.5\nseed = 9\nexpansion_factor = 2.0\n"));
  ASSERT_EQ(base.jobs.size(), scaled.jobs.size());
  double base_gb = 0;
  double scaled_gb = 0;
  for (const auto& j : base.jobs) base_gb += j.TotalIoVolumeGb();
  for (const auto& j : scaled.jobs) scaled_gb += j.TotalIoVolumeGb();
  EXPECT_NEAR(scaled_gb, base_gb * 2.0, base_gb * 1e-9);
}

TEST(ConfigScenario, IntrepidPreset) {
  Scenario s = ScenarioFromConfig(util::Config::FromString(
      "[machine]\npreset = intrepid\n[workload]\ndays = 0.3\n"));
  EXPECT_EQ(s.config.machine.total_nodes(), 40960);
}

TEST(ConfigScenario, RestartReadsViaConfig) {
  Scenario s = ScenarioFromConfig(util::Config::FromString(
      "[workload]\ndays = 0.3\nrestart_read_probability = 1.0\n"));
  for (const auto& j : s.jobs) {
    EXPECT_EQ(j.phases.front().kind, workload::PhaseKind::kIo);
  }
}

TEST(ConfigScenario, DeterministicForSameConfig) {
  const char* text = "[workload]\ndays = 0.5\nseed = 11\n";
  auto a = ScenarioFromConfig(util::Config::FromString(text));
  auto b = ScenarioFromConfig(util::Config::FromString(text));
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.jobs[i].submit_time, b.jobs[i].submit_time);
  }
}

TEST(ConfigScenario, InvalidValuesThrow) {
  EXPECT_THROW(ScenarioFromConfig(util::Config::FromString(
                   "[machine]\npreset = cray\n")),
               std::runtime_error);
  EXPECT_THROW(ScenarioFromConfig(util::Config::FromString(
                   "[storage]\nbwmax_gbps = -1\n")),
               std::runtime_error);
  EXPECT_THROW(ScenarioFromConfig(util::Config::FromString(
                   "[workload]\nmonth = 9\n")),
               std::invalid_argument);
  EXPECT_THROW(ScenarioFromConfig(util::Config::FromString(
                   "[workload]\nexpansion_factor = -2\n")),
               std::runtime_error);
  EXPECT_THROW(ScenarioFromConfig(util::Config::FromString(
                   "[batch]\norder = lifo\n")),
               std::invalid_argument);
}

// A key in a section the builder does not read would otherwise be ignored
// without a word; the error names the key.
TEST(ConfigScenario, UnknownSectionsAreRejectedByKey) {
  auto error_for = [](const char* text) -> std::string {
    try {
      ScenarioFromConfig(util::Config::FromString(text));
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "";
  };
  // Stale blocks from older configs: the planning and prediction sections
  // left with the policies that read them.
  for (std::string key :
       {"plan.window_seconds", "prediction.enabled", "prediction.mode"}) {
    std::size_t dot = key.find('.');
    std::string stale = error_for(
        ("[" + key.substr(0, dot) + "]\n" + key.substr(dot + 1) +
         " = 1\n[workload]\ndays = 0.1\n")
            .c_str());
    EXPECT_NE(stale.find("'" + key + "'"), std::string::npos) << stale;
  }
  // A misspelled section header.
  std::string typo = error_for(
      "[burstbuffer]\ncapacity_gb = 100\n[workload]\ndays = 0.1\n");
  EXPECT_NE(typo.find("'burstbuffer.capacity_gb'"), std::string::npos)
      << typo;
  // A key before any section header.
  std::string root = error_for("days = 0.1\n");
  EXPECT_NE(root.find("'days'"), std::string::npos) << root;
}

TEST(ConfigScenario, CheckedInConfigsUseOnlyKnownSections) {
  for (const char* name : {"example.ini", "faults.ini"}) {
    util::Config config = util::Config::FromFile(
        std::string(IOSCHED_SOURCE_DIR) + "/configs/" + name);
    config.Set("workload.days", "0.1");
    EXPECT_NO_THROW(ScenarioFromConfig(config)) << name;
  }
}

TEST(ConfigScenario, ConfiguredScenarioRuns) {
  Scenario s = ScenarioFromConfig(util::Config::FromString(R"(
[machine]
preset = small
[storage]
bwmax_gbps = 21
[policy]
name = ADAPTIVE
[workload]
month = 1
days = 0.25
jobs_per_day = 150
)"));
  core::SimulationResult result = core::RunSimulation(s.config, s.jobs);
  EXPECT_EQ(result.records.size(), s.jobs.size());
  EXPECT_EQ(result.policy_name, "ADAPTIVE");
}

TEST(ConfigScenario, MissingFileThrows) {
  EXPECT_THROW(ScenarioFromConfigFile("/nonexistent.ini"),
               std::runtime_error);
}

}  // namespace
}  // namespace iosched::driver
