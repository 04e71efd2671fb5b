// Cross-module integration and property tests: full simulations over
// synthetic workloads under every policy, checking global invariants the
// paper's model implies.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "core/policy_factory.h"
#include "core/simulation.h"
#include "driver/scenario.h"
#include "util/units.h"
#include "workload/workload.h"

namespace iosched {
namespace {

struct SweepCase {
  std::string policy;
  std::uint64_t seed;
};

std::string SweepSlug(const SweepCase& c) {
  return c.policy + "_seed" + std::to_string(c.seed);
}

// gtest appends a parameter's printout to the test name ctest lists; print
// the slug so the names do not depend on the struct's bytes.
void PrintTo(const SweepCase& c, std::ostream* os) { *os << SweepSlug(c); }

class PolicyWorkloadSweep : public ::testing::TestWithParam<SweepCase> {};

// Runs one synthetic day under the case's policy and checks the global
// invariants the paper's model implies.
TEST_P(PolicyWorkloadSweep, GlobalInvariantsHold) {
  const SweepCase& c = GetParam();
  driver::Scenario scenario =
      driver::MakeTestScenario(c.seed, /*duration_days=*/1.0,
                               /*jobs_per_day=*/220.0);
  core::SimulationConfig config = scenario.config;
  config.policy = c.policy;
  core::SimulationResult result =
      core::RunSimulation(config, scenario.jobs);

  // Every submitted job completes exactly once.
  ASSERT_EQ(result.records.size(), scenario.jobs.size());
  std::map<workload::JobId, const workload::Job*> by_id;
  for (const workload::Job& j : scenario.jobs) by_id[j.id] = &j;
  for (const metrics::JobRecord& r : result.records) {
    ASSERT_TRUE(by_id.count(r.id));
    const workload::Job& j = *by_id[r.id];
    // Causality.
    EXPECT_GE(r.start_time, r.submit_time - 1e-9);
    EXPECT_GT(r.end_time, r.start_time);
    // Physics: runtime at least the uncongested runtime; I/O never faster
    // than the dedicated-link bound.
    EXPECT_GE(r.Runtime() + 1e-6, r.uncongested_runtime);
    EXPECT_GE(r.io_time_actual + 1e-6, r.io_time_uncongested);
    // Partition granted covers the request.
    EXPECT_GE(r.allocated_nodes, j.nodes);
  }
  // Utilization is a sane fraction.
  EXPECT_GE(result.report.utilization, 0.0);
  EXPECT_LE(result.report.utilization, 1.0 + 1e-9);
  EXPECT_GT(result.events_processed, scenario.jobs.size());
}

std::vector<SweepCase> AllCases() {
  std::vector<SweepCase> cases;
  for (const std::string& p : core::AllPolicyNames()) {
    for (std::uint64_t seed : {11ull, 97ull}) {
      cases.push_back({p, seed});
    }
  }
  return cases;
}

std::string CaseName(const ::testing::TestParamInfo<SweepCase>& info) {
  return SweepSlug(info.param);
}

INSTANTIATE_TEST_SUITE_P(Policies, PolicyWorkloadSweep,
                         ::testing::ValuesIn(AllCases()), CaseName);

TEST(EndToEnd, IoAwarePoliciesImproveWaitOnEvaluationMonth) {
  // The paper's headline claim (Fig. 8): on the I/O-heavy evaluation
  // workload the coordinating policies cut the average wait time versus the
  // uncoordinated even-split BASE_LINE. A 10-day slice of WL1 (Mira scale)
  // is long enough for the queueing effect to establish. FCFS is only
  // required not to be catastrophic (the paper finds it ~= baseline).
  driver::Scenario scenario =
      driver::MakeEvaluationScenario(1, /*duration_days=*/10.0);

  std::map<std::string, double> wait;
  for (const std::string& policy : core::AllPolicyNames()) {
    core::SimulationConfig config = scenario.config;
    config.policy = policy;
    auto result = core::RunSimulation(config, scenario.jobs);
    wait[policy] = result.report.avg_wait_seconds;
  }
  EXPECT_LT(wait["ADAPTIVE"], wait["BASE_LINE"]);
  EXPECT_LT(wait["MAX_UTIL"], wait["BASE_LINE"]);
  EXPECT_LT(wait["MIN_AGGR_SLD"], wait["BASE_LINE"]);
  EXPECT_LT(wait["MIN_INST_SLD"], wait["BASE_LINE"]);
  // FCFS is the weakest coordinator and noisy on a 10-day horizon (over the
  // full month it lands within a few percent of BASE_LINE); only bound it.
  EXPECT_LT(wait["FCFS"], wait["BASE_LINE"] * 1.7);
}

TEST(EndToEnd, ExpansionFactorMonotonicallyLoadsStorage) {
  driver::Scenario scenario =
      driver::MakeTestScenario(7, /*duration_days=*/0.75,
                               /*jobs_per_day=*/200.0);
  double prev_expansion = 0.0;
  for (double factor : {0.3, 1.0, 2.0}) {
    driver::Scenario scaled = driver::WithExpansionFactor(scenario, factor);
    core::SimulationConfig config = scaled.config;
    config.policy = "BASE_LINE";
    auto result = core::RunSimulation(config, scaled.jobs);
    EXPECT_GE(result.report.avg_runtime_expansion, prev_expansion - 1e-9);
    prev_expansion = result.report.avg_runtime_expansion;
  }
  EXPECT_GT(prev_expansion, 1.0);
}

TEST(EndToEnd, WalltimeKillInvariantsUnderEveryPolicy) {
  driver::Scenario scenario =
      driver::MakeTestScenario(31, /*duration_days=*/0.75,
                               /*jobs_per_day=*/220.0);
  // Heavy I/O so congestion pushes some jobs past their walltime.
  workload::ApplyExpansionFactor(scenario.jobs, 2.0);
  std::map<workload::JobId, const workload::Job*> by_id;
  for (const workload::Job& j : scenario.jobs) by_id[j.id] = &j;

  std::size_t total_kills = 0;
  for (const std::string& policy : core::AllPolicyNames()) {
    core::SimulationConfig config = scenario.config;
    config.policy = policy;
    config.enforce_walltime = true;
    auto result = core::RunSimulation(config, scenario.jobs);
    ASSERT_EQ(result.records.size(), scenario.jobs.size()) << policy;
    for (const metrics::JobRecord& r : result.records) {
      const workload::Job& j = *by_id.at(r.id);
      // No job may outlive its walltime limit.
      EXPECT_LE(r.Runtime(), j.requested_walltime + 1e-6) << policy;
      if (r.killed) {
        EXPECT_NEAR(r.Runtime(), j.requested_walltime, 1e-6) << policy;
        ++total_kills;
      }
    }
  }
  // The stretched workload must actually exercise the kill path somewhere.
  EXPECT_GT(total_kills, 0u);
}

TEST(EndToEnd, TraceRoundTripReproducesSimulation) {
  // Workload -> SWF + Darshan-lite -> pair -> identical simulation results.
  driver::Scenario scenario =
      driver::MakeTestScenario(13, /*duration_days=*/0.5,
                               /*jobs_per_day=*/150.0);
  double node_bw = scenario.config.machine.node_bandwidth_gbps;
  workload::SwfTrace swf = workload::ToSwf(scenario.jobs, node_bw);
  workload::IoTrace io = workload::ToIoTrace(scenario.jobs, node_bw);
  workload::PairingOptions opts;
  opts.node_bandwidth_gbps = node_bw;
  workload::Workload rebuilt = workload::PairTraces(swf, io, opts);

  core::SimulationConfig config = scenario.config;
  config.policy = "ADAPTIVE";
  auto a = core::RunSimulation(config, scenario.jobs);
  auto b = core::RunSimulation(config, rebuilt);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].id, b.records[i].id);
    EXPECT_NEAR(a.records[i].start_time, b.records[i].start_time, 1e-3);
    EXPECT_NEAR(a.records[i].end_time, b.records[i].end_time, 1e-3);
  }
}

}  // namespace
}  // namespace iosched
