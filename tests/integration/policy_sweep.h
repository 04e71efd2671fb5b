// Shared pieces of the integration policy sweeps: the global invariants one
// simulated day must satisfy under any policy, and the policy names the
// first sweep covers.
#ifndef IOSCHED_TESTS_INTEGRATION_POLICY_SWEEP_H_
#define IOSCHED_TESTS_INTEGRATION_POLICY_SWEEP_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/policy_factory.h"
#include "core/simulation.h"
#include "driver/scenario.h"
#include "workload/workload.h"

namespace iosched {

struct SweepCase {
  std::string policy;
  std::uint64_t seed;
};

// The eight policies AllPolicyNames() listed before BASE_LINE_MAXMIN, SJF
// and WSJF were added. gtest prints a SweepCase as its raw bytes, heap
// pointer included, so a case's full test name depends on every allocation
// made before it is registered. end_to_end_test.cc sweeps exactly these
// names, built exactly as before, which keeps those test names stable;
// more_policies_sweep_test.cc sweeps every policy listed since.
inline const std::vector<std::string>& FirstSweptPolicies() {
  static const std::vector<std::string> kNames = {
      "BASE_LINE", "FCFS", "MAX_UTIL", "MIN_INST_SLD", "MIN_AGGR_SLD",
      "ADAPTIVE", "PREDICTIVE", "PREDICTIVE_ADAPTIVE"};
  return kNames;
}

// Runs one synthetic day under `c.policy` and checks the global invariants
// the paper's model implies.
inline void ExpectGlobalInvariants(const SweepCase& c) {
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

}  // namespace iosched

#endif  // IOSCHED_TESTS_INTEGRATION_POLICY_SWEEP_H_
