// InvariantChecker: from-scratch recomputation must pass on honest state,
// fail loudly on manufactured mis-accounting, and never change a run's
// records when enabled alongside a full simulation.
#include "core/invariants.h"

#include <gtest/gtest.h>

#include "core/simulation.h"
#include "driver/scenario.h"
#include "machine/machine.h"
#include "metrics/digest.h"
#include "sched/batch_scheduler.h"
#include "storage/storage_model.h"

namespace iosched::core {
namespace {

class InvariantCheckerTest : public ::testing::Test {
 protected:
  InvariantCheckerTest()
      : machine_(machine::MachineConfig::Small()),
        storage_({.max_bandwidth_gbps = 10.0}),
        batch_(machine_, {}) {}

  machine::Machine machine_;
  storage::StorageModel storage_;
  sched::BatchScheduler batch_;
};

TEST_F(InvariantCheckerTest, CleanComponentsPass) {
  InvariantChecker checker(machine_, storage_, batch_, nullptr);
  checker.MarkCompleteHistory();
  checker.CheckNow(0.0);
  checker.CheckNow(10.0);
  EXPECT_EQ(checker.checks_run(), 2u);
}

TEST_F(InvariantCheckerTest, TimeGoingBackwardsFails) {
  InvariantChecker checker(machine_, storage_, batch_, nullptr);
  checker.CheckNow(100.0);
  EXPECT_THROW(checker.CheckNow(50.0), InvariantViolation);
}

TEST_F(InvariantCheckerTest, DetectsAllocationTheBatchSchedulerNeverMade) {
  InvariantChecker checker(machine_, storage_, batch_, nullptr);
  checker.CheckNow(0.0);
  // Allocate behind the scheduler's back: the occupancy bitmap no longer
  // matches the (empty) running set.
  ASSERT_TRUE(machine_.Allocate(512).has_value());
  EXPECT_THROW(checker.CheckNow(1.0), InvariantViolation);
}

TEST_F(InvariantCheckerTest, DetectsGrantsAboveCapacity) {
  InvariantChecker checker(machine_, storage_, batch_, nullptr);
  storage_.Begin(/*job=*/1, /*nodes=*/10, /*full_rate_gbps=*/100.0,
                 /*volume_gb=*/1000.0, /*now=*/0.0);
  storage_.SetRate(1, 50.0);  // legal per-transfer, 5x the 10 GB/s BWmax
  EXPECT_THROW(checker.CheckNow(0.0), InvariantViolation);
}

TEST_F(InvariantCheckerTest, DuplicateSubmitFails) {
  InvariantChecker checker(machine_, storage_, batch_, nullptr);
  checker.OnSchedEvent({0.0, SchedEventKind::kSubmit, 7, 0.0});
  EXPECT_THROW(
      checker.OnSchedEvent({1.0, SchedEventKind::kSubmit, 7, 0.0}),
      InvariantViolation);
}

TEST_F(InvariantCheckerTest, IllegalTransitionFails) {
  InvariantChecker checker(machine_, storage_, batch_, nullptr);
  checker.OnSchedEvent({0.0, SchedEventKind::kSubmit, 7, 0.0});
  // A queued job cannot issue I/O without starting first.
  EXPECT_THROW(
      checker.OnSchedEvent({1.0, SchedEventKind::kIoRequest, 7, 10.0}),
      InvariantViolation);
}

TEST_F(InvariantCheckerTest, UnknownJobEventsAreLenient) {
  // Jobs first seen mid-stream (resumed runs) initialize without judgement.
  InvariantChecker checker(machine_, storage_, batch_, nullptr);
  checker.OnSchedEvent({0.0, SchedEventKind::kIoComplete, 99, 10.0});
  EXPECT_EQ(checker.events_seen(), 1u);
}

TEST_F(InvariantCheckerTest, RunningPerStreamButUnknownToSchedulerFails) {
  InvariantChecker checker(machine_, storage_, batch_, nullptr);
  checker.OnSchedEvent({0.0, SchedEventKind::kSubmit, 7, 0.0});
  checker.OnSchedEvent({1.0, SchedEventKind::kStart, 7, 512.0});
  EXPECT_THROW(checker.CheckNow(2.0), InvariantViolation);
}

// The checker is strictly read-only: a faulted, burst-buffered, straggling,
// timeout-armed run must produce byte-identical records with it on or off.
TEST(InvariantSimulationTest, CheckerIsDigestNeutralUnderChaos) {
  driver::Scenario scenario = driver::MakeTestScenario(/*seed=*/11,
                                                       /*duration_days=*/0.2,
                                                       /*jobs_per_day=*/150.0);
  scenario.config.burst_buffer = {.capacity_gb = 2000.0,
                                  .drain_gbps = 4.0,
                                  .absorb_gbps = 2.0};
  faults::FaultPlanParams& fp = scenario.config.faults.plan_config;
  fp.enabled = true;
  fp.seed = 5;
  fp.degraded_fraction = 0.2;
  fp.job_kill_probability = 0.02;
  fp.bb_faults = 1;
  fp.bb_fault_seconds = 1800.0;
  fp.bb_fault_lose_data = true;
  fp.drain_degraded_fraction = 0.2;
  fp.straggler_probability = 0.2;
  fp.straggler_factor = 0.2;
  scenario.config.transfer_retry = {.timeout_seconds = 600.0,
                                    .max_retries = 2,
                                    .backoff_base_seconds = 30.0,
                                    .backoff_max_seconds = 300.0,
                                    .backoff_jitter_fraction = 0.2};
  scenario.config.policy = "ADAPTIVE";

  SimulationResult plain = RunSimulation(scenario.config, scenario.jobs);
  EXPECT_EQ(plain.invariant_checks, 0u);

  scenario.config.check_invariants = true;
  scenario.config.invariant_check_every_events = 32;
  SimulationResult checked = RunSimulation(scenario.config, scenario.jobs);
  EXPECT_GT(checked.invariant_checks, 0u);
  EXPECT_EQ(metrics::DigestRecords(plain.records),
            metrics::DigestRecords(checked.records));
  EXPECT_EQ(plain.events_processed, checked.events_processed);
}

}  // namespace
}  // namespace iosched::core
