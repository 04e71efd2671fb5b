// The engine feeds job submissions to the event queue as a stream: every
// submission draws its event id at Run() start, in workload order, but only
// the earliest un-fired one sits in the heap. These tests pin the
// consequences of the (time, id) order that preloading every submission
// would produce: submissions fire in (submit time, workload position)
// order, ahead of any same-instant event scheduled during the run; a
// resume rebuilds the same stream; and the sampler's tick chain, which
// re-arms only while events are pending, survives idle arrival gaps.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "ckpt/checkpoint.h"
#include "core/event_log.h"
#include "core/simulation.h"
#include "metrics/digest.h"
#include "obs/hub.h"

namespace iosched::core {
namespace {

namespace fs = std::filesystem;

SimulationConfig SmallConfig() {
  SimulationConfig cfg;
  cfg.machine = machine::MachineConfig::Small();  // 4,096 nodes
  cfg.storage.max_bandwidth_gbps = 64.0;
  cfg.policy = "BASE_LINE";
  return cfg;
}

workload::Job ComputeJob(workload::JobId id, double submit, int nodes,
                         double compute) {
  workload::Job j;
  j.id = id;
  j.submit_time = submit;
  j.nodes = nodes;
  j.requested_walltime = compute * 2 + 1000;
  j.phases = workload::MakeUniformPhases(compute, 0.0, 0);
  return j;
}

// Unsorted workload with tied submit times. Job 3 fills the machine until
// t=100, where jobs 1, 4 and 2 arrive; job 1 then fills it until t=300,
// where job 5 arrives.
workload::Workload UnsortedTiedWorkload() {
  return {ComputeJob(5, 300, 1024, 50), ComputeJob(1, 100, 4096, 200),
          ComputeJob(3, 0, 4096, 100), ComputeJob(4, 100, 2048, 100),
          ComputeJob(2, 100, 512, 10)};
}

/// The log rows at `time`, in emission (= event pop) order.
std::vector<SchedEvent> RowsAt(const EventLog& log, double time) {
  std::vector<SchedEvent> rows;
  for (const SchedEvent& e : log.events()) {
    if (e.time == time) rows.push_back(e);
  }
  return rows;
}

TEST(ArrivalStream, SubmitsFireInSubmitTimeThenWorkloadOrder) {
  workload::Workload jobs = UnsortedTiedWorkload();
  EventLog log;
  RunSimulation(SmallConfig(), jobs, &log);
  std::vector<workload::JobId> submitted;
  for (const SchedEvent& e : log.OfKind(SchedEventKind::kSubmit)) {
    submitted.push_back(e.job);
  }
  // Ties at t=100 keep workload order (1, 4, 2), not job-id order.
  EXPECT_EQ(submitted, (std::vector<workload::JobId>{3, 1, 4, 2, 5}));
}

TEST(ArrivalStream, SubmitsPrecedeSameInstantCompletions) {
  workload::Workload jobs = UnsortedTiedWorkload();
  EventLog log;
  SimulationResult result = RunSimulation(SmallConfig(), jobs, &log);
  ASSERT_EQ(result.records.size(), jobs.size());
  // Every submission's id predates the completion events the run schedules,
  // so at t=100 all three arrivals pop before job 3's completion.
  std::vector<SchedEvent> at100 = RowsAt(log, 100.0);
  ASSERT_GE(at100.size(), 4u);
  EXPECT_EQ(at100[0].kind, SchedEventKind::kSubmit);
  EXPECT_EQ(at100[0].job, 1);
  EXPECT_EQ(at100[1].job, 4);
  EXPECT_EQ(at100[2].job, 2);
  EXPECT_EQ(at100[3].kind, SchedEventKind::kEnd);
  EXPECT_EQ(at100[3].job, 3);
  std::vector<SchedEvent> at300 = RowsAt(log, 300.0);
  ASSERT_GE(at300.size(), 2u);
  EXPECT_EQ(at300[0].kind, SchedEventKind::kSubmit);
  EXPECT_EQ(at300[0].job, 5);
  EXPECT_EQ(at300[1].kind, SchedEventKind::kEnd);
  EXPECT_EQ(at300[1].job, 1);
}

TEST(ArrivalStream, ResumeFromEveryEventRebuildsTheStream) {
  workload::Workload jobs = UnsortedTiedWorkload();
  SimulationConfig config = SmallConfig();
  SimulationResult reference = RunSimulation(config, jobs);
  std::uint64_t digest = metrics::DigestRecords(reference.records);

  fs::path dir = fs::path(testing::TempDir()) / "arrival_stream_resume";
  fs::remove_all(dir);
  fs::create_directories(dir);
  SimulationConfig saving = config;
  saving.checkpoint.directory = dir.string();
  saving.checkpoint.every_events = 1;
  saving.checkpoint.keep_last = 0;
  SimulationResult checkpointed = RunSimulation(saving, jobs);
  EXPECT_EQ(metrics::DigestRecords(checkpointed.records), digest);
  ASSERT_GT(checkpointed.checkpoints_written, 0u);
  // Pending submissions are restored from (job, event id) pairs; with an
  // unsorted workload, event-id order differs from job-id order.
  for (const auto& [seq, path] : ckpt::ListCheckpoints(dir.string())) {
    SimulationConfig resume = config;
    resume.checkpoint.resume_from = path;
    SimulationResult resumed = RunSimulation(resume, jobs);
    EXPECT_EQ(metrics::DigestRecords(resumed.records), digest) << path;
    EXPECT_EQ(resumed.events_processed, reference.events_processed) << path;
  }
}

TEST(ArrivalStream, SamplerTicksThroughIdleArrivalGaps) {
  // Job 1 is done by t=600; nothing but job 2's pending arrival keeps the
  // queue non-empty until t=5000. The tick chain must run through the gap.
  workload::Workload jobs = {ComputeJob(1, 0, 1024, 600),
                             ComputeJob(2, 5000, 1024, 600)};
  SimulationConfig config = SmallConfig();
  SimulationResult off = RunSimulation(config, jobs);

  obs::Options options;
  options.enabled = true;
  options.sample_dt_seconds = 75.0;
  obs::Hub hub(options);
  SimulationResult on = RunSimulation(config, jobs, nullptr, &hub);

  EXPECT_EQ(metrics::DigestRecords(on.records),
            metrics::DigestRecords(off.records));
  const auto& samples = hub.sampler().samples();
  // Gap-free ticks at 0, dt, 2dt, ... up to the first tick past the last
  // completion (t=5600), i.e. 0..5625: 76 of them, the end-of-run sample
  // overwriting the last. Each tick is one extra event.
  ASSERT_EQ(samples.size(), 76u);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    EXPECT_DOUBLE_EQ(samples[i].time, static_cast<double>(i) * 75.0);
  }
  EXPECT_EQ(on.events_processed, off.events_processed + samples.size());
}

}  // namespace
}  // namespace iosched::core
