// Resume-equivalence: the correctness bar of the checkpoint subsystem. A
// run restored from ANY checkpoint must produce per-job records
// bit-identical (FNV-1a digest equality) to the uninterrupted run, with the
// same engine counters (events, grant cycles, I/O requests, flush
// deferrals and forced releases) — for every policy family and with fault
// injection on or off. Also covers the
// failure modes: config mismatch, corrupted checkpoints, and the
// abort/emergency-checkpoint path used by the watchdog.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/checkpoint.h"
#include "core/simulation.h"
#include "driver/scenario.h"
#include "metrics/digest.h"
#include "workload/app_checkpoint.h"

namespace iosched {
namespace {

namespace fs = std::filesystem;

std::string TestDir(const std::string& leaf) {
  fs::path dir = fs::path(testing::TempDir()) / ("ckpt_resume_" + leaf);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

struct Case {
  const char* policy;
  bool faults;
  bool burst_buffer = false;
  /// Storage-tier fault kinds: lossy BB capacity faults, drain
  /// degradations, transfer stragglers with timeout/retry armed. Implies
  /// burst_buffer.
  bool bb_faults = false;
  /// Application-checkpoint flush traffic: Young/Daly flush phases,
  /// deferrable flushes, MTBF failures with restart from the last durable
  /// flush. Flush deferral decisions between grant cycles read the last
  /// cycle's tier snapshot, so that snapshot is on the resume bar too.
  bool app_ckpt = false;
};

std::string CaseSlug(const Case& c) {
  return std::string(c.policy) + (c.faults ? "_faulted" : "_clean") +
         (c.burst_buffer ? "_bb" : "") + (c.bb_faults ? "_bbfaults" : "") +
         (c.app_ckpt ? "_appckpt" : "");
}

// gtest appends a parameter's printout to the test name ctest lists; print
// the slug so the names do not depend on the struct's bytes.
void PrintTo(const Case& c, std::ostream* os) { *os << CaseSlug(c); }

std::string CaseName(const testing::TestParamInfo<Case>& info) {
  return CaseSlug(info.param);
}

/// Congested half-day scenario; walltime kills and (optionally) fault
/// injection exercise the retry/backoff bookkeeping across checkpoints.
/// The burst-buffer variants make the BB state (drain backlog, per-job
/// usage, pending absorbed completions) part of the resume-equivalence bar.
std::pair<core::SimulationConfig, workload::Workload> BuildCase(
    const Case& c) {
  driver::Scenario scenario = driver::MakeTestScenario(
      /*seed=*/7, /*duration_days=*/0.5, /*jobs_per_day=*/200.0);
  core::SimulationConfig config = scenario.config;
  config.policy = c.policy;
  if (c.faults) {
    config.faults.plan_config.enabled = true;
    config.faults.plan_config.seed = 5;
    config.faults.plan_config.degraded_fraction = 0.2;
    config.faults.plan_config.degradation_factor = 0.5;
    config.faults.plan_config.degraded_window_seconds = 1800.0;
    config.faults.plan_config.job_kill_probability = 0.02;
  }
  if (c.burst_buffer) {
    config.burst_buffer.capacity_gb = 300.0;
    config.burst_buffer.drain_gbps = 5.0;  // BWmax here is ~21 GB/s
    config.burst_buffer.absorb_gbps = 10.0;
    config.burst_buffer.per_job_quota_gb = 150.0;
    config.burst_buffer.congestion_watermark = 0.8;
  }
  if (c.bb_faults) {
    // Slow, roomy buffer so absorbs are long-lived: the every-60-events
    // checkpoint cadence then lands snapshots mid-drain, mid-absorb, and
    // inside straggler and drain-degradation windows.
    config.burst_buffer.capacity_gb = 2000.0;
    config.burst_buffer.drain_gbps = 4.0;
    config.burst_buffer.absorb_gbps = 2.0;
    config.burst_buffer.per_job_quota_gb = 0.0;
    config.burst_buffer.congestion_watermark = 0.8;
    faults::FaultPlanParams& fp = config.faults.plan_config;
    fp.enabled = true;
    fp.seed = 5;
    fp.bb_faults = 2;
    fp.bb_fault_seconds = 1800.0;
    fp.bb_fault_lose_data = true;
    fp.drain_degraded_fraction = 0.3;
    fp.drain_degradation_factor = 0.4;
    fp.drain_window_seconds = 1800.0;
    fp.straggler_probability = 0.25;
    fp.straggler_factor = 0.2;
    config.transfer_retry = {.timeout_seconds = 600.0,
                             .max_retries = 2,
                             .backoff_base_seconds = 30.0,
                             .backoff_max_seconds = 300.0,
                             .backoff_jitter_fraction = 0.2};
    config.batch.backoff_jitter_fraction = 0.1;
  }
  if (c.app_ckpt) {
    // A slow-draining buffer without a per-job quota: its backlog keeps
    // crossing ADAPTIVE's deferral threshold, so whether a flush parks
    // depends on the last cycle's tier snapshot.
    config.burst_buffer.capacity_gb = 1000.0;
    config.burst_buffer.drain_gbps = 2.0;
    config.burst_buffer.absorb_gbps = 20.0;
    config.burst_buffer.per_job_quota_gb = 0.0;
    workload::AppCheckpointConfig ac;
    ac.enabled = true;
    ac.mtbf_seconds = 1800.0;
    ac.min_interval_seconds = 60.0;
    ac.min_compute_seconds = 120.0;
    workload::ApplyCheckpointTraffic(scenario.jobs, ac,
                                     config.machine.node_bandwidth_gbps);
    config.app_checkpoint.enabled = true;
    config.app_checkpoint.max_defer_seconds = 300.0;
    config.faults.plan_config.enabled = true;
    config.faults.plan_config.seed = 5;
    config.faults.plan_config.job_mtbf_seconds = ac.mtbf_seconds;
    config.faults.restart_mode =
        faults::RestartMode::kRestartFromAppCheckpoint;
  }
  return {config, std::move(scenario.jobs)};
}

class CheckpointResumeTest : public testing::TestWithParam<Case> {};

TEST_P(CheckpointResumeTest, EveryCheckpointResumesToIdenticalRecords) {
  auto [config, jobs] = BuildCase(GetParam());
  core::SimulationResult uninterrupted = core::RunSimulation(config, jobs);
  std::uint64_t reference = metrics::DigestRecords(uninterrupted.records);
  if (GetParam().app_ckpt) {
    ASSERT_GT(uninterrupted.flush_deferrals, 0u);
  }

  // Pass 1: the checkpointing run itself must not perturb the schedule.
  // The directory must be unique per case — ctest runs the parameterized
  // cases as parallel processes, and a shared directory gets remove_all'd
  // by one case while another is still reading its snapshots.
  std::string dir = TestDir(CaseSlug(GetParam()));
  core::SimulationConfig saving = config;
  saving.checkpoint.directory = dir;
  saving.checkpoint.every_events = GetParam().app_ckpt ? 15 : 60;
  saving.checkpoint.keep_last = 0;  // keep every snapshot
  core::SimulationResult checkpointed = core::RunSimulation(saving, jobs);
  EXPECT_EQ(metrics::DigestRecords(checkpointed.records), reference);
  ASSERT_GT(checkpointed.checkpoints_written, 0u);

  // Pass 2: resuming from EACH snapshot reproduces the reference exactly.
  auto snapshots = ckpt::ListCheckpoints(dir);
  ASSERT_EQ(snapshots.size(), checkpointed.checkpoints_written);
  for (const auto& [seq, path] : snapshots) {
    core::SimulationConfig resume = config;
    resume.checkpoint.resume_from = path;
    core::SimulationResult resumed = core::RunSimulation(resume, jobs);
    EXPECT_EQ(metrics::DigestRecords(resumed.records), reference)
        << "divergence after resuming from " << path;
    EXPECT_EQ(resumed.resumed_from, path);
    EXPECT_EQ(resumed.events_processed, uninterrupted.events_processed)
        << path;
    EXPECT_EQ(resumed.io_scheduling_cycles,
              uninterrupted.io_scheduling_cycles)
        << path;
    EXPECT_EQ(resumed.io_requests, uninterrupted.io_requests) << path;
    EXPECT_EQ(resumed.flush_deferrals, uninterrupted.flush_deferrals)
        << path;
    EXPECT_EQ(resumed.forced_flush_releases,
              uninterrupted.forced_flush_releases)
        << path;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, CheckpointResumeTest,
    testing::Values(Case{"BASE_LINE", false}, Case{"FCFS", false},
                    Case{"MAX_UTIL", false}, Case{"ADAPTIVE", false},
                    Case{"BASE_LINE", true}, Case{"FCFS", true},
                    Case{"MAX_UTIL", true}, Case{"ADAPTIVE", true},
                    Case{"BASE_LINE", false, true},
                    Case{"FCFS", false, true},
                    Case{"ADAPTIVE", false, true},
                    Case{"ADAPTIVE", true, true},
                    Case{"BASE_LINE", false, true, true},
                    Case{"ADAPTIVE", true, true, true},
                    // Flush traffic under ADAPTIVE with a burst buffer: the
                    // fine cadence lands snapshots between a grant cycle
                    // and a flush the policy parks on that cycle's tiers.
                    Case{"ADAPTIVE", false, true, false, true}),
    CaseName);

TEST(CheckpointResume, MismatchedConfigIsRejected) {
  auto [config, jobs] = BuildCase({"BASE_LINE", false});
  std::string dir = TestDir("mismatch");
  core::SimulationConfig saving = config;
  saving.checkpoint.directory = dir;
  saving.checkpoint.every_events = 300;
  core::RunSimulation(saving, jobs);
  std::string snapshot = ckpt::ListCheckpoints(dir).front().second;

  // Same workload, different policy: the hash pins the whole schedule.
  core::SimulationConfig other = config;
  other.policy = "FCFS";
  other.checkpoint.resume_from = snapshot;
  EXPECT_THROW(core::RunSimulation(other, jobs), ckpt::ConfigMismatchError);

  // Same config, perturbed workload.
  workload::Workload other_jobs = jobs;
  other_jobs.back().submit_time += 1.0;
  core::SimulationConfig same = config;
  same.checkpoint.resume_from = snapshot;
  EXPECT_THROW(core::RunSimulation(same, other_jobs),
               ckpt::ConfigMismatchError);
}

TEST(CheckpointResume, ReportOnlyKnobsDoNotChangeTheHash) {
  auto [config, jobs] = BuildCase({"BASE_LINE", false});
  std::uint64_t base = core::SimulationConfigHash(config, jobs);
  core::SimulationConfig tweaked = config;
  tweaked.warmup_fraction = 0.2;
  tweaked.cooldown_fraction = 0.0;
  tweaked.keep_bandwidth_samples = true;
  EXPECT_EQ(core::SimulationConfigHash(tweaked, jobs), base);

  core::SimulationConfig different = config;
  different.storage.max_bandwidth_gbps *= 2;
  EXPECT_NE(core::SimulationConfigHash(different, jobs), base);

  // The absolute hash of the base config is pinned: a change that moves it
  // makes every existing checkpoint of this config unresumable, so it must
  // be deliberate.
  EXPECT_EQ(base, 0x586996e91cf98172ULL);
}

TEST(CheckpointResume, ResumeLatestStartsFreshWhenDirectoryIsEmpty) {
  auto [config, jobs] = BuildCase({"FCFS", false});
  std::uint64_t reference =
      metrics::DigestRecords(core::RunSimulation(config, jobs).records);
  core::SimulationConfig resume = config;
  resume.checkpoint.directory = TestDir("fresh");
  resume.checkpoint.resume_latest = true;
  core::SimulationResult result = core::RunSimulation(resume, jobs);
  EXPECT_EQ(metrics::DigestRecords(result.records), reference);
  EXPECT_TRUE(result.resumed_from.empty());
}

TEST(CheckpointResume, ResumeLatestFallsBackPastCorruptedNewest) {
  auto [config, jobs] = BuildCase({"ADAPTIVE", false});
  std::uint64_t reference =
      metrics::DigestRecords(core::RunSimulation(config, jobs).records);

  std::string dir = TestDir("corrupt");
  core::SimulationConfig saving = config;
  saving.checkpoint.directory = dir;
  saving.checkpoint.every_events = 200;
  saving.checkpoint.keep_last = 0;
  core::RunSimulation(saving, jobs);
  auto snapshots = ckpt::ListCheckpoints(dir);
  ASSERT_GE(snapshots.size(), 2u);

  // Flip one byte near the end of the newest snapshot (CRC damage).
  const std::string& newest = snapshots.back().second;
  std::string bytes;
  {
    std::ifstream in(newest, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  bytes[bytes.size() - 3] = static_cast<char>(bytes[bytes.size() - 3] ^ 0x10);
  std::ofstream(newest, std::ios::binary) << bytes;

  core::SimulationConfig resume = config;
  resume.checkpoint.directory = dir;
  resume.checkpoint.resume_latest = true;
  core::SimulationResult result = core::RunSimulation(resume, jobs);
  EXPECT_EQ(metrics::DigestRecords(result.records), reference);
  EXPECT_EQ(result.resumed_from, snapshots[snapshots.size() - 2].second);
}

TEST(CheckpointResume, ExplicitResumeFromCorruptFileFailsLoudly) {
  auto [config, jobs] = BuildCase({"BASE_LINE", false});
  std::string dir = TestDir("explicit_corrupt");
  std::string path = dir + "/ckpt-000001.iosckpt";
  std::ofstream(path, std::ios::binary) << "IOSCKPT1 but then garbage";
  core::SimulationConfig resume = config;
  resume.checkpoint.resume_from = path;
  EXPECT_THROW(core::RunSimulation(resume, jobs), ckpt::CheckpointError);
}

TEST(CheckpointResume, AbortWritesEmergencyCheckpointThatResumes) {
  auto [config, jobs] = BuildCase({"MAX_UTIL", false});
  std::uint64_t reference =
      metrics::DigestRecords(core::RunSimulation(config, jobs).records);

  core::RunControl control;
  control.abort.store(true);  // stop at the first event boundary
  core::SimulationConfig aborting = config;
  aborting.checkpoint.directory = TestDir("abort");
  aborting.control = &control;
  std::string emergency;
  try {
    core::RunSimulation(aborting, jobs);
    FAIL() << "expected SimulationAborted";
  } catch (const core::SimulationAborted& e) {
    emergency = e.checkpoint_path();
  }
  ASSERT_FALSE(emergency.empty());
  ASSERT_TRUE(fs::exists(emergency));
  EXPECT_GT(control.progress_events.load(), 0u);

  core::SimulationConfig resume = config;
  resume.checkpoint.resume_from = emergency;
  core::SimulationResult result = core::RunSimulation(resume, jobs);
  EXPECT_EQ(metrics::DigestRecords(result.records), reference);
}

TEST(CheckpointResume, AbortWithoutDirectoryCarriesNoCheckpoint) {
  auto [config, jobs] = BuildCase({"BASE_LINE", false});
  core::RunControl control;
  control.abort.store(true);
  core::SimulationConfig aborting = config;
  aborting.control = &control;
  try {
    core::RunSimulation(aborting, jobs);
    FAIL() << "expected SimulationAborted";
  } catch (const core::SimulationAborted& e) {
    EXPECT_TRUE(e.checkpoint_path().empty());
  }
}

}  // namespace
}  // namespace iosched
