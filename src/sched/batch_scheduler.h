// Cobalt-like batch scheduler: wait-queue management, WFP/FCFS ordering,
// partition allocation, and EASY backfilling.
//
// The scheduler is a pure decision component: it holds the queue and the
// running set, and Schedule(now) returns the jobs to launch at `now`. The
// simulation loop (src/core/simulation.*) invokes it on every job submission
// and completion. Predicted end times come from requested walltimes — the
// same information the real Cobalt has; jobs whose runtime stretches past
// the estimate (I/O congestion!) simply hold their partitions longer, which
// is exactly the coupling the paper exploits.
#pragma once

#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "ckpt/serializer.h"
#include "machine/machine.h"
#include "sched/queue_policy.h"
#include "sched/wait_queue.h"
#include "sim/time.h"
#include "util/rng.h"
#include "workload/job.h"

namespace iosched::obs {
class Hub;
}  // namespace iosched::obs

namespace iosched::sched {

/// A job holding a partition.
struct RunningJob {
  const workload::Job* job = nullptr;
  machine::Partition partition;
  sim::SimTime start_time = 0.0;
  /// start + requested walltime; scheduling estimate only.
  sim::SimTime predicted_end = 0.0;
};

/// A launch decision returned by Schedule().
struct StartDecision {
  const workload::Job* job = nullptr;
  machine::Partition partition;
};

class BatchScheduler {
 public:
  struct Options {
    QueueOrder order = QueueOrder::kWfp;
    /// EASY backfilling: reserve for the queue head, backfill jobs that do
    /// not delay the reservation. Off = plain first-fit in queue order that
    /// stops at the first blocked job.
    bool easy_backfill = true;
    /// Retry budget for failed (fault-killed) jobs: how many requeues one
    /// job may consume before it is abandoned. 0 = never requeue.
    int max_retries = 3;
    /// Base backoff before a requeued job becomes eligible again; doubles
    /// with each retry of the same job, capped at `max_backoff_seconds`.
    double requeue_backoff_seconds = 300.0;
    double max_backoff_seconds = 4.0 * 3600.0;
    /// Optional seeded jitter: each backoff is scaled by a uniform factor
    /// in [1 - f, 1 + f], decorrelating the requeue herd after a midplane
    /// outage. 0 disables (no RNG draws, bit-identical to the unjittered
    /// schedule).
    double backoff_jitter_fraction = 0.0;
    std::uint64_t backoff_jitter_seed = 1;
    /// Maintain the service order incrementally between dispatch passes
    /// (sched/wait_queue.h) instead of re-sorting the queue from scratch
    /// each pass. Both paths produce bit-identical schedules — the toggle
    /// exists so tests can diff them and benchmarks can measure the full
    /// re-sort reference. Excluded from the checkpoint config hash for the
    /// same reason.
    bool incremental_order = true;
  };

  /// `machine` must outlive the scheduler.
  BatchScheduler(machine::Machine& machine, Options options);

  /// Add a job to the wait queue.
  void Submit(const workload::Job& job);

  /// Decide which queued jobs start at `now`; partitions are allocated as a
  /// side effect. Call on every submission/completion event.
  std::vector<StartDecision> Schedule(sim::SimTime now);

  /// Release the partition of a finished job. Throws on unknown id.
  void OnJobEnd(workload::JobId id, sim::SimTime now);

  /// Outcome of a mid-run failure.
  struct RequeueDecision {
    /// False when the retry budget is exhausted: the job is abandoned and
    /// is no longer queued or running.
    bool requeued = false;
    /// Retry attempts consumed so far (1 after the first failure).
    int retries = 0;
    /// When the requeued job becomes eligible to start again (exponential
    /// backoff from the failure time); meaningless when !requeued.
    sim::SimTime eligible_time = 0.0;
  };

  /// A running job failed (fault kill): release its partition and either
  /// requeue it with exponential backoff or abandon it once the budget is
  /// spent. The caller owns restart semantics (which phases re-run). The
  /// caller must arm a scheduling pass at `eligible_time` — a backoff
  /// expiry wakes nobody by itself. Throws on unknown id.
  RequeueDecision OnJobFailed(workload::JobId id, sim::SimTime now);

  /// Earliest backoff expiry among queued-but-ineligible jobs, strictly
  /// after `now`; kTimeInfinity when every queued job is already eligible.
  sim::SimTime NextEligibleTime(sim::SimTime now) const;

  /// Attach observability (null detaches). The hub must outlive the
  /// scheduler or be detached first.
  void SetObs(obs::Hub* hub) { hub_ = hub; }

  std::size_t queue_size() const { return queue_.size(); }
  std::size_t running_count() const { return running_.size(); }
  /// Comparator invocations consumed by the most recent incremental-order
  /// dispatch pass (0 until Schedule runs; see WaitQueue).
  std::uint64_t last_order_comparisons() const {
    return wait_queue_.last_pass_comparisons();
  }
  const std::unordered_map<workload::JobId, RunningJob>& running() const {
    return running_;
  }
  const Options& options() const { return options_; }

  /// Serialize queue order, running set, retry counters, and backoff gates
  /// (job pointers become ids). The machine's occupancy is saved by the
  /// Machine itself — restoring does NOT re-allocate partitions.
  void SaveState(ckpt::Writer& w) const;
  /// Restore onto a scheduler built with the same machine/options.
  /// `resolve` maps a job id back to its workload entry and must cover
  /// every saved id (throws otherwise).
  void RestoreState(
      ckpt::Reader& r,
      const std::function<const workload::Job*(workload::JobId)>& resolve);

 private:
  /// Test-only peer (tests/sched/shadow_profile_test.cc) that drives the
  /// EASY probe directly on hand-built machine states.
  friend struct ShadowProbePeer;

  /// EASY reservation: the earliest time the head job's block could be
  /// allocated, assuming running jobs end at their predicted ends (an
  /// overrun job counts as ending `now`). Read off the availability
  /// profile; when every candidate block holds a faulted midplane, falls
  /// back to the latest predicted end.
  sim::SimTime ShadowTime(const workload::Job& head, sim::SimTime now) const;

  /// True if starting `candidate` now cannot delay the reserved head job:
  /// either it finishes (per its walltime) before the shadow time, or the
  /// head job's block still frees up by the shadow time with the
  /// candidate's tentatively allocated partition (already marked in the
  /// profile) held.
  bool BackfillOk(const workload::Job& candidate, const workload::Job& head,
                  sim::SimTime now, sim::SimTime shadow) const;

  /// Record in the availability profile that `partition` stays busy until
  /// `until`.
  void MarkBusy(const machine::Partition& partition, sim::SimTime until);

  /// One eligible queue entry in service order, with the allocation block
  /// size cached so the backfill loop never re-derives machine geometry.
  struct Candidate {
    const workload::Job* job = nullptr;
    int block_nodes = 0;
  };

  /// True when `id` is still inside its requeue backoff at `now`.
  bool InBackoff(workload::JobId id, sim::SimTime now) const;

  machine::Machine& machine_;
  Options options_;
  /// Submission-order view of the wait queue: checkpoint layout and the
  /// NextEligibleTime scan key off it. The service order lives in
  /// wait_queue_ and is maintained incrementally.
  std::vector<const workload::Job*> queue_;
  WaitQueue wait_queue_;
  std::unordered_map<workload::JobId, RunningJob> running_;
  /// Availability profile: per midplane, the predicted end of the job last
  /// allocated there (start + requested walltime). Entries of free
  /// midplanes are stale and ignored — Machine::EarliestFit masks them with
  /// the occupancy word — so a release needs no update. Not serialized:
  /// RestoreState rebuilds it from the running set.
  std::vector<double> busy_until_;
  /// Per-pass scratch for the ordered eligible candidates.
  std::vector<Candidate> candidates_;
  /// Overflow-safe clamped exponential backoff for retry attempt `retries`
  /// (1-based), with the optional seeded jitter applied.
  double BackoffDelay(int retries);

  /// Retry attempts consumed per job (erased on successful completion).
  std::unordered_map<workload::JobId, int> retries_;
  /// Backoff gate: queued jobs absent from this map are always eligible.
  std::unordered_map<workload::JobId, sim::SimTime> eligible_after_;
  util::Rng jitter_rng_;
  obs::Hub* hub_ = nullptr;
};

}  // namespace iosched::sched
