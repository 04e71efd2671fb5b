#include "core/simulation.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <filesystem>
#include <map>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ckpt/serializer.h"
#include "core/invariants.h"
#include "core/io_scheduler.h"
#include "core/policy_factory.h"
#include "core/trace_adapter.h"
#include "faults/fault_injector.h"
#include "metrics/digest.h"
#include "sim/simulator.h"
#include "util/units.h"

namespace iosched::core {

namespace {

/// A burst-buffer-absorbed checkpoint flush awaiting drain: the restart
/// point it will establish once the buffer's cumulative drained volume
/// passes `threshold_gb`. The threshold is captured at absorb time as
/// (total drained + queued), which the FIFO drain makes exact: the flush's
/// bytes are on the PFS precisely when the cumulative counter passes it.
struct DurableMarker {
  std::size_t resume_phase = 0;
  /// When the application finished writing the flush (work after this
  /// instant is rework if the job restarts from this marker).
  sim::SimTime completion_time = 0.0;
  double threshold_gb = 0.0;
};

/// Per-running-job execution state: walks the phase list.
struct ExecState {
  const workload::Job* job = nullptr;
  machine::Partition partition;
  sim::SimTime start_time = 0.0;
  std::size_t next_phase = 0;
  /// Time the current I/O request was issued (for io_time_actual).
  sim::SimTime io_request_start = 0.0;
  double io_time_actual = 0.0;
  /// Whether the job is currently blocked in an I/O request.
  bool in_io = false;
  /// Pending walltime-kill event (enforce_walltime mode only). The firing
  /// time is kept so a checkpoint can re-arm it bit-exactly.
  sim::EventId kill_event = 0;
  sim::SimTime kill_fire_time = 0.0;
  bool has_kill_event = false;
  /// Pending compute-phase-completion event (cancelled on kill), with the
  /// firing time and phase duration its closure credits on completion.
  sim::EventId compute_event = 0;
  sim::SimTime compute_fire_time = 0.0;
  double compute_duration = 0.0;
  bool has_compute_event = false;
  /// App-checkpoint durability (app_checkpoint runs only; all dormant
  /// otherwise). `durable_phase` is the first phase a restart would
  /// re-execute given the flushes durably on the PFS; `durable_anchor_time`
  /// is when that durability point was established (work after it is
  /// rework on failure). Starts at the attempt's own resume point.
  std::size_t durable_phase = 0;
  sim::SimTime durable_anchor_time = 0.0;
  /// Checkpoint flushes completed during this attempt.
  int flush_count = 0;
  /// Absorbed flushes not yet drained, in completion order (thresholds are
  /// monotone because the cumulative drained volume is).
  std::vector<DurableMarker> pending_durables;
};

/// Bookkeeping for a fault-killed job across its attempts.
struct RetryContext {
  /// Failed attempts so far (== the scheduler's retry count).
  int failures = 0;
  /// Machine time burned by failed attempts.
  double lost_seconds = 0.0;
  /// First phase the next attempt executes (restart-mode dependent).
  std::size_t resume_phase = 0;
  /// Checkpoint flushes completed across failed attempts.
  int flush_count = 0;
  /// Machine time re-executed because it postdated the last durable flush
  /// (kRestartFromAppCheckpoint only; 0 under the other modes).
  double rework_seconds = 0.0;
};

std::uint64_t MixStr(std::uint64_t hash, const std::string& value) {
  hash = metrics::FnvMix(hash, static_cast<std::uint64_t>(value.size()));
  for (char c : value) {
    hash ^= static_cast<unsigned char>(c);
    hash *= metrics::kFnvPrime;
  }
  return hash;
}

class Engine {
 public:
  Engine(const SimulationConfig& config, const workload::Workload& jobs,
         EventLog* event_log, obs::Hub* hub)
      : config_(config),
        jobs_(jobs),
        event_log_(event_log),
        hub_(hub),
        machine_(config.machine),
        backend_(storage::MakeBackend(config.storage, config.burst_buffer)),
        storage_(backend_->model()),
        batch_(machine_, config.batch),
        utilization_(config.machine.total_nodes()),
        bandwidth_tracker_(config.storage.max_bandwidth_gbps),
        io_scheduler_(simulator_, *backend_,
                      config.machine.node_bandwidth_gbps,
                      MakePolicy(config.policy),
                      [this](workload::JobId id, sim::SimTime now,
                             const IoCompletionInfo& info) {
                        OnIoComplete(id, now, info);
                      }),
        base_bwmax_(config.storage.max_bandwidth_gbps) {
    burst_buffer_ = backend_->burst_buffer();
    io_scheduler_.SetRetryConfig(config.transfer_retry);
    io_scheduler_.ConfigureFlushScheduling(config.app_checkpoint);
    if (config_.track_bandwidth) {
      io_scheduler_.SetBandwidthTracker(&bandwidth_tracker_);
    }
    if (event_log_ != nullptr) sinks_.push_back(event_log_);
    if (config_.check_invariants) {
      checker_.emplace(machine_, storage_, batch_, burst_buffer_);
      checker_->AttachIoScheduler(&io_scheduler_);
      sinks_.push_back(&*checker_);
    }
    if (hub_ != nullptr) {
      trace_adapter_.emplace(&hub_->tracer());
      sinks_.push_back(&*trace_adapter_);
      simulator_.SetEventCounter(hub_->events_processed);
      io_scheduler_.SetObs(hub_);
      batch_.SetObs(hub_);
    }
    if (config_.faults.enabled()) {
      faults::FaultPlan plan = config_.faults.explicit_plan;
      if (plan.Empty() && config_.faults.plan_config.enabled) {
        plan = faults::BuildFaultPlan(config_.faults.plan_config,
                                      PlanHorizon(),
                                      config_.machine.total_midplanes());
      }
      faults::FaultHooks hooks;
      hooks.set_bandwidth_factor = [this](double factor, sim::SimTime now) {
        // Re-accrue in-flight transfers at the old rates up to `now`, then
        // swap the cap. The IoScheduler listens for bandwidth changes and
        // runs a cycle immediately, so every policy re-plans against the
        // new BWmax before any further event (the validator only runs
        // post-cycle, so a shrink can never look like an over-assignment).
        storage_.SetMaxBandwidth(base_bwmax_ * factor, now);
      };
      hooks.set_midplane_faulted = [this](int midplane, bool faulted,
                                          sim::SimTime now) {
        OnMidplaneEdge(midplane, faulted, now);
      };
      hooks.kill_job = [this](workload::JobId id, sim::SimTime now) {
        return FailJob(id, now);
      };
      hooks.set_bb_faulted = [this](bool faulted, bool lose_data,
                                    sim::SimTime now) {
        // A lossy buffer fault drops staged flush data. Settle durability
        // markers against what actually reached the PFS first, then
        // invalidate whatever was still queued — those flushes are gone.
        const bool ckpt_markers = config_.app_checkpoint.enabled;
        if (ckpt_markers && faulted && lose_data) SettleAllMarkers(now);
        io_scheduler_.OnBurstBufferFault(faulted, lose_data, now);
        if (ckpt_markers && faulted && lose_data) {
          for (auto& [id, state] : running_) state.pending_durables.clear();
        }
      };
      hooks.set_drain_factor = [this](double factor, sim::SimTime now) {
        io_scheduler_.OnDrainFactorChange(factor, now);
      };
      const bool stragglers = plan.straggler_probability > 0;
      injector_.emplace(simulator_, std::move(plan), std::move(hooks),
                        &fault_stats_);
      if (stragglers) {
        // Only installed when the plan can actually produce stragglers:
        // with no draw attached, submissions never touch the RNG and a
        // straggler-free run stays digest-identical to pre-straggler
        // builds.
        io_scheduler_.SetStragglerDraw(
            [this] { return injector_->DrawStragglerFactor(); });
      }
    }
  }

  /// Load `path` and restore the full engine state from it. Must run
  /// before Run(), on a freshly constructed engine.
  void RestoreFromFile(const std::string& path) {
    RestoreFrom(ckpt::CheckpointFile::Load(path), path);
  }

  SimulationResult Run() {
    for (const workload::Job& job : jobs_) {
      std::string err = job.Validate();
      if (!err.empty()) {
        throw std::invalid_argument("RunSimulation: job " +
                                    std::to_string(job.id) + ": " + err);
      }
    }
    if (!restored_) {
      if (checker_.has_value()) checker_->MarkCompleteHistory();
      // Every submission draws its id now, in jobs_ order: the ids pushing
      // them all up front would have drawn.
      sim::EventId first = simulator_.ReserveEventIds(jobs_.size());
      arrivals_.reserve(jobs_.size());
      for (std::size_t i = 0; i < jobs_.size(); ++i) {
        arrivals_.push_back(Arrival{first + i, &jobs_[i]});
      }
      StartArrivalStream();
      if (injector_.has_value()) injector_->Arm();
      if (hub_ != nullptr && hub_->options().sample_dt_seconds > 0) {
        // The engine owns the tick cadence: the first sample lands at t=0
        // and each tick re-arms only while real work remains, so sampling
        // cannot keep an otherwise-drained queue alive.
        ArmSampleTick(0.0);
      }
    }
    RunLoop();
    if (!running_.empty() || batch_.queue_size() != 0) {
      throw std::logic_error(
          "RunSimulation: event queue drained with unfinished jobs");
    }
    if (checker_.has_value()) RunInvariantCheck();
    if (hub_ != nullptr) {
      sim::SimTime end = simulator_.Now();
      io_scheduler_.FlushObs(end);
      trace_adapter_->Flush(end);
      if (hub_->options().sample_dt_seconds > 0) RecordSample(end);
    }

    SimulationResult result;
    std::sort(records_.begin(), records_.end(),
              [](const metrics::JobRecord& a, const metrics::JobRecord& b) {
                return a.id < b.id;
              });
    result.records = std::move(records_);
    result.report =
        metrics::Summarize(result.records, utilization_,
                           config_.warmup_fraction, config_.cooldown_fraction);
    result.bandwidth = bandwidth_tracker_.Summarize();
    if (config_.keep_bandwidth_samples) {
      result.bandwidth_samples = bandwidth_tracker_.samples();
    }
    if (burst_buffer_ != nullptr) {
      // Close the occupancy integral at the end of the run (all drains have
      // completed by now, so this only accrues the final idle stretch).
      burst_buffer_->AdvanceTo(simulator_.Now());
      result.bb_absorbed_gb = burst_buffer_->total_absorbed_gb();
      result.bb_absorbed_requests = burst_buffer_->absorbed_requests();
      result.bb_spilled_requests = burst_buffer_->spilled_requests();
      result.bb_drained_gb = burst_buffer_->total_drained_gb();
      result.bb_peak_queued_gb = burst_buffer_->peak_queued_gb();
      double span = simulator_.Now() * config_.burst_buffer.capacity_gb;
      result.bb_mean_occupancy =
          span > 0 ? burst_buffer_->occupancy_integral_gbs() / span : 0.0;
    }
    if (injector_.has_value()) injector_->FinalizeStats(simulator_.Now());
    result.faults = std::move(fault_stats_);
    result.transfer_timeouts = io_scheduler_.transfer_timeouts();
    result.transfer_retries = io_scheduler_.transfer_retries();
    result.straggler_spills = io_scheduler_.straggler_spills();
    result.bb_reflushed_requests = io_scheduler_.reflushed_requests();
    result.flush_deferrals = io_scheduler_.flush_deferrals();
    result.forced_flush_releases = io_scheduler_.forced_flush_releases();
    if (burst_buffer_ != nullptr) {
      result.bb_lost_gb = burst_buffer_->total_lost_gb();
    }
    if (checker_.has_value()) {
      result.invariant_checks = checker_->checks_run();
    }
    result.io_requests = io_scheduler_.submitted_requests();
    result.events_processed = simulator_.processed_events();
    result.io_scheduling_cycles = io_scheduler_.cycles();
    result.policy_name = io_scheduler_.policy().name();
    result.checkpoints_written = checkpoints_written_;
    result.resumed_from = resumed_from_;
    return result;
  }

 private:
  // --- Event closures ------------------------------------------------------
  // Every event the engine schedules is built by one of these factories, so
  // checkpoint restore re-arms byte-for-byte the same behaviour the original
  // schedule would have run. Each closure that owns a tracking entry erases
  // it first, keeping the checkpointed pending sets exactly the
  // not-yet-fired events.

  std::function<void()> ArrivalAction() {
    return [this] {
      const workload::Job& job = *arrivals_[next_arrival_++].job;
      ArmNextArrival();
      OnSubmit(job);
    };
  }

  std::function<void()> PassAction(std::uint64_t seq) {
    return [this, seq] {
      pending_passes_.erase(seq);
      RunSchedulingPass();
    };
  }

  std::function<void()> KillAction(workload::JobId id) {
    return [this, id] { KillJob(id); };
  }

  // Captures stay within std::function's inline buffer ([this, id]), so
  // scheduling a compute phase never allocates; the duration is read back
  // from the job's state.
  std::function<void()> ComputeAction(workload::JobId id) {
    return [this, id] {
      ExecState& state = running_.at(id);
      state.has_compute_event = false;
      io_scheduler_.AddCompletedCompute(id, state.compute_duration);
      AdvancePhase(id);
    };
  }

  std::function<void()> SampleAction() {
    return [this] {
      has_sample_event_ = false;
      SampleTick();
    };
  }

  /// Order the arrival stream by (submit time, event id) — the order the
  /// heap would pop the submissions in — and arm its head.
  void StartArrivalStream() {
    std::sort(arrivals_.begin(), arrivals_.end(),
              [](const Arrival& a, const Arrival& b) {
                if (a.job->submit_time != b.job->submit_time) {
                  return a.job->submit_time < b.job->submit_time;
                }
                return a.event < b.event;
              });
    next_arrival_ = 0;
    ArmNextArrival();
  }

  /// Put the next un-fired submission into the heap under its reserved
  /// id. Only the stream's head is ever queued: every later submission
  /// sorts after it, so it enters the heap before it could be the minimum.
  void ArmNextArrival() {
    if (next_arrival_ == arrivals_.size()) return;
    const Arrival& next = arrivals_[next_arrival_];
    simulator_.RestoreEvent(next.job->submit_time, next.event,
                            ArrivalAction());
  }

  void ArmSampleTick(sim::SimTime t) {
    sample_event_ = simulator_.ScheduleAt(t, SampleAction());
    sample_event_time_ = t;
    has_sample_event_ = true;
  }

  void OnSubmit(const workload::Job& job) {
    Log(SchedEventKind::kSubmit, job.id, static_cast<double>(job.nodes));
    batch_.Submit(job);
    RunSchedulingPass();
  }

  /// The single emit point of the scheduling-event stream: every consumer
  /// (CSV log, trace adapter, lifecycle counters) hangs off this call.
  void Log(SchedEventKind kind, workload::JobId id, double detail = 0.0) {
    if (sinks_.empty() && hub_ == nullptr) return;
    SchedEvent event{simulator_.Now(), kind, id, detail};
    for (SchedEventSink* sink : sinks_) sink->OnSchedEvent(event);
    CountSchedEvent(kind);
  }

  void CountSchedEvent(SchedEventKind kind) {
    if (hub_ == nullptr) return;
    switch (kind) {
      case SchedEventKind::kSubmit: hub_->jobs_submitted->Inc(); break;
      case SchedEventKind::kStart: hub_->jobs_started->Inc(); break;
      case SchedEventKind::kEnd: hub_->jobs_completed->Inc(); break;
      case SchedEventKind::kKill: hub_->jobs_killed->Inc(); break;
      case SchedEventKind::kFaultKill: hub_->jobs_fault_killed->Inc(); break;
      case SchedEventKind::kRequeue: hub_->jobs_requeued->Inc(); break;
      case SchedEventKind::kAbandon: hub_->jobs_abandoned->Inc(); break;
      case SchedEventKind::kIoRequest:
      case SchedEventKind::kIoComplete:
        break;  // counted at the IoScheduler, which also sees absorbed I/O
    }
  }

  void SampleTick() {
    RecordSample(simulator_.Now());
    if (simulator_.pending_events() > 0) {
      ArmSampleTick(simulator_.Now() + hub_->options().sample_dt_seconds);
    }
  }

  void RecordSample(sim::SimTime now) {
    obs::SamplePoint p;
    p.time = now;
    p.demand_gbps = storage_.TotalDemand();
    p.granted_gbps = storage_.TotalAssignedRate();
    p.active_requests = static_cast<int>(storage_.active_count());
    storage_.ActiveByArrival(sample_scratch_);
    for (const storage::Transfer* t : sample_scratch_) {
      if (t->rate_gbps <= 0) ++p.suspended_requests;
    }
    p.busy_nodes = machine_.busy_nodes();
    int total_nodes = config_.machine.total_nodes();
    p.utilization = total_nodes > 0
                        ? static_cast<double>(p.busy_nodes) / total_nodes
                        : 0.0;
    p.queue_depth = batch_.queue_size();
    p.running_jobs = running_.size();
    if (burst_buffer_ != nullptr) {
      // Backlog as of the last storage event. Deliberately no AdvanceTo:
      // sampling must never mutate simulation state.
      p.bb_queued_gb = burst_buffer_->queued_gb();
    }
    hub_->sampler().Record(p);
  }

  void RunSchedulingPass() {
    sim::SimTime now = simulator_.Now();
    for (const sched::StartDecision& d : batch_.Schedule(now)) {
      StartJob(*d.job, d.partition, now);
    }
    utilization_.Record(now, machine_.busy_nodes());
    if (hub_ != nullptr) {
      hub_->tracer().Counter(obs::kSchedulerTrack, "queue_depth", now,
                             static_cast<double>(batch_.queue_size()));
    }
  }

  void StartJob(const workload::Job& job, const machine::Partition& partition,
                sim::SimTime now) {
    ExecState state;
    state.job = &job;
    state.partition = partition;
    state.start_time = now;
    auto rit = retry_.find(job.id);
    if (rit != retry_.end()) state.next_phase = rit->second.resume_phase;
    // Until a flush drains, a failure rolls back to the attempt's own
    // starting point — everything since `now` would be rework.
    state.durable_phase = state.next_phase;
    state.durable_anchor_time = now;
    Log(SchedEventKind::kStart, job.id, static_cast<double>(partition.nodes));
    if (config_.enforce_walltime) {
      state.kill_fire_time = now + job.requested_walltime;
      state.kill_event =
          simulator_.ScheduleAt(state.kill_fire_time, KillAction(job.id));
      state.has_kill_event = true;
    }
    running_.emplace(job.id, state);
    io_scheduler_.RegisterJob(job, now);
    if (injector_.has_value()) {
      injector_->OnJobStart(
          job.id, now,
          job.UncongestedRuntime(config_.machine.node_bandwidth_gbps));
    }
    AdvancePhase(job.id);
  }

  /// Walltime expired: terminate the job wherever it is in its phase list.
  void KillJob(workload::JobId id) {
    auto it = running_.find(id);
    if (it == running_.end()) return;  // finished at the same instant
    ExecState& state = it->second;
    state.has_kill_event = false;
    sim::SimTime now = simulator_.Now();
    if (state.has_compute_event) {
      simulator_.Cancel(state.compute_event);
      state.has_compute_event = false;
    }
    if (state.in_io) {
      state.io_time_actual += now - state.io_request_start;
      io_scheduler_.AbortRequest(id, now);
      state.in_io = false;
    }
    FinishJob(id, now, /*killed=*/true);
  }

  /// Fault-kill a running job (injector hook): tear down its execution
  /// state, then requeue it with backoff or abandon it once the retry
  /// budget is spent. Returns false when the job is not running (it ended
  /// at the same instant the kill fired).
  bool FailJob(workload::JobId id, sim::SimTime now) {
    auto it = running_.find(id);
    if (it == running_.end()) return false;
    ExecState state = it->second;
    if (state.has_compute_event) simulator_.Cancel(state.compute_event);
    if (state.has_kill_event) simulator_.Cancel(state.kill_event);
    if (state.in_io) {
      state.io_time_actual += now - state.io_request_start;
      io_scheduler_.AbortRequest(id, now);
    }
    running_.erase(it);
    io_scheduler_.UnregisterJob(id);
    if (injector_.has_value()) injector_->OnJobStop(id);

    const bool app_ckpt = config_.faults.restart_mode ==
                          faults::RestartMode::kRestartFromAppCheckpoint;
    if (app_ckpt) {
      // Late flushes may have drained since the last settlement; count
      // them before deciding how far back this failure rolls the job.
      SettleJobMarkers(state, io_scheduler_.TotalDrainedGb(now));
    }
    sched::BatchScheduler::RequeueDecision decision =
        batch_.OnJobFailed(id, now);
    RetryContext& rc = retry_[id];
    rc.failures = decision.retries;
    rc.lost_seconds += now - state.start_time;
    if (app_ckpt) {
      rc.resume_phase = state.durable_phase;
      rc.rework_seconds += now - state.durable_anchor_time;
    } else {
      rc.resume_phase = config_.faults.restart_mode ==
                                faults::RestartMode::kResumeFromLastPhase
                            ? (state.next_phase > 0 ? state.next_phase - 1 : 0)
                            : 0;
    }
    rc.flush_count += state.flush_count;
    Log(SchedEventKind::kFaultKill, id, static_cast<double>(decision.retries));

    if (decision.requeued) {
      fault_stats_.Add(now, metrics::FaultEventKind::kRequeue, id,
                       decision.eligible_time);
      Log(SchedEventKind::kRequeue, id, decision.eligible_time);
      // A backoff expiry wakes nobody by itself: arm a scheduling pass at
      // the eligibility time (idempotent if anything else runs one first).
      std::uint64_t seq = next_pass_seq_++;
      pending_passes_[seq] = PendingPass{
          simulator_.ScheduleAt(decision.eligible_time, PassAction(seq)),
          decision.eligible_time};
    } else {
      fault_stats_.Add(now, metrics::FaultEventKind::kAbandon, id);
      Log(SchedEventKind::kAbandon, id);
      metrics::JobRecord record = MakeRecord(state, now, /*killed=*/false);
      record.abandoned = true;
      record.attempts = rc.failures;
      record.lost_seconds = rc.lost_seconds;
      // rc already folded this attempt's flushes in above.
      record.flush_count = rc.flush_count;
      record.rework_seconds = rc.rework_seconds;
      records_.push_back(record);
      retry_.erase(id);
    }
    RunSchedulingPass();
    return true;
  }

  /// Midplane outage edge (injector hook). On fault: mark the midplane
  /// unallocatable *first* (so the scheduling passes triggered by the kills
  /// cannot hand it out again), then kill every job whose partition covers
  /// it, in job-id order for determinism. On repair: the freed midplane may
  /// unblock the queue.
  void OnMidplaneEdge(int midplane, bool faulted, sim::SimTime now) {
    machine_.SetFaulted(midplane, faulted);
    if (faulted) {
      std::vector<workload::JobId> victims;
      for (const auto& [id, state] : running_) {
        if (machine::Machine::Covers(state.partition, midplane)) {
          victims.push_back(id);
        }
      }
      std::sort(victims.begin(), victims.end());
      for (workload::JobId id : victims) {
        if (FailJob(id, now)) {
          fault_stats_.Add(now, metrics::FaultEventKind::kJobKill, id,
                           static_cast<double>(midplane));
        }
      }
    }
    RunSchedulingPass();
  }

  /// Horizon for generated fault plans: the latest time any job could still
  /// be running if every job consumed its full requested walltime.
  double PlanHorizon() const {
    double horizon = 0.0;
    for (const workload::Job& job : jobs_) {
      horizon = std::max(horizon, job.submit_time + job.requested_walltime);
    }
    return horizon;
  }

  /// Enter the next phase of a job (or finish it).
  void AdvancePhase(workload::JobId id) {
    ExecState& state = running_.at(id);
    sim::SimTime now = simulator_.Now();
    for (;;) {
      if (state.next_phase >= state.job->phases.size()) {
        FinishJob(id, now, /*killed=*/false);
        return;
      }
      const workload::Phase& phase = state.job->phases[state.next_phase];
      ++state.next_phase;
      if (phase.kind == workload::PhaseKind::kCompute) {
        if (phase.compute_seconds <= 0) continue;  // empty phase: skip
        state.compute_duration = phase.compute_seconds;
        state.compute_fire_time = now + phase.compute_seconds;
        state.compute_event = simulator_.ScheduleAt(
            state.compute_fire_time, ComputeAction(id));
        state.has_compute_event = true;
        return;
      }
      // I/O phase.
      if (phase.io_volume_gb <= util::kVolumeEpsilon) continue;
      state.io_request_start = now;
      state.in_io = true;
      Log(SchedEventKind::kIoRequest, id, phase.io_volume_gb);
      io_scheduler_.SubmitRequest(id, phase.io_volume_gb, now,
                                  phase.is_flush);
      return;
    }
  }

  void OnIoComplete(workload::JobId id, sim::SimTime now,
                    const IoCompletionInfo& info) {
    ExecState& state = running_.at(id);
    state.io_time_actual += now - state.io_request_start;
    state.in_io = false;
    Log(SchedEventKind::kIoComplete, id);
    if (config_.app_checkpoint.enabled && state.next_phase > 0 &&
        state.job->phases[state.next_phase - 1].is_flush) {
      ++state.flush_count;
      if (info.absorbed) {
        // Staged in the burst buffer: durable only once the drain has
        // pushed the flush's bytes to the PFS.
        state.pending_durables.push_back(
            DurableMarker{state.next_phase, now, info.durable_drain_gb});
      } else {
        // Direct path: durable now. This point postdates every pending
        // marker, so they are superseded.
        state.durable_phase = state.next_phase;
        state.durable_anchor_time = now;
        state.pending_durables.clear();
      }
      SettleJobMarkers(state, io_scheduler_.TotalDrainedGb(now));
    }
    AdvancePhase(id);
  }

  /// Promote every pending marker the drain has caught up with into the
  /// job's durable restart point. Markers are in completion order with
  /// monotone thresholds, so a prefix settles.
  static void SettleJobMarkers(ExecState& state, double drained_gb) {
    std::size_t settled = 0;
    for (const DurableMarker& m : state.pending_durables) {
      if (m.threshold_gb > drained_gb + util::kVolumeEpsilon) break;
      state.durable_phase = m.resume_phase;
      state.durable_anchor_time = m.completion_time;
      ++settled;
    }
    if (settled > 0) {
      state.pending_durables.erase(state.pending_durables.begin(),
                                   state.pending_durables.begin() + settled);
    }
  }

  void SettleAllMarkers(sim::SimTime now) {
    double drained = io_scheduler_.TotalDrainedGb(now);
    for (auto& [id, state] : running_) SettleJobMarkers(state, drained);
  }

  metrics::JobRecord MakeRecord(const ExecState& state, sim::SimTime now,
                                bool killed) const {
    metrics::JobRecord record;
    record.id = state.job->id;
    record.requested_nodes = state.job->nodes;
    record.allocated_nodes = state.partition.nodes;
    record.submit_time = state.job->submit_time;
    record.start_time = state.start_time;
    record.end_time = now;
    record.uncongested_runtime =
        state.job->UncongestedRuntime(config_.machine.node_bandwidth_gbps);
    record.requested_walltime = state.job->requested_walltime;
    record.io_time_actual = state.io_time_actual;
    record.io_time_uncongested =
        state.job->UncongestedIoSeconds(config_.machine.node_bandwidth_gbps);
    record.io_phase_count = state.job->IoPhaseCount();
    record.killed = killed;
    record.flush_count = state.flush_count;
    return record;
  }

  void FinishJob(workload::JobId id, sim::SimTime now, bool killed) {
    Log(killed ? SchedEventKind::kKill : SchedEventKind::kEnd, id);
    ExecState state = running_.at(id);
    running_.erase(id);
    if (state.has_kill_event) simulator_.Cancel(state.kill_event);
    io_scheduler_.UnregisterJob(id);
    if (injector_.has_value()) injector_->OnJobStop(id);
    batch_.OnJobEnd(id, now);

    metrics::JobRecord record = MakeRecord(state, now, killed);
    auto rit = retry_.find(id);
    if (rit != retry_.end()) {
      record.attempts = rit->second.failures + 1;
      record.lost_seconds = rit->second.lost_seconds;
      record.flush_count += rit->second.flush_count;
      record.rework_seconds = rit->second.rework_seconds;
      retry_.erase(rit);
    }
    records_.push_back(record);

    RunSchedulingPass();
  }

  // --- Checkpoint orchestration --------------------------------------------

  /// Event loop with checkpoint triggers and watchdog polling. Checkpoints
  /// are taken strictly *between* events, so the saved state is always a
  /// consistent between-events frontier.
  void RunLoop() {
    const ckpt::Options& opt = config_.checkpoint;
    const bool saving = opt.SavingEnabled();
    RunControl* control = config_.control;
    using Clock = std::chrono::steady_clock;
    auto wall_period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(
            opt.every_wall_seconds > 0 ? opt.every_wall_seconds : 0.0));
    double next_sim_save = opt.every_sim_seconds > 0
                               ? simulator_.Now() + opt.every_sim_seconds
                               : 0.0;
    std::uint64_t next_event_save =
        opt.every_events > 0
            ? simulator_.processed_events() + opt.every_events
            : 0;
    Clock::time_point next_wall_save = Clock::now() + wall_period;
    const std::uint64_t check_every =
        checker_.has_value() ? config_.invariant_check_every_events : 0;
    std::uint64_t next_invariant_check =
        check_every > 0 ? simulator_.processed_events() + check_every : 0;

    while (simulator_.RunOne()) {
      if (check_every > 0 &&
          simulator_.processed_events() >= next_invariant_check) {
        RunInvariantCheck();
        next_invariant_check = simulator_.processed_events() + check_every;
      }
      if (control != nullptr) {
        control->progress_events.store(simulator_.processed_events(),
                                       std::memory_order_relaxed);
        control->progress_sim_time.store(simulator_.Now(),
                                         std::memory_order_relaxed);
        if (control->abort.load(std::memory_order_relaxed)) {
          std::string path;
          if (!opt.directory.empty()) path = SaveCheckpointNow();
          throw SimulationAborted(
              "simulation aborted by watchdog at t=" +
                  std::to_string(simulator_.Now()) + " after " +
                  std::to_string(simulator_.processed_events()) + " events" +
                  (path.empty() ? "" : "; emergency checkpoint " + path),
              path);
        }
      }
      if (!saving || simulator_.pending_events() == 0) continue;
      bool due = false;
      if (opt.every_events > 0 &&
          simulator_.processed_events() >= next_event_save) {
        due = true;
      }
      if (opt.every_sim_seconds > 0 && simulator_.Now() >= next_sim_save) {
        due = true;
      }
      // The wall trigger checks the clock only every 1024 events to keep
      // the hot loop free of syscalls.
      if (opt.every_wall_seconds > 0 &&
          (simulator_.processed_events() & 1023u) == 0 &&
          Clock::now() >= next_wall_save) {
        due = true;
      }
      if (!due) continue;
      SaveCheckpointNow();
      if (opt.every_events > 0) {
        next_event_save = simulator_.processed_events() + opt.every_events;
      }
      if (opt.every_sim_seconds > 0) {
        next_sim_save = simulator_.Now() + opt.every_sim_seconds;
      }
      if (opt.every_wall_seconds > 0) {
        next_wall_save = Clock::now() + wall_period;
      }
    }
  }

  /// One full InvariantChecker sweep, counted on the hub when one is
  /// attached. Strictly read-only with respect to simulation state.
  void RunInvariantCheck() {
    checker_->CheckNow(simulator_.Now());
    if (hub_ != nullptr) hub_->invariant_checks->Inc();
  }

  /// Snapshot the complete engine state and atomically publish it under the
  /// next sequence number, pruning old checkpoints. Returns the path.
  std::string SaveCheckpointNow() {
    const ckpt::Options& opt = config_.checkpoint;
    // Flag the write on the control handle so a watchdog can tell "long
    // checkpoint write" apart from "stuck simulation"; cleared on every
    // exit path (WriteAtomic can throw on a full disk).
    struct CkptFlag {
      RunControl* control;
      explicit CkptFlag(RunControl* c) : control(c) {
        if (control != nullptr) {
          control->checkpoint_in_progress.store(true,
                                                std::memory_order_relaxed);
        }
      }
      ~CkptFlag() {
        if (control != nullptr) {
          control->checkpoint_in_progress.store(false,
                                                std::memory_order_relaxed);
        }
      }
    } flag(config_.control);
    std::filesystem::create_directories(std::filesystem::path(opt.directory));
    ckpt::CheckpointFile file = BuildCheckpoint();
    std::string path = ckpt::CheckpointFileName(
        opt.directory, ckpt::NextSequence(opt.directory));
    file.WriteAtomic(path);
    ++checkpoints_written_;
    ckpt::PruneOld(opt.directory, opt.keep_last);
    return path;
  }

  std::uint64_t ConfigHash() {
    if (!config_hash_.has_value()) {
      config_hash_ = SimulationConfigHash(config_, jobs_);
    }
    return *config_hash_;
  }

  /// Id → workload entry, built on first use. Checkpointing requires
  /// unique job ids (the restore path keys everything by id).
  const workload::Job* FindJob(workload::JobId id) {
    if (job_index_.empty() && !jobs_.empty()) {
      job_index_.reserve(jobs_.size());
      for (const workload::Job& job : jobs_) {
        if (!job_index_.emplace(job.id, &job).second) {
          throw std::invalid_argument(
              "checkpoint: workload has duplicate job id " +
              std::to_string(job.id));
        }
      }
    }
    auto it = job_index_.find(id);
    return it == job_index_.end() ? nullptr : it->second;
  }

  ckpt::CheckpointFile BuildCheckpoint() {
    ckpt::CheckpointFile file;
    file.SetConfigHash(ConfigHash());
    {
      ckpt::Writer w;
      w.F64(simulator_.Now());
      w.U64(simulator_.processed_events());
      w.U64(simulator_.NextEventId());
      file.AddSection("sim", w.TakeBuffer());
    }
    {
      ckpt::Writer w;
      machine_.SaveState(w);
      file.AddSection("machine", w.TakeBuffer());
    }
    {
      ckpt::Writer w;
      storage_.SaveState(w);
      file.AddSection("storage", w.TakeBuffer());
    }
    if (burst_buffer_ != nullptr) {
      ckpt::Writer w;
      burst_buffer_->SaveState(w);
      file.AddSection("burst_buffer", w.TakeBuffer());
    }
    {
      ckpt::Writer w;
      batch_.SaveState(w);
      file.AddSection("batch", w.TakeBuffer());
    }
    {
      ckpt::Writer w;
      io_scheduler_.SaveState(w);
      file.AddSection("iosched", w.TakeBuffer());
    }
    {
      ckpt::Writer w;
      SaveEngineSection(w);
      file.AddSection("engine", w.TakeBuffer());
    }
    if (injector_.has_value()) {
      ckpt::Writer w;
      injector_->SaveState(w);
      file.AddSection("faults", w.TakeBuffer());
    }
    {
      ckpt::Writer w;
      fault_stats_.SaveState(w);
      file.AddSection("fault_stats", w.TakeBuffer());
    }
    {
      ckpt::Writer w;
      utilization_.SaveState(w);
      file.AddSection("utilization", w.TakeBuffer());
    }
    {
      ckpt::Writer w;
      bandwidth_tracker_.SaveState(w);
      file.AddSection("bandwidth", w.TakeBuffer());
    }
    if (event_log_ != nullptr) {
      ckpt::Writer w;
      event_log_->SaveState(w);
      file.AddSection("event_log", w.TakeBuffer());
    }
    return file;
  }

  void SaveEngineSection(ckpt::Writer& w) {
    // Running jobs, sorted by id for deterministic bytes.
    std::vector<workload::JobId> ids;
    ids.reserve(running_.size());
    for (const auto& [id, state] : running_) ids.push_back(id);
    std::sort(ids.begin(), ids.end());
    w.U32(static_cast<std::uint32_t>(ids.size()));
    for (workload::JobId id : ids) {
      const ExecState& s = running_.at(id);
      w.I64(id);
      w.I64(s.partition.first_midplane);
      w.I64(s.partition.midplane_count);
      w.I64(s.partition.nodes);
      w.F64(s.start_time);
      w.U64(s.next_phase);
      w.F64(s.io_request_start);
      w.F64(s.io_time_actual);
      w.Bool(s.in_io);
      w.Bool(s.has_kill_event);
      if (s.has_kill_event) {
        w.U64(s.kill_event);
        w.F64(s.kill_fire_time);
      }
      w.Bool(s.has_compute_event);
      if (s.has_compute_event) {
        w.U64(s.compute_event);
        w.F64(s.compute_fire_time);
        w.F64(s.compute_duration);
      }
      w.U64(s.durable_phase);
      w.F64(s.durable_anchor_time);
      w.I64(s.flush_count);
      w.U32(static_cast<std::uint32_t>(s.pending_durables.size()));
      for (const DurableMarker& m : s.pending_durables) {
        w.U64(m.resume_phase);
        w.F64(m.completion_time);
        w.F64(m.threshold_gb);
      }
    }
    // Retry contexts.
    ids.clear();
    for (const auto& [id, rc] : retry_) ids.push_back(id);
    std::sort(ids.begin(), ids.end());
    w.U32(static_cast<std::uint32_t>(ids.size()));
    for (workload::JobId id : ids) {
      const RetryContext& rc = retry_.at(id);
      w.I64(id);
      w.I64(rc.failures);
      w.F64(rc.lost_seconds);
      w.U64(rc.resume_phase);
      w.I64(rc.flush_count);
      w.F64(rc.rework_seconds);
    }
    // Finished-job records, in completion order (sorted by id only at the
    // end of Run, so the order must be preserved across a resume).
    w.U32(static_cast<std::uint32_t>(records_.size()));
    for (const metrics::JobRecord& r : records_) {
      w.I64(r.id);
      w.I64(r.requested_nodes);
      w.I64(r.allocated_nodes);
      w.F64(r.submit_time);
      w.F64(r.start_time);
      w.F64(r.end_time);
      w.F64(r.uncongested_runtime);
      w.F64(r.requested_walltime);
      w.F64(r.io_time_actual);
      w.F64(r.io_time_uncongested);
      w.I64(r.io_phase_count);
      w.Bool(r.killed);
      w.I64(r.attempts);
      w.Bool(r.abandoned);
      w.F64(r.lost_seconds);
      w.I64(r.flush_count);
      w.F64(r.rework_seconds);
    }
    // Pending submit events (fire time = the job's submit time): the
    // un-fired tail of the arrival stream, by job id.
    std::vector<std::pair<workload::JobId, sim::EventId>> submits;
    submits.reserve(arrivals_.size() - next_arrival_);
    for (std::size_t i = next_arrival_; i < arrivals_.size(); ++i) {
      submits.emplace_back(arrivals_[i].job->id, arrivals_[i].event);
    }
    std::sort(submits.begin(), submits.end());
    w.U32(static_cast<std::uint32_t>(submits.size()));
    for (const auto& [id, event] : submits) {
      w.I64(id);
      w.U64(event);
    }
    // Pending backoff scheduling passes (std::map: already sorted).
    w.U32(static_cast<std::uint32_t>(pending_passes_.size()));
    for (const auto& [seq, pass] : pending_passes_) {
      w.U64(seq);
      w.U64(pass.event);
      w.F64(pass.fire_time);
    }
    w.U64(next_pass_seq_);
    // Sampler tick event.
    w.Bool(has_sample_event_);
    if (has_sample_event_) {
      w.U64(sample_event_);
      w.F64(sample_event_time_);
    }
  }

  void RestoreEngineSection(ckpt::Reader& r) {
    auto must_resolve = [this](workload::JobId id) -> const workload::Job* {
      const workload::Job* job = FindJob(id);
      if (job == nullptr) {
        throw std::runtime_error(
            "checkpoint engine: job " + std::to_string(id) +
            " not present in the workload");
      }
      return job;
    };
    std::uint32_t n = r.U32();
    for (std::uint32_t i = 0; i < n; ++i) {
      workload::JobId id = r.I64();
      ExecState s;
      s.job = must_resolve(id);
      s.partition.first_midplane = static_cast<int>(r.I64());
      s.partition.midplane_count = static_cast<int>(r.I64());
      s.partition.nodes = static_cast<int>(r.I64());
      s.start_time = r.F64();
      s.next_phase = static_cast<std::size_t>(r.U64());
      s.io_request_start = r.F64();
      s.io_time_actual = r.F64();
      s.in_io = r.Bool();
      s.has_kill_event = r.Bool();
      if (s.has_kill_event) {
        s.kill_event = r.U64();
        s.kill_fire_time = r.F64();
        simulator_.RestoreEvent(s.kill_fire_time, s.kill_event,
                                KillAction(id));
      }
      s.has_compute_event = r.Bool();
      if (s.has_compute_event) {
        s.compute_event = r.U64();
        s.compute_fire_time = r.F64();
        s.compute_duration = r.F64();
        simulator_.RestoreEvent(s.compute_fire_time, s.compute_event,
                                ComputeAction(id));
      }
      s.durable_phase = static_cast<std::size_t>(r.U64());
      s.durable_anchor_time = r.F64();
      s.flush_count = static_cast<int>(r.I64());
      std::uint32_t markers = r.U32();
      s.pending_durables.reserve(markers);
      for (std::uint32_t m = 0; m < markers; ++m) {
        DurableMarker marker;
        marker.resume_phase = static_cast<std::size_t>(r.U64());
        marker.completion_time = r.F64();
        marker.threshold_gb = r.F64();
        s.pending_durables.push_back(marker);
      }
      running_.emplace(id, s);
    }
    n = r.U32();
    for (std::uint32_t i = 0; i < n; ++i) {
      workload::JobId id = r.I64();
      RetryContext rc;
      rc.failures = static_cast<int>(r.I64());
      rc.lost_seconds = r.F64();
      rc.resume_phase = static_cast<std::size_t>(r.U64());
      rc.flush_count = static_cast<int>(r.I64());
      rc.rework_seconds = r.F64();
      retry_.emplace(id, rc);
    }
    n = r.U32();
    records_.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      metrics::JobRecord rec;
      rec.id = r.I64();
      rec.requested_nodes = static_cast<int>(r.I64());
      rec.allocated_nodes = static_cast<int>(r.I64());
      rec.submit_time = r.F64();
      rec.start_time = r.F64();
      rec.end_time = r.F64();
      rec.uncongested_runtime = r.F64();
      rec.requested_walltime = r.F64();
      rec.io_time_actual = r.F64();
      rec.io_time_uncongested = r.F64();
      rec.io_phase_count = static_cast<int>(r.I64());
      rec.killed = r.Bool();
      rec.attempts = static_cast<int>(r.I64());
      rec.abandoned = r.Bool();
      rec.lost_seconds = r.F64();
      rec.flush_count = static_cast<int>(r.I64());
      rec.rework_seconds = r.F64();
      records_.push_back(rec);
    }
    n = r.U32();
    arrivals_.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      workload::JobId id = r.I64();
      sim::EventId event = r.U64();
      arrivals_.push_back(Arrival{event, must_resolve(id)});
    }
    StartArrivalStream();
    n = r.U32();
    for (std::uint32_t i = 0; i < n; ++i) {
      std::uint64_t seq = r.U64();
      PendingPass pass;
      pass.event = r.U64();
      pass.fire_time = r.F64();
      simulator_.RestoreEvent(pass.fire_time, pass.event, PassAction(seq));
      pending_passes_.emplace(seq, pass);
    }
    next_pass_seq_ = r.U64();
    has_sample_event_ = r.Bool();
    if (has_sample_event_) {
      sample_event_ = r.U64();
      sample_event_time_ = r.F64();
      if (hub_ == nullptr || hub_->options().sample_dt_seconds <= 0) {
        throw ckpt::ConfigMismatchError(
            "checkpoint engine: a sampler tick is pending but the resumed "
            "run has no sampler (pass a hub built from the same obs "
            "options)");
      }
      simulator_.RestoreEvent(sample_event_time_, sample_event_,
                              SampleAction());
    }
    r.ExpectEnd();
  }

  void RestoreFrom(const ckpt::CheckpointFile& file,
                   const std::string& context) {
    if (restored_) {
      throw std::logic_error("checkpoint: engine already restored");
    }
    if (simulator_.processed_events() != 0 ||
        simulator_.pending_events() != 0) {
      throw std::logic_error("checkpoint: restore requires a fresh engine");
    }
    if (file.config_hash() != ConfigHash()) {
      throw ckpt::ConfigMismatchError(
          "checkpoint " + context +
          ": configuration/workload hash mismatch (the file was written "
          "under a different run setup)");
    }
    if (file.HasSection("burst_buffer") != (burst_buffer_ != nullptr)) {
      throw ckpt::ConfigMismatchError(
          "checkpoint " + context + ": burst-buffer presence mismatch");
    }
    if (file.HasSection("faults") != injector_.has_value()) {
      throw ckpt::ConfigMismatchError(
          "checkpoint " + context + ": fault-injection presence mismatch");
    }
    {
      ckpt::Reader r(file.Section("sim"), "sim");
      sim::SimTime now = r.F64();
      std::uint64_t processed = r.U64();
      sim::EventId next_id = r.U64();
      r.ExpectEnd();
      simulator_.RestoreClock(now, processed, next_id);
    }
    {
      ckpt::Reader r(file.Section("machine"), "machine");
      machine_.RestoreState(r);
      r.ExpectEnd();
    }
    {
      ckpt::Reader r(file.Section("storage"), "storage");
      storage_.RestoreState(r);
      r.ExpectEnd();
    }
    if (burst_buffer_ != nullptr) {
      ckpt::Reader r(file.Section("burst_buffer"), "burst_buffer");
      burst_buffer_->RestoreState(r);
      r.ExpectEnd();
    }
    auto resolve = [this](workload::JobId id) { return FindJob(id); };
    {
      ckpt::Reader r(file.Section("batch"), "batch");
      batch_.RestoreState(r, resolve);
      r.ExpectEnd();
    }
    {
      ckpt::Reader r(file.Section("iosched"), "iosched");
      io_scheduler_.RestoreState(r, resolve);
      r.ExpectEnd();
    }
    {
      ckpt::Reader r(file.Section("engine"), "engine");
      RestoreEngineSection(r);
    }
    if (injector_.has_value()) {
      ckpt::Reader r(file.Section("faults"), "faults");
      injector_->RestoreState(r);
      r.ExpectEnd();
    }
    {
      ckpt::Reader r(file.Section("fault_stats"), "fault_stats");
      fault_stats_.RestoreState(r);
      r.ExpectEnd();
    }
    {
      ckpt::Reader r(file.Section("utilization"), "utilization");
      utilization_.RestoreState(r);
      r.ExpectEnd();
    }
    {
      ckpt::Reader r(file.Section("bandwidth"), "bandwidth");
      bandwidth_tracker_.RestoreState(r);
      r.ExpectEnd();
    }
    if (event_log_ != nullptr && file.HasSection("event_log")) {
      ckpt::Reader r(file.Section("event_log"), "event_log");
      event_log_->RestoreState(r);
      r.ExpectEnd();
    }
    restored_ = true;
    resumed_from_ = context;
  }

  const SimulationConfig& config_;
  const workload::Workload& jobs_;
  EventLog* event_log_;
  obs::Hub* hub_;
  /// Consumers of the Log() emit point (event_log_, then trace_adapter_).
  std::vector<SchedEventSink*> sinks_;
  std::optional<SchedTraceAdapter> trace_adapter_;
  sim::Simulator simulator_;
  machine::Machine machine_;
  /// Storage subsystem: single-tier PFS or PFS + burst-buffer tier,
  /// selected by config. Declared before the members that hold references
  /// into it.
  std::unique_ptr<storage::StorageBackend> backend_;
  /// The PFS fair-share model inside the backend (checkpoint section
  /// "storage" and every grant computation go through this alias, keeping
  /// the on-disk layout identical to the pre-backend engine).
  storage::StorageModel& storage_;
  sched::BatchScheduler batch_;
  metrics::UtilizationTracker utilization_;
  metrics::BandwidthTracker bandwidth_tracker_;
  /// backend_->burst_buffer(); null when the tier is disabled.
  storage::BurstBuffer* burst_buffer_ = nullptr;
  IoScheduler io_scheduler_;
  /// Nominal BWmax; degradation scales it (the storage model holds the
  /// currently effective value).
  double base_bwmax_ = 0.0;
  metrics::FaultStats fault_stats_;
  std::optional<faults::FaultInjector> injector_;
  /// The chaos-harness invariant checker (config.check_invariants only);
  /// registered as a sink for lifecycle legality and swept periodically by
  /// RunLoop.
  std::optional<InvariantChecker> checker_;
  std::unordered_map<workload::JobId, ExecState> running_;
  std::unordered_map<workload::JobId, RetryContext> retry_;
  metrics::JobRecords records_;
  /// Scratch for RecordSample's suspended-transfer count.
  std::vector<const storage::Transfer*> sample_scratch_;
  // --- Checkpoint bookkeeping ----------------------------------------------
  /// The arrival stream: every submission with its event id, sorted by
  /// (submit time, id). Entries before `next_arrival_` have fired; the one
  /// at `next_arrival_` is the only submission in the event heap.
  struct Arrival {
    sim::EventId event = 0;
    const workload::Job* job = nullptr;
  };
  std::vector<Arrival> arrivals_;
  std::size_t next_arrival_ = 0;
  /// A not-yet-fired backoff scheduling pass (armed by FailJob).
  struct PendingPass {
    sim::EventId event = 0;
    sim::SimTime fire_time = 0.0;
  };
  /// Keyed by an ever-increasing sequence so concurrent backoffs coexist.
  std::map<std::uint64_t, PendingPass> pending_passes_;
  std::uint64_t next_pass_seq_ = 0;
  /// The single pending sampler tick (obs runs only).
  sim::EventId sample_event_ = 0;
  sim::SimTime sample_event_time_ = 0.0;
  bool has_sample_event_ = false;
  /// Lazily built id → job map (restore + duplicate-id validation).
  std::unordered_map<workload::JobId, const workload::Job*> job_index_;
  std::optional<std::uint64_t> config_hash_;
  bool restored_ = false;
  std::string resumed_from_;
  std::uint64_t checkpoints_written_ = 0;
};

std::string FormatIssues(const std::vector<ConfigIssue>& issues) {
  std::string msg = "SimulationConfig validation failed (" +
                    std::to_string(issues.size()) +
                    (issues.size() == 1 ? " issue)" : " issues)");
  for (const ConfigIssue& issue : issues) {
    msg += "\n  " + issue.field + ": " + issue.message;
  }
  return msg;
}

}  // namespace

ConfigValidationError::ConfigValidationError(std::vector<ConfigIssue> issues)
    : std::invalid_argument(FormatIssues(issues)),
      issues_(std::move(issues)) {}

std::vector<ConfigIssue> SimulationConfig::Validate() const {
  std::vector<ConfigIssue> issues;
  auto add = [&issues](const char* field, std::string message) {
    issues.push_back({field, std::move(message)});
  };

  if (machine.nodes_per_midplane <= 0) {
    add("machine.nodes_per_midplane", "must be positive");
  }
  if (machine.midplanes_per_row <= 0) {
    add("machine.midplanes_per_row", "must be positive");
  }
  if (machine.rows <= 0) add("machine.rows", "must be positive");
  if (machine.node_bandwidth_gbps <= 0) {
    add("machine.node_bandwidth_gbps", "must be positive");
  }

  if (storage.max_bandwidth_gbps <= 0) {
    add("storage.max_bandwidth_gbps", "must be positive");
  }

  // The factory registry is the single source of truth for names (it also
  // accepts the lowercase aliases the figure list omits).
  if (!KnownPolicyName(policy)) {
    add("policy", "unknown policy \"" + policy + "\" (known: " +
                      PolicyNamesHelp() + ")");
  }

  if (warmup_fraction < 0 || warmup_fraction >= 1) {
    add("warmup_fraction", "must be in [0, 1)");
  }
  if (cooldown_fraction < 0 || cooldown_fraction >= 1) {
    add("cooldown_fraction", "must be in [0, 1)");
  }
  if (warmup_fraction >= 0 && cooldown_fraction >= 0 &&
      warmup_fraction + cooldown_fraction >= 1) {
    add("warmup_fraction", "warmup + cooldown must leave a stable window");
  }

  if (batch.max_retries < 0) add("batch.max_retries", "must be >= 0");
  if (batch.requeue_backoff_seconds < 0) {
    add("batch.requeue_backoff_seconds", "must be >= 0");
  }
  if (batch.max_backoff_seconds < 0) {
    add("batch.max_backoff_seconds", "must be >= 0");
  }
  if (batch.backoff_jitter_fraction < 0 || batch.backoff_jitter_fraction >= 1) {
    add("batch.backoff_jitter_fraction", "must be in [0, 1)");
  }

  {
    std::string err = transfer_retry.Validate();
    if (!err.empty()) add("transfer_retry", std::move(err));
  }

  if (app_checkpoint.max_defer_seconds < 0) {
    add("app_checkpoint.max_defer_seconds", "must be >= 0");
  }
  if (faults.restart_mode == faults::RestartMode::kRestartFromAppCheckpoint &&
      !app_checkpoint.enabled) {
    add("faults.restart_mode",
        "restart mode app_checkpoint requires app_checkpoint.enabled (the "
        "engine must track flush durability to know where to restart)");
  }

  if (check_invariants && invariant_check_every_events == 0) {
    add("invariant_check_every_events",
        "must be positive when check_invariants is set");
  }

  const storage::BurstBufferConfig& bb = burst_buffer;
  if (bb.capacity_gb < 0) add("burst_buffer.capacity_gb", "must be >= 0");
  if (bb.drain_gbps < 0) add("burst_buffer.drain_gbps", "must be >= 0");
  if (bb.absorb_gbps < 0) add("burst_buffer.absorb_gbps", "must be >= 0");
  if (bb.per_job_quota_gb < 0) {
    add("burst_buffer.per_job_quota_gb", "must be >= 0");
  }
  if (bb.congestion_watermark <= 0 || bb.congestion_watermark > 1) {
    add("burst_buffer.congestion_watermark", "must be in (0, 1]");
  }
  if ((bb.capacity_gb > 0) != (bb.drain_gbps > 0)) {
    add("burst_buffer",
        "capacity_gb and drain_gbps must both be positive to enable the "
        "tier (set both to 0 to disable it)");
  }
  if (bb.enabled() && storage.max_bandwidth_gbps > 0 &&
      bb.drain_gbps >= storage.max_bandwidth_gbps) {
    add("burst_buffer.drain_gbps",
        "drain must stay below storage.max_bandwidth_gbps (the drain is "
        "carved out of the PFS budget)");
  }

  const faults::FaultPlanParams& fp = faults.plan_config;
  if (fp.degraded_fraction < 0 || fp.degraded_fraction >= 1) {
    add("faults.plan_config.degraded_fraction", "must be in [0, 1)");
  }
  if (fp.degradation_factor <= 0 || fp.degradation_factor > 1) {
    add("faults.plan_config.degradation_factor", "must be in (0, 1]");
  }
  if (fp.degraded_window_seconds < 0) {
    add("faults.plan_config.degraded_window_seconds", "must be >= 0");
  }
  if (fp.midplane_outages < 0) {
    add("faults.plan_config.midplane_outages", "must be >= 0");
  }
  if (fp.midplane_outage_seconds < 0) {
    add("faults.plan_config.midplane_outage_seconds", "must be >= 0");
  }
  if (fp.job_kill_probability < 0 || fp.job_kill_probability > 1) {
    add("faults.plan_config.job_kill_probability", "must be in [0, 1]");
  }
  if (fp.bb_faults < 0) add("faults.plan_config.bb_faults", "must be >= 0");
  if (fp.bb_fault_seconds < 0) {
    add("faults.plan_config.bb_fault_seconds", "must be >= 0");
  }
  if (fp.drain_degraded_fraction < 0 || fp.drain_degraded_fraction >= 1) {
    add("faults.plan_config.drain_degraded_fraction", "must be in [0, 1)");
  }
  if (fp.drain_degradation_factor <= 0 || fp.drain_degradation_factor > 1) {
    add("faults.plan_config.drain_degradation_factor", "must be in (0, 1]");
  }
  if (fp.drain_window_seconds < 0) {
    add("faults.plan_config.drain_window_seconds", "must be >= 0");
  }
  if (fp.straggler_probability < 0 || fp.straggler_probability > 1) {
    add("faults.plan_config.straggler_probability", "must be in [0, 1]");
  }
  if (fp.straggler_probability > 0 &&
      (fp.straggler_factor <= 0 || fp.straggler_factor >= 1)) {
    add("faults.plan_config.straggler_factor", "must be in (0, 1)");
  }
  if (!faults.explicit_plan.Empty()) {
    std::string err = faults.explicit_plan.Validate();
    if (!err.empty()) add("faults.explicit_plan", err);
  }
  {
    // Burst-buffer fault windows are meaningless without the tier.
    const bool wants_bb_faults =
        (fp.enabled &&
         (fp.bb_faults > 0 || fp.drain_degraded_fraction > 0)) ||
        !faults.explicit_plan.bb_faults.empty() ||
        !faults.explicit_plan.drain_degradations.empty();
    if (wants_bb_faults && !bb.enabled()) {
      add("faults",
          "burst-buffer fault / drain-degradation windows require the "
          "burst-buffer tier to be enabled");
    }
  }

  if (obs.sample_dt_seconds < 0) {
    add("obs.sample_dt_seconds", "must be >= 0 (0 disables sampling)");
  }

  if (checkpoint.every_sim_seconds < 0) {
    add("checkpoint.every_sim_seconds", "must be >= 0");
  }
  if (checkpoint.every_wall_seconds < 0) {
    add("checkpoint.every_wall_seconds", "must be >= 0");
  }
  if (checkpoint.directory.empty() &&
      (checkpoint.every_sim_seconds > 0 || checkpoint.every_events > 0 ||
       checkpoint.every_wall_seconds > 0)) {
    add("checkpoint.directory",
        "a save trigger is set but no checkpoint directory is configured");
  }
  if (!checkpoint.resume_from.empty() && checkpoint.resume_latest) {
    add("checkpoint.resume_from",
        "resume_from and resume_latest are mutually exclusive");
  }

  return issues;
}

SimulationConfig SimulationConfig::Builder::Build() const {
  std::vector<ConfigIssue> issues = config_.Validate();
  if (!issues.empty()) throw ConfigValidationError(std::move(issues));
  return config_;
}

std::uint64_t SimulationConfigHash(const SimulationConfig& config,
                                   const workload::Workload& jobs) {
  using metrics::FnvMix;
  std::uint64_t h = metrics::kFnvOffset;
  // Machine geometry + link speed.
  h = FnvMix(h, static_cast<std::uint64_t>(config.machine.nodes_per_midplane));
  h = FnvMix(h, static_cast<std::uint64_t>(config.machine.midplanes_per_row));
  h = FnvMix(h, static_cast<std::uint64_t>(config.machine.rows));
  h = FnvMix(h, config.machine.node_bandwidth_gbps);
  // Storage.
  h = FnvMix(h, config.storage.max_bandwidth_gbps);
  h = FnvMix(h, static_cast<std::uint64_t>(config.storage.enforce_capacity));
  // Batch scheduler. incremental_order is deliberately excluded: both order
  // paths produce bit-identical schedules, so checkpoints are
  // interchangeable across the toggle.
  h = FnvMix(h, static_cast<std::uint64_t>(config.batch.order));
  h = FnvMix(h, static_cast<std::uint64_t>(config.batch.easy_backfill));
  h = FnvMix(h, static_cast<std::uint64_t>(config.batch.max_retries));
  h = FnvMix(h, config.batch.requeue_backoff_seconds);
  h = FnvMix(h, config.batch.max_backoff_seconds);
  h = FnvMix(h, config.batch.backoff_jitter_fraction);
  h = FnvMix(h, config.batch.backoff_jitter_seed);
  // Transfer deadlines/retries reshape the event schedule when enabled.
  h = FnvMix(h, config.transfer_retry.timeout_seconds);
  h = FnvMix(h, static_cast<std::uint64_t>(config.transfer_retry.max_retries));
  h = FnvMix(h, config.transfer_retry.backoff_base_seconds);
  h = FnvMix(h, config.transfer_retry.backoff_max_seconds);
  h = FnvMix(h, config.transfer_retry.backoff_jitter_fraction);
  h = FnvMix(h, config.transfer_retry.jitter_seed);
  // App-checkpoint flush scheduling: deferral decisions reshape the event
  // schedule, and the enabled flag changes the checkpoint layout.
  h = FnvMix(h, static_cast<std::uint64_t>(config.app_checkpoint.enabled));
  h = FnvMix(h, config.app_checkpoint.max_defer_seconds);
  // check_invariants is deliberately excluded: the checker is read-only.
  // Policy + engine switches that shape the schedule.
  h = MixStr(h, config.policy);
  h = FnvMix(h, static_cast<std::uint64_t>(config.track_bandwidth));
  h = FnvMix(h, static_cast<std::uint64_t>(config.enforce_walltime));
  // Burst buffer. The congestion watermark is deliberately excluded: it
  // only shapes observability output, never the schedule.
  h = FnvMix(h, config.burst_buffer.capacity_gb);
  h = FnvMix(h, config.burst_buffer.drain_gbps);
  h = FnvMix(h, config.burst_buffer.absorb_gbps);
  h = FnvMix(h, config.burst_buffer.per_job_quota_gb);
  // Faults: generation parameters and the explicit plan both pin the
  // schedule.
  const faults::FaultPlanParams& fp = config.faults.plan_config;
  h = FnvMix(h, static_cast<std::uint64_t>(fp.enabled));
  h = FnvMix(h, fp.seed);
  h = FnvMix(h, fp.degraded_fraction);
  h = FnvMix(h, fp.degradation_factor);
  h = FnvMix(h, fp.degraded_window_seconds);
  h = FnvMix(h, static_cast<std::uint64_t>(fp.midplane_outages));
  h = FnvMix(h, fp.midplane_outage_seconds);
  h = FnvMix(h, fp.job_kill_probability);
  h = FnvMix(h, static_cast<std::uint64_t>(fp.bb_faults));
  h = FnvMix(h, fp.bb_fault_seconds);
  h = FnvMix(h, static_cast<std::uint64_t>(fp.bb_fault_lose_data));
  h = FnvMix(h, fp.drain_degraded_fraction);
  h = FnvMix(h, fp.drain_degradation_factor);
  h = FnvMix(h, fp.drain_window_seconds);
  h = FnvMix(h, fp.straggler_probability);
  h = FnvMix(h, fp.straggler_factor);
  const faults::FaultPlan& plan = config.faults.explicit_plan;
  h = FnvMix(h, static_cast<std::uint64_t>(plan.degradations.size()));
  for (const faults::StorageDegradation& d : plan.degradations) {
    h = FnvMix(h, d.start);
    h = FnvMix(h, d.end);
    h = FnvMix(h, d.bandwidth_factor);
  }
  h = FnvMix(h, static_cast<std::uint64_t>(plan.outages.size()));
  for (const faults::MidplaneOutage& o : plan.outages) {
    h = FnvMix(h, o.start);
    h = FnvMix(h, o.end);
    h = FnvMix(h, static_cast<std::uint64_t>(o.midplane));
  }
  h = FnvMix(h, plan.job_kill_probability);
  h = FnvMix(h, plan.kill_seed);
  h = FnvMix(h, static_cast<std::uint64_t>(plan.bb_faults.size()));
  for (const faults::BurstBufferFault& f : plan.bb_faults) {
    h = FnvMix(h, f.start);
    h = FnvMix(h, f.end);
    h = FnvMix(h, static_cast<std::uint64_t>(f.lose_data));
  }
  h = FnvMix(h, static_cast<std::uint64_t>(plan.drain_degradations.size()));
  for (const faults::DrainDegradation& d : plan.drain_degradations) {
    h = FnvMix(h, d.start);
    h = FnvMix(h, d.end);
    h = FnvMix(h, d.drain_factor);
  }
  h = FnvMix(h, plan.straggler_probability);
  h = FnvMix(h, plan.straggler_factor);
  h = FnvMix(h, plan.straggler_seed);
  h = FnvMix(h, static_cast<std::uint64_t>(config.faults.restart_mode));
  // Observability: sampler ticks consume event ids, so sampling must match.
  h = FnvMix(h, static_cast<std::uint64_t>(config.obs.enabled));
  h = FnvMix(h, config.obs.enabled ? config.obs.sample_dt_seconds : 0.0);
  // The workload itself.
  h = FnvMix(h, workload::WorkloadFingerprint(jobs));
  return h;
}

SimulationResult RunSimulation(const SimulationConfig& config,
                               const workload::Workload& jobs,
                               EventLog* event_log, obs::Hub* hub) {
  std::vector<ConfigIssue> issues = config.Validate();
  if (!issues.empty()) throw ConfigValidationError(std::move(issues));
  Engine engine(config, jobs, event_log, hub);
  const ckpt::Options& opt = config.checkpoint;
  std::string resume_path = opt.resume_from;
  if (resume_path.empty() && opt.resume_latest && !opt.directory.empty()) {
    resume_path = ckpt::FindLatestValid(
        opt.directory, SimulationConfigHash(config, jobs), nullptr);
  }
  if (!resume_path.empty()) {
    engine.RestoreFromFile(resume_path);
  }
  return engine.Run();
}

}  // namespace iosched::core
