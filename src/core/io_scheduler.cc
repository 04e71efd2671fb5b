#include "core/io_scheduler.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/hub.h"
#include "util/units.h"

namespace iosched::core {

IoScheduler::IoScheduler(sim::Simulator& simulator,
                         storage::StorageModel& storage,
                         double node_bandwidth_gbps,
                         std::unique_ptr<IoPolicy> policy,
                         CompletionCallback on_complete)
    : simulator_(simulator),
      storage_(storage),
      node_bandwidth_gbps_(node_bandwidth_gbps),
      policy_(std::move(policy)),
      on_complete_(std::move(on_complete)) {
  if (node_bandwidth_gbps_ <= 0) {
    throw std::invalid_argument("IoScheduler: non-positive node bandwidth");
  }
  if (!policy_) throw std::invalid_argument("IoScheduler: null policy");
  if (!on_complete_) throw std::invalid_argument("IoScheduler: null callback");
  policy_->BindInputs(&cycle_inputs_);
  storage_.SetBandwidthChangeListener(
      [this](double new_bwmax, sim::SimTime now) {
        OnBandwidthChange(new_bwmax, now);
      });
}

IoScheduler::~IoScheduler() {
  storage_.SetBandwidthChangeListener(nullptr);
}

namespace {
/// Lookup with the scheduler's historical error message (the map's .at()
/// used to serve this role).
JobContext& MustFind(JobStore& jobs, workload::JobId id) {
  JobContext* ctx = jobs.Find(id);
  if (ctx == nullptr) {
    throw std::logic_error("IoScheduler: job " + std::to_string(id) +
                           " not registered");
  }
  return *ctx;
}
}  // namespace

void IoScheduler::RegisterJob(const workload::Job& job,
                              sim::SimTime start_time) {
  jobs_.Add(job.id, JobContext{&job, start_time, 0.0, 0.0});
}

void IoScheduler::UnregisterJob(workload::JobId id) {
  if (storage_.Has(id)) {
    throw std::logic_error("IoScheduler: job " + std::to_string(id) +
                           " still has an in-flight transfer");
  }
  if (pending_retries_.count(id) != 0) {
    throw std::logic_error("IoScheduler: job " + std::to_string(id) +
                           " still has a pending transfer retry");
  }
  if (deferred_flushes_.count(id) != 0) {
    throw std::logic_error("IoScheduler: job " + std::to_string(id) +
                           " still has a deferred flush");
  }
  jobs_.Remove(id);
}

void IoScheduler::AddCompletedCompute(workload::JobId id, double seconds) {
  MustFind(jobs_, id).completed_compute_seconds += seconds;
}

void IoScheduler::SubmitRequest(workload::JobId id, double volume_gb,
                                sim::SimTime now, bool is_flush) {
  const JobContext& ctx = MustFind(jobs_, id);
  if (volume_gb <= 0) {
    throw std::invalid_argument("IoScheduler: non-positive volume");
  }
  ++submitted_requests_;
  if (hub_ != nullptr) {
    hub_->io_requests->Inc();
    hub_->io_request_gb->Observe(volume_gb);
  }
  const workload::Job& job = *ctx.job;
  double full_rate = job.FullIoRate(node_bandwidth_gbps_);
  if (burst_buffer_ != nullptr) {
    burst_buffer_->AdvanceTo(now);
    if (burst_buffer_->CanAbsorb(id, volume_gb)) {
      // Absorbed: the write lands in the buffer at the absorb-tier rate
      // (the link rate unless `absorb_gbps` caps it), never touching the
      // policy-managed storage path. The drain it triggers reduces the
      // policy's usable bandwidth, so run a cycle. A straggling absorb
      // stretches the duration; when the stretch would blow the transfer
      // deadline the request spills to the direct path instead, where the
      // timeout/retry machinery can act on it.
      double factor = straggler_draw_ ? straggler_draw_() : 1.0;
      double duration = volume_gb / burst_buffer_->AbsorbRate(full_rate);
      if (factor < 1.0) duration /= factor;
      if (retry_config_.enabled() && factor < 1.0 &&
          duration > retry_config_.timeout_seconds) {
        ++straggler_spills_;
        burst_buffer_->RecordSpill();
        if (hub_ != nullptr) {
          hub_->io_straggler_spills->Inc();
          hub_->bb_spilled_requests->Inc();
        }
        BeginDirectTransfer(id, volume_gb, now, /*retries=*/0);
        Reschedule(now);
        return;
      }
      burst_buffer_->Absorb(id, volume_gb);
      if (hub_ != nullptr) hub_->bb_absorbed_requests->Inc();
      sim::EventId event =
          simulator_.ScheduleAfter(duration, AbsorbedAction(id));
      // Durability threshold: the FIFO drain must move everything queued up
      // to and including this request before its bytes are on the PFS.
      double durable_gb =
          burst_buffer_->total_drained_gb() + burst_buffer_->queued_gb();
      absorbed_events_[id] =
          AbsorbedEvent{event, now + duration, duration, volume_gb,
                        durable_gb};
      Reschedule(now);
      return;
    }
    // Spill: no room (or over quota or faulted) — the request takes the
    // direct path.
    burst_buffer_->RecordSpill();
    if (hub_ != nullptr) hub_->bb_spilled_requests->Inc();
  }
  if (flush_config_.enabled && is_flush &&
      flush_config_.max_defer_seconds > 0) {
    // A checkpoint flush headed for the direct path is deferrable: ask the
    // policy whether to bench it while the channel is congested.
    double usable = storage_.config().max_bandwidth_gbps;
    if (burst_buffer_ != nullptr) {
      usable = std::max(0.0, usable - burst_buffer_->CurrentDrainRate());
    }
    FlushView view{id, volume_gb, full_rate, now,
                   now + flush_config_.max_defer_seconds};
    if (policy_->DeferFlush(view, storage_.TotalDemand(), usable, now)) {
      ParkFlush(id, volume_gb, now);
      Reschedule(now);
      return;
    }
  }
  BeginDirectTransfer(id, volume_gb, now, /*retries=*/0);
  Reschedule(now);
}

void IoScheduler::ParkFlush(workload::JobId id, double volume_gb,
                            sim::SimTime now) {
  sim::SimTime deadline = now + flush_config_.max_defer_seconds;
  sim::EventId event = simulator_.ScheduleAt(deadline, FlushReleaseAction(id));
  deferred_flushes_[id] = DeferredFlush{event, deadline, now, volume_gb};
  deferred_backlog_gb_ += volume_gb;
  ++flush_deferrals_;
  if (hub_ != nullptr) hub_->tracer().Instant(
      obs::kStorageTrack, "flush_deferred", now, volume_gb);
}

std::function<void()> IoScheduler::FlushReleaseAction(workload::JobId id) {
  return [this, id] {
    auto it = deferred_flushes_.find(id);
    if (it == deferred_flushes_.end()) return;
    double volume = it->second.volume_gb;
    deferred_backlog_gb_ -= volume;
    deferred_flushes_.erase(it);
    if (deferred_flushes_.empty()) deferred_backlog_gb_ = 0.0;
    ++forced_flush_releases_;
    sim::SimTime now = simulator_.Now();
    BeginDirectTransfer(id, volume, now, /*retries=*/0);
    Reschedule(now);
  };
}

void IoScheduler::ReleaseDeferredFlushes(sim::SimTime now) {
  if (releasing_flushes_) return;
  releasing_flushes_ = true;
  std::size_t released = 0;
  for (;;) {
    // Pick one release per pass: each release changes the demand the
    // policy's answer depends on, so re-query after every start.
    double usable = storage_.config().max_bandwidth_gbps;
    if (burst_buffer_ != nullptr) {
      usable = std::max(0.0, usable - burst_buffer_->CurrentDrainRate());
    }
    double demand = storage_.TotalDemand();
    workload::JobId release_id = 0;
    double release_volume = 0.0;
    bool forced = false;
    bool found = false;
    for (const auto& [id, df] : deferred_flushes_) {
      if (now >= df.fire_time - 1e-9) {
        // Past the deadline at this very timestamp; don't wait for the
        // forced-release event to drain from the queue.
        release_id = id;
        release_volume = df.volume_gb;
        forced = true;
        found = true;
        break;
      }
      const JobContext& ctx = MustFind(jobs_, id);
      FlushView view{id, df.volume_gb,
                     ctx.job->FullIoRate(node_bandwidth_gbps_),
                     df.submit_time, df.fire_time};
      if (!policy_->DeferFlush(view, demand, usable, now)) {
        release_id = id;
        release_volume = df.volume_gb;
        found = true;
        break;
      }
    }
    if (!found) break;
    auto it = deferred_flushes_.find(release_id);
    simulator_.Cancel(it->second.event);
    deferred_backlog_gb_ -= it->second.volume_gb;
    deferred_flushes_.erase(it);
    if (deferred_flushes_.empty()) deferred_backlog_gb_ = 0.0;
    if (forced) ++forced_flush_releases_;
    BeginDirectTransfer(release_id, release_volume, now, /*retries=*/0);
    ++released;
  }
  if (released > 0) {
    // Grant rates to the newly released transfers (the sweep guard keeps
    // this nested cycle from re-entering the sweep).
    Reschedule(now);
  }
  releasing_flushes_ = false;
}

void IoScheduler::ConfigureFlushScheduling(const FlushDeferralConfig& config) {
  if (config.max_defer_seconds < 0) {
    throw std::invalid_argument(
        "IoScheduler::ConfigureFlushScheduling: max_defer_seconds must be "
        ">= 0");
  }
  flush_config_ = config;
}

double IoScheduler::TotalDrainedGb(sim::SimTime now) {
  if (burst_buffer_ == nullptr) return 0.0;
  burst_buffer_->AdvanceTo(now);
  return burst_buffer_->total_drained_gb();
}

void IoScheduler::BeginDirectTransfer(workload::JobId id, double volume_gb,
                                      sim::SimTime now, int retries) {
  std::uint32_t slot = jobs_.SlotOf(id);
  if (slot == JobStore::kInvalidSlot) {
    throw std::logic_error("IoScheduler: job " + std::to_string(id) +
                           " not registered");
  }
  const workload::Job& job = *jobs_.At(slot).job;
  double full_rate = job.FullIoRate(node_bandwidth_gbps_);
  double factor = straggler_draw_ ? straggler_draw_() : 1.0;
  storage_.Begin(id, job.nodes, full_rate, volume_gb, now, factor);
  // Cache the job-context slot on the transfer: the slot is stable while
  // the job stays registered, so every later view build is hash-free.
  storage_.SetUserSlot(id, slot);
  if (retry_config_.enabled() && retries < retry_config_.max_retries) {
    sim::EventId event = simulator_.ScheduleAfter(
        retry_config_.timeout_seconds, DeadlineAction(id));
    deadline_events_[id] = DeadlineEvent{
        event, now + retry_config_.timeout_seconds, retries};
  }
}

void IoScheduler::ForceReschedule(sim::SimTime now) {
  if (hub_ != nullptr) hub_->forced_reschedules->Inc();
  Reschedule(now);
}

void IoScheduler::OnBandwidthChange(double new_bwmax_gbps, sim::SimTime now) {
  if (hub_ != nullptr) {
    hub_->tracer().Instant(obs::kStorageTrack, "bwmax_change", now,
                           new_bwmax_gbps);
    hub_->forced_reschedules->Inc();
  }
  Reschedule(now);
}

void IoScheduler::SetObs(obs::Hub* hub) {
  hub_ = hub;
  policy_->BindObs(hub);
}

void IoScheduler::FlushObs(sim::SimTime now) {
  if (hub_ != nullptr && congested_) {
    hub_->tracer().Span(obs::kStorageTrack, "congestion", congestion_start_,
                        now);
  }
  congested_ = false;
  if (hub_ != nullptr && bb_congested_) {
    hub_->tracer().Span(obs::kStorageTrack, "bb_congestion",
                        bb_congestion_start_, now);
  }
  bb_congested_ = false;
}

void IoScheduler::AbortRequest(workload::JobId id, sim::SimTime now) {
  auto deferred = deferred_flushes_.find(id);
  if (deferred != deferred_flushes_.end()) {
    // The flush was parked on the deferral bench; it holds no transfer.
    simulator_.Cancel(deferred->second.event);
    deferred_backlog_gb_ -= deferred->second.volume_gb;
    deferred_flushes_.erase(deferred);
    if (deferred_flushes_.empty()) deferred_backlog_gb_ = 0.0;
    return;
  }
  auto absorbed = absorbed_events_.find(id);
  if (absorbed != absorbed_events_.end()) {
    // The request was absorbed by the burst buffer; its completion event
    // must not fire after the job is gone.
    simulator_.Cancel(absorbed->second.event);
    absorbed_events_.erase(absorbed);
    return;
  }
  auto retry = pending_retries_.find(id);
  if (retry != pending_retries_.end()) {
    // The job was waiting out a retry backoff; it holds no transfer.
    simulator_.Cancel(retry->second.event);
    pending_retries_.erase(retry);
    return;
  }
  auto deadline = deadline_events_.find(id);
  if (deadline != deadline_events_.end()) {
    simulator_.Cancel(deadline->second.event);
    deadline_events_.erase(deadline);
  }
  if (!storage_.Has(id)) return;
  storage_.AdvanceTo(now);
  storage_.Abort(id);
  Reschedule(now);
}

std::vector<IoJobView> IoScheduler::BuildViews(sim::SimTime now) const {
  (void)now;
  std::vector<IoJobView> views;
  FillViews(views);
  return views;
}

void IoScheduler::FillViews(std::vector<IoJobView>& views) const {
  views.clear();
  // Column walk in arrival order: the transfer carries its job-context slot
  // (cached at Begin), so building the views touches no hash table.
  const storage::StorageModel::ActiveColumns cols = storage_.Columns();
  views.reserve(cols.arrival_order.size());
  for (std::size_t slot : cols.arrival_order) {
    std::uint32_t user = cols.user_slots[slot];
    if (user == storage::StorageModel::kNoUserSlot) {
      throw std::logic_error("IoScheduler: transfer for unregistered job " +
                             std::to_string(cols.job_ids[slot]));
    }
    const JobContext& ctx = jobs_.At(user);
    IoJobView v;
    v.id = cols.job_ids[slot];
    v.nodes = cols.nodes[slot];
    v.full_rate_gbps = cols.full_rates[slot];
    v.volume_gb = cols.volumes[slot];
    v.transferred_gb = cols.transferred[slot];
    v.request_arrival = cols.arrivals[slot];
    v.job_start = ctx.start_time;
    v.completed_compute_seconds = ctx.completed_compute_seconds;
    v.completed_io_seconds = ctx.completed_io_seconds;
    views.push_back(v);
  }
}

void IoScheduler::Reschedule(sim::SimTime now) {
  storage_.AdvanceTo(now);
  ++cycles_;

  // The burst-buffer drain has priority on the file servers: it shrinks the
  // bandwidth the policy may grant to direct traffic until the queue empties
  // (at which point a scheduled cycle restores the full BWmax).
  double usable_bandwidth = storage_.config().max_bandwidth_gbps;
  if (burst_buffer_ != nullptr) {
    burst_buffer_->AdvanceTo(now);
    usable_bandwidth = std::max(
        0.0, usable_bandwidth - burst_buffer_->CurrentDrainRate());
    if (has_drain_event_) {
      simulator_.Cancel(drain_event_);
      has_drain_event_ = false;
    }
    if (burst_buffer_->queued_gb() > 0) {
      // Keep the wakeup strictly in the future even when the remaining
      // drain time is below the clock's resolution at this timestamp.
      sim::SimTime wake =
          std::max(burst_buffer_->DrainEmptyTime(), now + 1e-4);
      drain_event_ = simulator_.ScheduleAt(wake, [this] {
        has_drain_event_ = false;
        Reschedule(simulator_.Now());
      });
      has_drain_event_ = true;
      drain_event_time_ = wake;
    }
  }
  RefreshCycleInputs();

  FillViews(views_scratch_);
  const std::vector<IoJobView>& views = views_scratch_;
  std::vector<RateGrant> grants =
      policy_->Assign(views, usable_bandwidth, now);
  ValidateGrants(views, grants);
  // Views were built in arrival order, so grant i addresses the slot at
  // arrival_order[i] whenever the policy preserved positions (they all do);
  // the id check falls back to the hash probe if one ever reorders.
  const storage::StorageModel::ActiveColumns cols = storage_.Columns();
  for (std::size_t i = 0; i < grants.size(); ++i) {
    const RateGrant& g = grants[i];
    if (i < cols.arrival_order.size() &&
        cols.job_ids[cols.arrival_order[i]] == g.id) {
      storage_.SetRateAtSlot(cols.arrival_order[i], g.rate_gbps);
    } else {
      storage_.SetRate(g.id, g.rate_gbps);
    }
  }
  // Physics check: even the adaptive policy only over-admits *demand*; the
  // granted rates must always fit the disks.
  storage_.ValidateAssignment();

  if (bandwidth_tracker_ != nullptr) {
    metrics::BandwidthSample sample;
    sample.time = now;
    for (const IoJobView& v : views) sample.demand_gbps += v.full_rate_gbps;
    sample.active_requests = static_cast<int>(views.size());
    for (const RateGrant& g : grants) {
      sample.granted_gbps += g.rate_gbps;
      if (g.rate_gbps <= 0) ++sample.suspended_requests;
    }
    bandwidth_tracker_->Record(sample);
  }

  if (hub_ != nullptr) {
    hub_->io_cycles->Inc();
    double demand = 0.0;
    for (const IoJobView& v : views) demand += v.full_rate_gbps;
    double granted = 0.0;
    std::uint64_t throttled = 0;
    for (const RateGrant& g : grants) {
      granted += g.rate_gbps;
      if (g.rate_gbps <= 0) ++throttled;
    }
    hub_->throttled_grants->Inc(throttled);
    obs::Tracer& tracer = hub_->tracer();
    tracer.Counter(obs::kStorageTrack, "demand_gbps", now, demand);
    tracer.Counter(obs::kStorageTrack, "granted_gbps", now, granted);
    // A congestion episode spans consecutive congested cycles; the span is
    // emitted when demand drops back under the usable bandwidth (or at
    // FlushObs if the run ends congested).
    bool congested = demand > usable_bandwidth + util::kVolumeEpsilon;
    if (congested) {
      hub_->congested_cycles->Inc();
      if (!congested_) {
        congested_ = true;
        congestion_start_ = now;
      }
    } else if (congested_) {
      congested_ = false;
      tracer.Span(obs::kStorageTrack, "congestion", congestion_start_, now);
    }
    if (burst_buffer_ != nullptr) {
      tracer.Counter(obs::kStorageTrack, "bb_queued_gb", now,
                     burst_buffer_->queued_gb());
      tracer.Counter(obs::kStorageTrack, "bb_free_gb", now,
                     burst_buffer_->free_gb());
      // BB-tier congestion episode: occupancy above the watermark.
      bool bb_congested = burst_buffer_->Congested();
      if (bb_congested) {
        hub_->bb_congested_cycles->Inc();
        if (!bb_congested_) {
          bb_congested_ = true;
          bb_congestion_start_ = now;
        }
      } else if (bb_congested_) {
        bb_congested_ = false;
        tracer.Span(obs::kStorageTrack, "bb_congestion", bb_congestion_start_,
                    now);
      }
    }
  }

  if (has_pending_event_) {
    simulator_.Cancel(pending_event_);
    has_pending_event_ = false;
  }
  auto next = storage_.NextCompletion();
  if (next) {
    pending_event_ =
        simulator_.ScheduleAt(next->first, [this] { OnCompletionEvent(); });
    has_pending_event_ = true;
    pending_event_time_ = next->first;
  }

  // Benched checkpoint flushes get a fresh release query every cycle: the
  // congestion that parked them may just have cleared.
  if (flush_config_.enabled && !deferred_flushes_.empty()) {
    ReleaseDeferredFlushes(now);
  }
}

void IoScheduler::RefreshCycleInputs() {
  if (burst_buffer_ != nullptr) {
    // Tier snapshot for tier-aware policies (the buffer was already settled
    // to `now` by the caller).
    TierState& tiers = cycle_inputs_.tiers;
    tiers.bb_enabled = true;
    tiers.bb_capacity_gb = burst_buffer_->config().capacity_gb;
    tiers.bb_queued_gb = burst_buffer_->queued_gb();
    tiers.drain_gbps = burst_buffer_->CurrentDrainRate();
    tiers.bb_congested = burst_buffer_->Congested();
    tiers.bb_faulted = burst_buffer_->faulted();
    tiers.drain_factor = burst_buffer_->drain_factor();
  }
  if (flush_config_.enabled) {
    cycle_inputs_.flush_backlog_gb = deferred_backlog_gb_;
    cycle_inputs_.flush_backlog_count = deferred_flushes_.size();
  }
}

std::function<void()> IoScheduler::AbsorbedAction(workload::JobId id) {
  return [this, id] {
    // Every path that drops the entry also cancels this event.
    auto it = absorbed_events_.find(id);
    if (it == absorbed_events_.end()) {
      throw std::logic_error(
          "IoScheduler: absorbed completion without a pending entry for job " +
          std::to_string(id));
    }
    // A buffer-absorbed request runs contention-free at the absorb-tier
    // rate: its completed uncongested time equals its actual time.
    IoCompletionInfo info;
    info.absorbed = true;
    info.durable_drain_gb = it->second.durable_gb;
    double duration = it->second.duration;
    absorbed_events_.erase(it);
    JobContext& ctx = MustFind(jobs_, id);
    ctx.completed_io_seconds += duration;
    on_complete_(id, simulator_.Now(), info);
  };
}

std::string TransferRetryConfig::Validate() const {
  if (timeout_seconds < 0) return "timeout_seconds must be >= 0";
  if (max_retries < 0) return "max_retries must be >= 0";
  if (backoff_base_seconds <= 0) return "backoff_base_seconds must be > 0";
  if (backoff_max_seconds < backoff_base_seconds) {
    return "backoff_max_seconds must be >= backoff_base_seconds";
  }
  if (backoff_jitter_fraction < 0 || backoff_jitter_fraction >= 1.0) {
    return "backoff_jitter_fraction must be in [0, 1)";
  }
  return "";
}

void IoScheduler::SetRetryConfig(const TransferRetryConfig& config) {
  std::string err = config.Validate();
  if (!err.empty()) {
    throw std::invalid_argument("IoScheduler::SetRetryConfig: " + err);
  }
  retry_config_ = config;
  jitter_rng_ = util::Rng(config.jitter_seed, /*stream=*/31);
}

double IoScheduler::BackoffDelay(int retries) {
  // Multiply-until-clamped instead of pow(): at high retry counts repeated
  // doubling would overflow to inf before a final min() could clamp it.
  double backoff = retry_config_.backoff_base_seconds;
  for (int i = 0; i < retries && backoff < retry_config_.backoff_max_seconds;
       ++i) {
    backoff *= 2.0;
  }
  backoff = std::min(backoff, retry_config_.backoff_max_seconds);
  if (retry_config_.backoff_jitter_fraction > 0) {
    backoff *= 1.0 + retry_config_.backoff_jitter_fraction *
                         jitter_rng_.Uniform(-1.0, 1.0);
  }
  return std::max(backoff, 1e-3);
}

std::function<void()> IoScheduler::DeadlineAction(workload::JobId id) {
  return [this, id] { OnTransferDeadline(id); };
}

std::function<void()> IoScheduler::RetryAction(workload::JobId id) {
  return [this, id] { OnTransferRetry(id); };
}

void IoScheduler::OnTransferDeadline(workload::JobId id) {
  auto it = deadline_events_.find(id);
  if (it == deadline_events_.end()) return;
  int retries = it->second.retries;
  deadline_events_.erase(it);
  if (!storage_.Has(id)) return;
  sim::SimTime now = simulator_.Now();
  storage_.AdvanceTo(now);
  const storage::Transfer& t = storage_.Get(id);
  if (t.Complete()) {
    // The completion event shares this timestamp; let it finish the job.
    return;
  }
  // Keep the progress: credit the moved volume's uncongested equivalent and
  // resubmit only the remainder after the backoff.
  double remaining = t.RemainingGb();
  MustFind(jobs_, id).completed_io_seconds += t.transferred_gb / t.full_rate_gbps;
  storage_.Abort(id);
  ++transfer_timeouts_;
  if (hub_ != nullptr) hub_->io_transfer_timeouts->Inc();
  double delay = BackoffDelay(retries);
  sim::EventId event = simulator_.ScheduleAfter(delay, RetryAction(id));
  pending_retries_[id] =
      PendingRetry{event, now + delay, remaining, retries + 1};
  Reschedule(now);
}

void IoScheduler::OnTransferRetry(workload::JobId id) {
  auto it = pending_retries_.find(id);
  if (it == pending_retries_.end()) return;
  PendingRetry retry = it->second;
  pending_retries_.erase(it);
  sim::SimTime now = simulator_.Now();
  ++transfer_retries_;
  if (hub_ != nullptr) hub_->io_transfer_retries->Inc();
  // A fresh attempt draws a fresh straggler factor: a transient straggler
  // window clears on retry, a persistent one times out again until the
  // budget is spent and the attempt runs unwatched.
  BeginDirectTransfer(id, retry.remaining_gb, now, retry.retries);
  Reschedule(now);
}

void IoScheduler::OnBurstBufferFault(bool faulted, bool lose_data,
                                     sim::SimTime now) {
  if (burst_buffer_ == nullptr) {
    throw std::logic_error(
        "IoScheduler::OnBurstBufferFault without an attached buffer");
  }
  burst_buffer_->AdvanceTo(now);
  burst_buffer_->SetFaulted(faulted);
  if (faulted && lose_data) {
    burst_buffer_->DropBufferedData();
    // Every in-flight absorbed request lost its staged data: cancel its
    // completion and re-flush the full volume over the direct path (in job
    // order, so the straggler draw sequence is deterministic).
    std::vector<workload::JobId> ids;
    ids.reserve(absorbed_events_.size());
    for (const auto& [id, _] : absorbed_events_) ids.push_back(id);
    std::sort(ids.begin(), ids.end());
    for (workload::JobId id : ids) {
      const AbsorbedEvent& ab = absorbed_events_.at(id);
      simulator_.Cancel(ab.event);
      double volume = ab.volume_gb;
      absorbed_events_.erase(id);
      ++reflushed_requests_;
      if (hub_ != nullptr) hub_->bb_reflushed_requests->Inc();
      BeginDirectTransfer(id, volume, now, /*retries=*/0);
    }
  }
  Reschedule(now);
}

void IoScheduler::OnDrainFactorChange(double factor, sim::SimTime now) {
  if (burst_buffer_ == nullptr) {
    throw std::logic_error(
        "IoScheduler::OnDrainFactorChange without an attached buffer");
  }
  // Settle the backlog at the old rate before the factor applies, then
  // re-plan: the drain wakeup and the usable bandwidth both move.
  burst_buffer_->AdvanceTo(now);
  burst_buffer_->SetDrainFactor(factor);
  Reschedule(now);
}

namespace {

// The last cycle's CycleInputs snapshot. DeferFlush reads it between
// cycles, and it cannot be recomputed from the restored state (the buffer
// has moved on since the cycle that took it), so it is checkpointed whole.
void SaveCycleInputs(ckpt::Writer& w, const CycleInputs& in) {
  const TierState& t = in.tiers;
  w.Bool(t.bb_enabled);
  w.F64(t.bb_capacity_gb);
  w.F64(t.bb_queued_gb);
  w.F64(t.drain_gbps);
  w.Bool(t.bb_congested);
  w.Bool(t.bb_faulted);
  w.F64(t.drain_factor);
  w.F64(in.flush_backlog_gb);
  w.U64(in.flush_backlog_count);
}

CycleInputs RestoreCycleInputs(ckpt::Reader& r) {
  CycleInputs in;
  TierState& t = in.tiers;
  t.bb_enabled = r.Bool();
  t.bb_capacity_gb = r.F64();
  t.bb_queued_gb = r.F64();
  t.drain_gbps = r.F64();
  t.bb_congested = r.Bool();
  t.bb_faulted = r.Bool();
  t.drain_factor = r.F64();
  in.flush_backlog_gb = r.F64();
  in.flush_backlog_count = static_cast<std::size_t>(r.U64());
  return in;
}

}  // namespace

void IoScheduler::SaveState(ckpt::Writer& w) const {
  std::vector<workload::JobId> ids;
  jobs_.SortedIds(ids);
  w.U32(static_cast<std::uint32_t>(ids.size()));
  for (workload::JobId id : ids) {
    const JobContext& ctx = *jobs_.Find(id);
    w.I64(id);
    w.F64(ctx.start_time);
    w.F64(ctx.completed_compute_seconds);
    w.F64(ctx.completed_io_seconds);
  }
  w.Bool(has_pending_event_);
  if (has_pending_event_) {
    w.U64(pending_event_);
    w.F64(pending_event_time_);
  }
  w.Bool(has_drain_event_);
  if (has_drain_event_) {
    w.U64(drain_event_);
    w.F64(drain_event_time_);
  }
  w.U64(cycles_);
  w.U64(submitted_requests_);
  w.Bool(congested_);
  w.F64(congestion_start_);
  w.Bool(bb_congested_);
  w.F64(bb_congestion_start_);
  ids.clear();
  ids.reserve(absorbed_events_.size());
  for (const auto& [id, _] : absorbed_events_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  w.U32(static_cast<std::uint32_t>(ids.size()));
  for (workload::JobId id : ids) {
    const AbsorbedEvent& ab = absorbed_events_.at(id);
    w.I64(id);
    w.U64(ab.event);
    w.F64(ab.fire_time);
    w.F64(ab.duration);
    w.F64(ab.volume_gb);
    w.F64(ab.durable_gb);
  }
  // Deadline/retry state (appended so the layout above is unchanged).
  util::Rng::State jitter = jitter_rng_.SaveState();
  w.U64(jitter.engine.state);
  w.U64(jitter.engine.inc);
  w.Bool(jitter.has_spare);
  w.F64(jitter.spare);
  ids.clear();
  ids.reserve(deadline_events_.size());
  for (const auto& [id, _] : deadline_events_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  w.U32(static_cast<std::uint32_t>(ids.size()));
  for (workload::JobId id : ids) {
    const DeadlineEvent& dl = deadline_events_.at(id);
    w.I64(id);
    w.U64(dl.event);
    w.F64(dl.fire_time);
    w.I64(dl.retries);
  }
  ids.clear();
  ids.reserve(pending_retries_.size());
  for (const auto& [id, _] : pending_retries_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  w.U32(static_cast<std::uint32_t>(ids.size()));
  for (workload::JobId id : ids) {
    const PendingRetry& pr = pending_retries_.at(id);
    w.I64(id);
    w.U64(pr.event);
    w.F64(pr.fire_time);
    w.F64(pr.remaining_gb);
    w.I64(pr.retries);
  }
  w.U64(transfer_timeouts_);
  w.U64(transfer_retries_);
  w.U64(straggler_spills_);
  w.U64(reflushed_requests_);
  // Deferred-flush state (appended, gated on the feature so checkpoint
  // streams from flush-unaware runs stay byte-stable).
  w.Bool(flush_config_.enabled);
  if (flush_config_.enabled) {
    w.U32(static_cast<std::uint32_t>(deferred_flushes_.size()));
    for (const auto& [id, df] : deferred_flushes_) {
      w.I64(id);
      w.U64(df.event);
      w.F64(df.fire_time);
      w.F64(df.submit_time);
      w.F64(df.volume_gb);
    }
    w.U64(flush_deferrals_);
    w.U64(forced_flush_releases_);
  }
  SaveCycleInputs(w, cycle_inputs_);
}

void IoScheduler::RestoreState(
    ckpt::Reader& r,
    const std::function<const workload::Job*(workload::JobId)>& resolve) {
  jobs_.Clear();
  absorbed_events_.clear();
  deadline_events_.clear();
  pending_retries_.clear();
  deferred_flushes_.clear();
  deferred_backlog_gb_ = 0.0;
  std::uint32_t job_count = r.U32();
  for (std::uint32_t i = 0; i < job_count; ++i) {
    workload::JobId id = r.I64();
    const workload::Job* job = resolve(id);
    if (job == nullptr) {
      throw std::runtime_error(
          "IoScheduler::RestoreState: checkpoint references job " +
          std::to_string(id) + " absent from the workload");
    }
    JobContext ctx;
    ctx.job = job;
    ctx.start_time = r.F64();
    ctx.completed_compute_seconds = r.F64();
    ctx.completed_io_seconds = r.F64();
    jobs_.Add(id, ctx);
  }
  has_pending_event_ = r.Bool();
  if (has_pending_event_) {
    pending_event_ = r.U64();
    pending_event_time_ = r.F64();
    simulator_.RestoreEvent(pending_event_time_, pending_event_,
                            [this] { OnCompletionEvent(); });
  }
  has_drain_event_ = r.Bool();
  if (has_drain_event_) {
    drain_event_ = r.U64();
    drain_event_time_ = r.F64();
    simulator_.RestoreEvent(drain_event_time_, drain_event_, [this] {
      has_drain_event_ = false;
      Reschedule(simulator_.Now());
    });
  }
  cycles_ = r.U64();
  submitted_requests_ = r.U64();
  congested_ = r.Bool();
  congestion_start_ = r.F64();
  bb_congested_ = r.Bool();
  bb_congestion_start_ = r.F64();
  std::uint32_t absorbed = r.U32();
  for (std::uint32_t i = 0; i < absorbed; ++i) {
    workload::JobId id = r.I64();
    AbsorbedEvent ab;
    ab.event = r.U64();
    ab.fire_time = r.F64();
    ab.duration = r.F64();
    ab.volume_gb = r.F64();
    ab.durable_gb = r.F64();
    absorbed_events_.emplace(id, ab);
    simulator_.RestoreEvent(ab.fire_time, ab.event, AbsorbedAction(id));
  }
  util::Rng::State jitter;
  jitter.engine.state = r.U64();
  jitter.engine.inc = r.U64();
  jitter.has_spare = r.Bool();
  jitter.spare = r.F64();
  jitter_rng_.RestoreState(jitter);
  std::uint32_t deadlines = r.U32();
  for (std::uint32_t i = 0; i < deadlines; ++i) {
    workload::JobId id = r.I64();
    DeadlineEvent dl;
    dl.event = r.U64();
    dl.fire_time = r.F64();
    dl.retries = static_cast<int>(r.I64());
    deadline_events_.emplace(id, dl);
    simulator_.RestoreEvent(dl.fire_time, dl.event, DeadlineAction(id));
  }
  std::uint32_t retries = r.U32();
  for (std::uint32_t i = 0; i < retries; ++i) {
    workload::JobId id = r.I64();
    PendingRetry pr;
    pr.event = r.U64();
    pr.fire_time = r.F64();
    pr.remaining_gb = r.F64();
    pr.retries = static_cast<int>(r.I64());
    pending_retries_.emplace(id, pr);
    simulator_.RestoreEvent(pr.fire_time, pr.event, RetryAction(id));
  }
  transfer_timeouts_ = r.U64();
  transfer_retries_ = r.U64();
  straggler_spills_ = r.U64();
  reflushed_requests_ = r.U64();
  if (r.Bool()) {
    std::uint32_t deferred = r.U32();
    for (std::uint32_t i = 0; i < deferred; ++i) {
      workload::JobId id = r.I64();
      DeferredFlush df;
      df.event = r.U64();
      df.fire_time = r.F64();
      df.submit_time = r.F64();
      df.volume_gb = r.F64();
      deferred_flushes_.emplace(id, df);
      deferred_backlog_gb_ += df.volume_gb;
      simulator_.RestoreEvent(df.fire_time, df.event, FlushReleaseAction(id));
    }
    flush_deferrals_ = r.U64();
    forced_flush_releases_ = r.U64();
  }
  cycle_inputs_ = RestoreCycleInputs(r);
  // User slots are runtime-only (not serialized); relink every restored
  // transfer to its owner's JobStore slot. The engine restores the storage
  // model before this component, so the transfers are already in place.
  {
    const storage::StorageModel::ActiveColumns cols = storage_.Columns();
    for (std::size_t slot = 0; slot < cols.job_ids.size(); ++slot) {
      workload::JobId id = cols.job_ids[slot];
      std::uint32_t user = jobs_.SlotOf(id);
      if (user == JobStore::kInvalidSlot) {
        throw std::runtime_error(
            "IoScheduler::RestoreState: transfer for job " +
            std::to_string(id) + " has no registered context");
      }
      storage_.SetUserSlot(id, user);
    }
  }
}

void IoScheduler::OnCompletionEvent() {
  has_pending_event_ = false;
  sim::SimTime now = simulator_.Now();
  storage_.AdvanceTo(now);

  // Collect every transfer that is complete at this instant (rate changes
  // can align several completions on one timestamp).
  std::vector<workload::JobId>& done = done_scratch_;
  done.clear();
  {
    const storage::StorageModel::ActiveColumns cols = storage_.Columns();
    for (std::size_t slot : cols.arrival_order) {
      if (storage_.CompleteAt(slot)) done.push_back(cols.job_ids[slot]);
    }
    if (done.empty()) {
      // Float round-off left a sliver. If a transfer would finish within the
      // clock's resolution anyway, write the sliver off — re-arming an event
      // at an unrepresentable future instant would spin forever.
      std::vector<std::pair<workload::JobId, double>> slivers;
      for (const std::size_t slot : cols.arrival_order) {
        double epsilon = storage_.EffectiveRateAt(slot) * 1e-4;
        if (cols.rates[slot] > 0 && storage_.RemainingAt(slot) <= epsilon) {
          slivers.emplace_back(cols.job_ids[slot], epsilon);
        }
      }
      // ForceComplete mutates the store, so it runs after the column walk.
      for (const auto& [id, epsilon] : slivers) {
        storage_.ForceComplete(id, epsilon);
        done.push_back(id);
      }
    }
  }
  if (done.empty()) {
    // A genuine rate change moved the completion; reschedule from state.
    Reschedule(now);
    return;
  }
  for (workload::JobId id : done) {
    // End returns the removed transfer, so accounting and teardown share
    // one index lookup.
    storage::Transfer t = storage_.End(id);
    JobContext& ctx = MustFind(jobs_, id);
    ctx.completed_io_seconds += t.volume_gb / t.full_rate_gbps;
    auto deadline = deadline_events_.find(id);
    if (deadline != deadline_events_.end()) {
      simulator_.Cancel(deadline->second.event);
      deadline_events_.erase(deadline);
    }
  }
  Reschedule(now);
  // Notify after rates are re-assigned so callbacks observing the storage
  // see a consistent post-cycle state. Callbacks may submit new requests
  // (the next phase is compute, so in practice they do not re-enter I/O at
  // the same instant, but nested Reschedule calls are safe regardless).
  // Direct-path completions are durable on the PFS immediately.
  const IoCompletionInfo direct_info;
  for (workload::JobId id : done) {
    on_complete_(id, now, direct_info);
  }
}

}  // namespace iosched::core
