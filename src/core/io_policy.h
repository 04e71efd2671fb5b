// The I/O-aware scheduling policy interface (paper Section III-C).
//
// Whenever the set of in-flight I/O requests changes (a request arrives or
// completes — one "scheduling cycle"), the framework asks the policy for a
// bandwidth grant per request: rate 0 suspends a job's I/O, a positive rate
// lets it transfer. The decision is one call, Assign(active, BWmax, now),
// made fresh every cycle; no policy carries a plan across cycles. What the
// framework observes beyond the active set (storage tiers and the
// parked-flush backlog) reaches the policy through the scheduler's
// CycleInputs, bound once when the scheduler takes ownership of the policy.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "sim/time.h"
#include "workload/job.h"

namespace iosched::obs {
class Hub;
}  // namespace iosched::obs

namespace iosched::core {

/// The policy-visible state of one job's current I/O request.
struct IoJobView {
  workload::JobId id = 0;
  /// Partition size N_i.
  int nodes = 0;
  /// Full-speed demand b*N_i (GB/s).
  double full_rate_gbps = 0.0;
  /// Total volume of the current request, Vol_{i,k} (GB).
  double volume_gb = 0.0;
  /// Transferred so far within this request, W_{i,k} (GB).
  double transferred_gb = 0.0;
  /// Start time of the current request, t^{I/O}_{i,k}.
  sim::SimTime request_arrival = 0.0;
  /// Job start time t^{start}_i.
  sim::SimTime job_start = 0.0;
  /// Sum of compute durations of the job's completed compute phases
  /// (sum_{j<=k} T^{com}_{i,j}).
  double completed_compute_seconds = 0.0;
  /// Sum of *uncongested* I/O times of completed I/O phases
  /// (sum_{j<k} T^{I/O}_{i,j}).
  double completed_io_seconds = 0.0;

  double RemainingGb() const { return volume_gb - transferred_gb; }
};

/// One bandwidth grant.
struct RateGrant {
  workload::JobId id = 0;
  double rate_gbps = 0.0;
};

/// A checkpoint flush waiting on the deferral bench: ready to take the
/// direct PFS path but held back while the policy reports congestion. The
/// scheduler re-queries the policy every cycle and force-releases the flush
/// at `deadline` regardless of the answer.
struct FlushView {
  workload::JobId id = 0;
  /// Remaining flush volume (GB).
  double volume_gb = 0.0;
  /// Full-speed demand the flush would add if released (GB/s).
  double full_rate_gbps = 0.0;
  /// When the flush became ready.
  sim::SimTime submitted = 0.0;
  /// Forced-release time (submitted + the configured deferral bound).
  sim::SimTime deadline = 0.0;
};

/// Storage-tier snapshot refreshed once per scheduling cycle when a burst
/// buffer is attached (all-default otherwise). The `max_bandwidth_gbps`
/// that Assign receives already has the drain reservation subtracted, so
/// conservative policies cannot oversubscribe the PFS drain by
/// construction; this struct lets a policy additionally shape its behavior
/// on the backlog itself (e.g. ADAPTIVE defers over-admission while the
/// drain is far behind).
struct TierState {
  bool bb_enabled = false;
  double bb_capacity_gb = 0.0;
  /// Data staged and awaiting drain (GB).
  double bb_queued_gb = 0.0;
  /// Drain reservation active right now (GB/s).
  double drain_gbps = 0.0;
  /// Occupancy above the configured watermark.
  bool bb_congested = false;
  /// The buffer is down (absorbing nothing) — fault injection.
  bool bb_faulted = false;
  /// Drain-rate multiplier from fault injection (1.0 = nominal; below 1 the
  /// backlog clears slower than the capacity planning assumed).
  double drain_factor = 1.0;
};

/// Everything the framework observes for the policy, refreshed once per
/// scheduling cycle before Assign. A policy reads what it cares about and
/// ignores the rest, and the defaults keep feature-off runs
/// indistinguishable from builds without the feature. The scheduler owns
/// the instance and binds its address to the policy once (BindInputs), so
/// Assign always reads the current cycle's snapshot.
struct CycleInputs {
  /// Tier snapshot (default = no burst buffer attached).
  TierState tiers;
  /// Deferred checkpoint-flush backlog: total parked volume and count
  /// (0 unless flush-aware scheduling is enabled and flushes are parked).
  double flush_backlog_gb = 0.0;
  std::size_t flush_backlog_count = 0;
};

class IoPolicy {
 public:
  virtual ~IoPolicy() = default;

  /// Policy name as it appears in the paper's figures (e.g. "ADAPTIVE").
  virtual const std::string& name() const = 0;

  /// The per-cycle decision: produce a grant for *every* view in `active`
  /// (suspended jobs get 0). `active` is ordered by (request_arrival, id) —
  /// FCFS order; `max_bandwidth_gbps` is BWmax minus the burst-buffer drain
  /// reservation. Must be deterministic.
  virtual std::vector<RateGrant> Assign(std::span<const IoJobView> active,
                                        double max_bandwidth_gbps,
                                        sim::SimTime now) = 0;

  /// Attach observability instruments (null detaches). Policies that count
  /// anything (knapsack solves, water-filling steps) override; the default
  /// ignores it, so observability stays optional for policy authors.
  virtual void BindObs(obs::Hub* hub) { (void)hub; }

  /// Should `flush` stay parked? Queried when a checkpoint flush becomes
  /// ready for the direct path and again every scheduling cycle while it
  /// waits; the scheduler releases it as soon as this returns false (and
  /// unconditionally at the deadline). inputs() is the scheduler's
  /// CycleInputs as of the last cycle (all-default before the first one);
  /// between cycles that is a stale snapshot, which the scheduler
  /// checkpoints so a resumed run answers exactly as the uninterrupted one.
  /// `active_demand_gbps` is the summed full-rate demand of the in-flight
  /// direct transfers. Must be deterministic. The default never defers, so
  /// flush phases behave as ordinary I/O under policies that do not opt in.
  virtual bool DeferFlush(const FlushView& flush, double active_demand_gbps,
                          double max_bandwidth_gbps, sim::SimTime now) {
    (void)flush;
    (void)active_demand_gbps;
    (void)max_bandwidth_gbps;
    (void)now;
    return false;
  }

  /// Bind the per-cycle observations Assign and DeferFlush read through
  /// inputs(). The scheduler binds its own CycleInputs once; the instance
  /// must outlive the binding.
  void BindInputs(const CycleInputs* inputs) { inputs_ = inputs; }

 protected:
  /// The bound per-cycle observations (all-default while unbound).
  const CycleInputs& inputs() const {
    return inputs_ != nullptr ? *inputs_ : NoInputs();
  }
  const TierState& tiers() const { return inputs().tiers; }
  double flush_backlog_gb() const { return inputs().flush_backlog_gb; }
  std::size_t flush_backlog_count() const {
    return inputs().flush_backlog_count;
  }

 private:
  static const CycleInputs& NoInputs();
  const CycleInputs* inputs_ = nullptr;
};

/// Verify a grant vector covers exactly the active set with non-negative
/// rates, each at most the job's full rate; throws std::logic_error
/// otherwise. Used by the framework to catch buggy policies at the boundary.
void ValidateGrants(std::span<const IoJobView> active,
                    std::span<const RateGrant> grants);

}  // namespace iosched::core
