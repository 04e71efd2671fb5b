#include "core/adaptive_policy.h"

#include <algorithm>
#include <vector>

#include "obs/hub.h"
#include "storage/storage_model.h"
#include "util/units.h"

namespace iosched::core {

const std::string& AdaptivePolicy::name() const {
  static const std::string kName = "ADAPTIVE";
  return kName;
}

void AdaptivePolicy::BindObs(obs::Hub* hub) {
  waterfill_counter_ = hub != nullptr ? hub->waterfill_iterations : nullptr;
}

namespace {
sim::SimTime EarliestStartImpl(
    std::span<const IoJobView> active, std::span<const std::uint8_t> admitted,
    std::span<const double> rates, std::size_t candidate,
    double max_bandwidth_gbps, sim::SimTime now,
    std::vector<std::pair<sim::SimTime, double>>& releases) {
  double needed = std::min(active[candidate].full_rate_gbps,
                           max_bandwidth_gbps);
  double busy = 0.0;
  // (finish_time, released_bandwidth) for each admitted transfer.
  releases.clear();
  for (std::size_t i = 0; i < active.size(); ++i) {
    if (!admitted[i] || i == candidate) continue;
    busy += rates[i];
    if (rates[i] > 0) {
      releases.emplace_back(now + active[i].RemainingGb() / rates[i],
                            rates[i]);
    }
  }
  double available = max_bandwidth_gbps - busy;
  if (available >= needed - util::kVolumeEpsilon) return now;
  std::sort(releases.begin(), releases.end());
  for (const auto& [finish, released] : releases) {
    available += released;
    if (available >= needed - util::kVolumeEpsilon) return finish;
  }
  // Even with everything released the demand is capped at BWmax, so this is
  // only reachable when there are no releases at all.
  return now;
}
}  // namespace

sim::SimTime EarliestStartIfDeferred(std::span<const IoJobView> active,
                                     std::span<const std::uint8_t> admitted,
                                     std::span<const double> rates,
                                     std::size_t candidate,
                                     double max_bandwidth_gbps,
                                     sim::SimTime now) {
  std::vector<std::pair<sim::SimTime, double>> releases;
  return EarliestStartImpl(active, admitted, rates, candidate,
                           max_bandwidth_gbps, now, releases);
}

namespace {
/// Mean seconds-to-finish of the admitted set assuming each admitted job i
/// holds rate `rates[i]` from `now` on. Jobs with zero rate contribute the
/// cap horizon (they never finish); callers only compare estimates, so any
/// consistent large value works — we use the slowest finisher's time.
double MeanCompletionSeconds(std::span<const IoJobView> active,
                             std::span<const std::uint8_t> admitted,
                             std::span<const double> rates,
                             std::span<const double> extra_delay) {
  double total = 0.0;
  std::size_t count = 0;
  for (std::size_t i = 0; i < active.size(); ++i) {
    if (!admitted[i]) continue;
    double t = extra_delay[i];
    if (rates[i] > 0) {
      t += active[i].RemainingGb() / rates[i];
    }
    total += t;
    ++count;
  }
  return count ? total / static_cast<double>(count) : 0.0;
}

/// Reusable buffers for gathering the admitted subset before water-filling.
struct FairShareScratch {
  std::vector<std::size_t> idx;
  std::vector<double> demands;
  std::vector<int> nodes;
  std::vector<double> shares;
};

/// Fair share of BWmax over the admitted set (paper's congestion model):
/// proportional to node counts, water-filling slack from demand-capped jobs
/// back into the pool (storage::WaterFillRates) so no bandwidth is
/// stranded.
void FairShare(std::span<const IoJobView> active,
               std::span<const std::uint8_t> admitted,
               double max_bandwidth_gbps, std::span<double> rates_out,
               FairShareScratch& scratch,
               std::uint64_t* wf_iterations = nullptr) {
  scratch.idx.clear();
  scratch.demands.clear();
  scratch.nodes.clear();
  for (std::size_t i = 0; i < active.size(); ++i) {
    if (admitted[i]) {
      scratch.idx.push_back(i);
      scratch.demands.push_back(active[i].full_rate_gbps);
      scratch.nodes.push_back(active[i].nodes);
    } else {
      rates_out[i] = 0.0;
    }
  }
  scratch.shares.resize(scratch.idx.size());
  storage::WaterFillRates(scratch.demands, scratch.nodes, max_bandwidth_gbps,
                          scratch.shares, wf_iterations);
  for (std::size_t k = 0; k < scratch.idx.size(); ++k) {
    rates_out[scratch.idx[k]] = scratch.shares[k];
  }
}
}  // namespace

std::vector<RateGrant> AdaptivePolicy::Assign(
    std::span<const IoJobView> active, double max_bandwidth_gbps,
    sim::SimTime now) {
  std::vector<RateGrant> grants(active.size());
  for (std::size_t i = 0; i < active.size(); ++i) {
    grants[i] = {active[i].id, 0.0};
  }
  if (active.empty()) return grants;

  // Line 2: FCFS priority by current request start time. Sort cached
  // (arrival, id) keys instead of indices into the wide view records.
  struct Ranked {
    sim::SimTime arrival;
    workload::JobId id;
    std::size_t idx;
  };
  // All per-cycle temporaries below are thread_local scratch: Assign runs
  // every scheduling cycle (and the driver's sweeps call policies from pool
  // threads), and the dozen short-lived vectors dominated its allocation
  // profile.
  thread_local std::vector<Ranked> priority;
  priority.clear();
  priority.reserve(active.size());
  for (std::size_t i = 0; i < active.size(); ++i) {
    priority.push_back({active[i].request_arrival, active[i].id, i});
  }
  std::sort(priority.begin(), priority.end(),
            [](const Ranked& a, const Ranked& b) {
              if (a.arrival != b.arrival) return a.arrival < b.arrival;
              return a.id < b.id;
            });

  thread_local std::vector<std::uint8_t> admitted;
  admitted.assign(active.size(), 0);
  thread_local std::vector<double> rates;
  rates.assign(active.size(), 0.0);
  double available = max_bandwidth_gbps;
  bool overflowed = false;     // once true, BWavail is pinned to 0
  std::size_t admitted_count = 0;

  thread_local FairShareScratch scratch;
  thread_local std::vector<std::pair<sim::SimTime, double>> releases;
  thread_local std::vector<std::uint8_t> with;
  with.resize(active.size());
  thread_local std::vector<double> extra_delay;
  extra_delay.resize(active.size());
  thread_local std::vector<double> fcfs_rates;
  fcfs_rates.resize(active.size());
  thread_local std::vector<double> shared_rates;
  shared_rates.resize(active.size());

  // The fair shares are a pure function of the admitted set, so a run of
  // consecutive admissions only needs one recomputation at the next point
  // the rates are actually read (the deferral comparison, or the final
  // grant fill). The values are identical to eager recomputation.
  bool rates_dirty = false;
  std::uint64_t wf_iters = 0;
  auto refresh_rates = [&] {
    if (rates_dirty) {
      FairShare(active, admitted, max_bandwidth_gbps, rates, scratch,
                &wf_iters);
      rates_dirty = false;
    }
  };

  for (const Ranked& r : priority) {
    const std::size_t i = r.idx;
    // Solo-saturating jobs (b*N_i > BWmax) count as BWmax so they are
    // admitted when they head the FCFS order instead of starving.
    double demand = std::min(active[i].full_rate_gbps, max_bandwidth_gbps);
    if (!overflowed && demand <= available) {
      // Lines 7-9: plain FCFS admission.
      admitted[i] = 1;
      ++admitted_count;
      available -= demand;
      rates_dirty = true;
      continue;
    }
    if (admitted_count == 0) {
      // Nothing admitted yet and the first job alone exceeds BWmax: admit
      // capped (same starvation guard as the conservative family).
      admitted[i] = 1;
      ++admitted_count;
      overflowed = true;
      rates_dirty = true;
      continue;
    }
    if (tiers().bb_enabled &&
        (tiers().bb_queued_gb >
             kBacklogDeferralFraction * tiers().bb_capacity_gb ||
         tiers().bb_faulted || tiers().drain_factor < 1.0)) {
      // Deep drain backlog — or a degraded/failed buffer, which is the same
      // congestion signal arriving early: a faulted buffer spills every new
      // request onto the direct path, and a degraded drain holds its
      // reservation longer than planned. Over-admitting would stretch the
      // direct transfers either way; defer like Cons-FCFS until the tier
      // recovers.
      continue;
    }
    if (flush_backlog_gb() >=
            kFlushBacklogDeferralSeconds * max_bandwidth_gbps &&
        flush_backlog_count() > 0) {
      // Deep parked-flush backlog: the checkpoint flushes this policy
      // benched are pent-up demand that reclaims the channel the moment it
      // clears. Over-admitting would push that moment out (and with it
      // every flush's durability point); defer like Cons-FCFS instead.
      continue;
    }
    // Lines 11-13: compare deferring J_i vs letting it compete.
    refresh_rates();
    sim::SimTime start_if_deferred = EarliestStartImpl(
        active, admitted, rates, i, max_bandwidth_gbps, now, releases);

    std::copy(admitted.begin(), admitted.end(), with.begin());
    with[i] = 1;
    std::fill(extra_delay.begin(), extra_delay.end(), 0.0);

    // T_FCFS: admitted jobs keep their current rates; J_i starts at
    // `start_if_deferred` and then runs at min(full, BWmax).
    std::copy(rates.begin(), rates.end(), fcfs_rates.begin());
    fcfs_rates[i] = std::min(demand, max_bandwidth_gbps);
    extra_delay[i] = start_if_deferred - now;
    double t_fcfs =
        MeanCompletionSeconds(active, with, fcfs_rates, extra_delay);

    // T_Adaptive: the enlarged set fair-shares BWmax immediately.
    FairShare(active, with, max_bandwidth_gbps, shared_rates, scratch,
              &wf_iters);
    extra_delay[i] = 0.0;
    double t_adaptive =
        MeanCompletionSeconds(active, with, shared_rates, extra_delay);

    if (t_adaptive < t_fcfs) {
      // Line 15-16: admit and compete; bandwidth budget is exhausted.
      admitted[i] = 1;
      ++admitted_count;
      overflowed = true;
      rates_dirty = true;
    }
  }

  refresh_rates();
  if (waterfill_counter_ != nullptr && wf_iters > 0) {
    waterfill_counter_->Inc(wf_iters);
  }
  for (std::size_t i = 0; i < active.size(); ++i) {
    grants[i].rate_gbps = rates[i];
  }
  return grants;
}

bool AdaptivePolicy::DeferFlush(const FlushView& flush,
                                double active_demand_gbps,
                                double max_bandwidth_gbps, sim::SimTime now) {
  (void)flush;
  (void)now;
  // Hold flushes while the burst-buffer drain is behind: releasing one now
  // would add direct traffic to exactly the channel the drain reservation
  // is competing with. A faulted buffer does NOT defer — the flush data can
  // only reach the PFS over the direct path then.
  if (tiers().bb_enabled &&
      (tiers().bb_queued_gb >
           kBacklogDeferralFraction * tiers().bb_capacity_gb ||
       tiers().drain_factor < 1.0)) {
    return true;
  }
  // Otherwise release as soon as the direct channel has headroom.
  return active_demand_gbps >= max_bandwidth_gbps - util::kVolumeEpsilon;
}

}  // namespace iosched::core
