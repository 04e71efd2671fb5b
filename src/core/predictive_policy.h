// PREDICTIVE policy: Cons-FCFS with prediction-driven headroom (the paper's
// Section VI future work made concrete).
//
// Each cycle the scheduler hands the policy a PredictionState listing the
// bursts its predictor expects from currently computing jobs. The policy
// admits requests FCFS like Cons-FCFS, but against a budget reduced by a
// reservation proportional to the volume of bursts due within the
// prediction horizon: the reserved slack lets those bursts start at a
// useful rate instead of arriving into a fully subscribed channel. The
// reservation is capped at kMaxHeadroomFraction of BWmax so present
// traffic is never starved for a forecast, and the Cons-FCFS starvation
// guard is unchanged (a solo-saturating head job still runs at full BWmax).
//
// With prediction disabled — or when every prediction has support 0 ("no
// signal", e.g. the null predictor or an all-unseen workload) — the
// reservation is zero and the policy is grant-for-grant identical to
// Cons-FCFS.
#pragma once

#include "core/io_policy.h"

namespace iosched::core {

class PredictivePolicy final : public IoPolicy {
 public:
  const std::string& name() const override;
  std::vector<RateGrant> Assign(std::span<const IoJobView> active,
                                double max_bandwidth_gbps,
                                sim::SimTime now) override;

  /// Ceiling on the reserved headroom, as a fraction of BWmax.
  static constexpr double kMaxHeadroomFraction = 0.5;

  /// The headroom (GB/s) the policy would reserve out of `max_bandwidth_gbps`
  /// given the current prediction snapshot — IoPolicy::prediction(),
  /// refreshed by the framework each cycle while prediction is enabled and
  /// all-default ("no prediction" = Cons-FCFS) otherwise. Exposed for
  /// tests: predicted imminent volume spread over the horizon, capped at
  /// the ceiling.
  double ReservedHeadroomGbps(double max_bandwidth_gbps) const;
};

}  // namespace iosched::core
