// Prediction-aware policies: headroom reservation (PREDICTIVE), storm
// deferral (PREDICTIVE_ADAPTIVE), and — the part that guards the rest of
// the suite — their degradation to the base policies whenever there is no
// prediction signal. A job from an unseen project yields a support-0
// prediction, which the scheduler omits from PredictionState entirely, so
// "no signal" and "prediction off" must produce identical schedules.
#include <gtest/gtest.h>

#include <vector>

#include "core/adaptive_policy.h"
#include "core/conservative_policy.h"
#include "core/policy_factory.h"
#include "core/predictive_policy.h"
#include "core/simulation.h"
#include "driver/scenario.h"
#include "metrics/digest.h"

namespace iosched {
namespace {

core::IoJobView MakeView(workload::JobId id, double arrival, double full_rate,
                         double remaining_gb, int nodes = 512) {
  core::IoJobView v;
  v.id = id;
  v.nodes = nodes;
  v.full_rate_gbps = full_rate;
  v.volume_gb = remaining_gb;
  v.transferred_gb = 0.0;
  v.request_arrival = arrival;
  return v;
}

std::vector<double> Rates(const std::vector<core::RateGrant>& grants) {
  std::vector<double> out;
  out.reserve(grants.size());
  for (const core::RateGrant& g : grants) out.push_back(g.rate_gbps);
  return out;
}

TEST(PredictivePolicy, FactoryBuildsBothPolicies) {
  EXPECT_EQ(core::MakePolicy("PREDICTIVE")->name(), "PREDICTIVE");
  EXPECT_EQ(core::MakePolicy("predictive_adaptive")->name(),
            "PREDICTIVE_ADAPTIVE");
}

TEST(PredictivePolicy, NoSignalMatchesConsFcfsGrants) {
  // The unseen-project regression at the policy boundary: with no
  // prediction delivered — or an enabled-but-empty snapshot, which is what
  // the scheduler sends when every job's prediction has support 0 — the
  // grants must be identical to Cons-FCFS, job for job.
  std::vector<core::IoJobView> active = {
      MakeView(1, 0.0, 60.0, 600.0),
      MakeView(2, 1.0, 30.0, 300.0),
      MakeView(3, 2.0, 30.0, 300.0),
  };
  core::ConservativePolicy fcfs(core::ConservativeOrder::kFcfs);
  std::vector<double> expected = Rates(fcfs.Assign(active, 100.0, 10.0));

  core::PredictivePolicy fresh;
  EXPECT_EQ(Rates(fresh.Assign(active, 100.0, 10.0)), expected);

  core::PredictivePolicy no_signal;
  core::CycleInputs inputs;
  inputs.prediction.enabled = true;
  inputs.prediction.horizon_seconds = 300.0;
  no_signal.BindInputs(&inputs);
  EXPECT_EQ(Rates(no_signal.Assign(active, 100.0, 10.0)), expected);
}

TEST(PredictivePolicy, ReservedHeadroomSpreadsImminentVolumeOverHorizon) {
  core::PredictivePolicy policy;
  EXPECT_EQ(policy.ReservedHeadroomGbps(100.0), 0.0);  // nothing observed

  core::CycleInputs inputs;
  core::PredictionState& ps = inputs.prediction;
  ps.enabled = true;
  ps.horizon_seconds = 300.0;
  ps.imminent_volume_gb = 3000.0;
  policy.BindInputs(&inputs);
  EXPECT_DOUBLE_EQ(policy.ReservedHeadroomGbps(100.0), 10.0);

  ps.imminent_volume_gb = 1e9;  // capped at half the channel
  EXPECT_DOUBLE_EQ(
      policy.ReservedHeadroomGbps(100.0),
      core::PredictivePolicy::kMaxHeadroomFraction * 100.0);

  ps.enabled = false;  // disabled snapshot reserves nothing
  EXPECT_EQ(policy.ReservedHeadroomGbps(100.0), 0.0);
}

TEST(PredictivePolicy, ReservationDefersDiscretionaryAdmission) {
  // Without a reservation both jobs fit (60 + 30 <= 100); a 6000 GB burst
  // forecast over a 300 s horizon reserves 20 GB/s, so only the head job
  // is admitted and the tail waits.
  std::vector<core::IoJobView> active = {
      MakeView(1, 0.0, 60.0, 600.0),
      MakeView(2, 1.0, 30.0, 300.0),
  };
  core::PredictivePolicy policy;
  std::vector<double> unreserved = Rates(policy.Assign(active, 100.0, 10.0));
  EXPECT_EQ(unreserved, (std::vector<double>{60.0, 30.0}));

  core::CycleInputs inputs;
  inputs.prediction.enabled = true;
  inputs.prediction.horizon_seconds = 300.0;
  inputs.prediction.imminent_volume_gb = 6000.0;
  policy.BindInputs(&inputs);
  std::vector<double> reserved = Rates(policy.Assign(active, 100.0, 10.0));
  EXPECT_EQ(reserved, (std::vector<double>{60.0, 0.0}));
}

TEST(PredictivePolicy, StarvationGuardIsReservationProof) {
  // The reduced budget (50 GB/s here) cannot hold the head job's 90 GB/s
  // demand, but a forecast must never stall the queue: the head is
  // admitted against the full channel.
  std::vector<core::IoJobView> active = {MakeView(1, 0.0, 90.0, 900.0)};
  core::PredictivePolicy policy;
  core::CycleInputs inputs;
  inputs.prediction.enabled = true;
  inputs.prediction.horizon_seconds = 300.0;
  inputs.prediction.imminent_volume_gb = 1e9;
  policy.BindInputs(&inputs);
  std::vector<double> grants = Rates(policy.Assign(active, 100.0, 10.0));
  EXPECT_EQ(grants, (std::vector<double>{90.0}));
}

TEST(PredictiveAdaptivePolicy, StormDeferralBlocksOveradmission) {
  // Crafted so plain ADAPTIVE over-admits the tail job (fair-sharing cuts
  // the mean completion time): A is long, B is short, and sharing finishes
  // B quickly at a modest cost to A.
  std::vector<core::IoJobView> active = {
      MakeView(1, 0.0, 80.0, 800.0),
      MakeView(2, 1.0, 80.0, 80.0),
  };
  core::AdaptivePolicy plain;
  std::vector<double> shared = Rates(plain.Assign(active, 100.0, 10.0));
  ASSERT_GT(shared[1], 0.0) << "the case no longer triggers over-admission";

  // The predictive flavor with no prediction behaves identically...
  core::AdaptivePolicy predictive(/*predictive=*/true);
  EXPECT_EQ(Rates(predictive.Assign(active, 100.0, 10.0)), shared);

  // ...and defers the over-admission when a storm rivaling the channel is
  // forecast within the horizon.
  core::CycleInputs storm;
  storm.prediction.enabled = true;
  storm.prediction.horizon_seconds = 300.0;
  storm.prediction.imminent_rate_gbps = 60.0;  // >= 0.5 * BWmax
  predictive.BindInputs(&storm);
  std::vector<double> deferred = Rates(predictive.Assign(active, 100.0, 10.0));
  EXPECT_EQ(deferred, (std::vector<double>{80.0, 0.0}));

  // Plain ADAPTIVE must ignore prediction snapshots entirely.
  plain.BindInputs(&storm);
  EXPECT_EQ(Rates(plain.Assign(active, 100.0, 10.0)), shared);
}

/// End-to-end degradation: under the null predictor every prediction has
/// support 0, so a month under PREDICTIVE must digest identically to
/// Cons-FCFS, and PREDICTIVE_ADAPTIVE to ADAPTIVE — and prediction off must
/// match null exactly.
TEST(PredictivePolicy, NullModeDigestsMatchBasePolicies) {
  driver::Scenario scenario = driver::MakeTestScenario(
      /*seed=*/7, /*duration_days=*/0.5, /*jobs_per_day=*/200.0);

  auto digest = [&](const char* policy, const char* mode) {
    core::SimulationConfig config = scenario.config;
    config.policy = policy;
    if (mode != nullptr) {
      config.prediction.enabled = true;
      config.prediction.mode = mode;
    }
    return metrics::DigestRecords(
        core::RunSimulation(config, scenario.jobs).records);
  };

  std::uint64_t fcfs = digest("FCFS", nullptr);
  EXPECT_EQ(digest("PREDICTIVE", nullptr), fcfs);
  EXPECT_EQ(digest("PREDICTIVE", "null"), fcfs);

  std::uint64_t adaptive = digest("ADAPTIVE", nullptr);
  EXPECT_EQ(digest("PREDICTIVE_ADAPTIVE", nullptr), adaptive);
  EXPECT_EQ(digest("PREDICTIVE_ADAPTIVE", "null"), adaptive);

  // Sanity: a real predictor does change the schedule on this workload.
  EXPECT_NE(digest("PREDICTIVE_ADAPTIVE", "oracle"), adaptive);
}

}  // namespace
}  // namespace iosched
