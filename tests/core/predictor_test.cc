#include "core/predictor.h"

#include <gtest/gtest.h>

#include <cmath>

#include "driver/scenario.h"
#include "workload/synthetic.h"

namespace iosched::core {
namespace {

constexpr double kNodeBw = 1536.0 / 49152.0;

workload::Job MakeJob(workload::JobId id, const std::string& project,
                      const std::string& user, double compute, double io_gb,
                      int phases, double efficiency = 1.0) {
  workload::Job j;
  j.id = id;
  j.submit_time = 0;
  j.nodes = 1024;
  j.requested_walltime = compute * 2 + 100;
  j.project = project;
  j.user = user;
  j.io_efficiency = efficiency;
  j.phases = workload::MakeUniformPhases(compute, io_gb, phases);
  return j;
}

IoBehaviorPredictor::Options Opts() {
  IoBehaviorPredictor::Options o;
  o.node_bandwidth_gbps = kNodeBw;
  return o;
}

TEST(Predictor, NoHistoryGivesZeroSupport) {
  IoBehaviorPredictor p(Opts());
  IoPrediction pred = p.Predict(MakeJob(1, "pX", "uY", 100, 10, 1));
  EXPECT_EQ(pred.support, 0u);
  EXPECT_DOUBLE_EQ(pred.io_fraction, 0.0);
}

TEST(Predictor, LearnsProjectBehaviour) {
  IoBehaviorPredictor p(Opts());
  // Project pA: consistent 50% I/O fraction (compute 10 s, io 10 s at
  // 32 GB/s full rate -> 320 GB), 4 phases.
  for (int i = 0; i < 10; ++i) {
    p.Observe(MakeJob(i, "pA", "u" + std::to_string(i), 10.0, 320.0, 4));
  }
  IoPrediction pred = p.Predict(MakeJob(99, "pA", "uNew", 10.0, 0.0, 0));
  EXPECT_NEAR(pred.io_fraction, 0.5, 1e-9);
  EXPECT_NEAR(pred.io_phases, 4.0, 1e-9);
  EXPECT_EQ(pred.support, 10u);
}

TEST(Predictor, FallsBackUserThenGlobal) {
  IoBehaviorPredictor::Options opts = Opts();
  opts.min_support = 2;
  IoBehaviorPredictor p(opts);
  // Only user uB has history (3 jobs, all pure compute).
  for (int i = 0; i < 3; ++i) {
    p.Observe(MakeJob(i, "p" + std::to_string(i), "uB", 100.0, 0.0, 0));
  }
  // Unknown project + known user -> user-level prediction.
  IoPrediction by_user = p.Predict(MakeJob(50, "pUnseen", "uB", 10, 0, 0));
  EXPECT_EQ(by_user.support, 3u);
  EXPECT_DOUBLE_EQ(by_user.io_fraction, 0.0);
  // Unknown project + unknown user -> global.
  IoPrediction global = p.Predict(MakeJob(51, "pUnseen", "uUnseen", 10, 0, 0));
  EXPECT_EQ(global.support, 3u);
}

TEST(Predictor, MinSupportGatesSpecificLevels) {
  IoBehaviorPredictor::Options opts = Opts();
  opts.min_support = 5;
  IoBehaviorPredictor p(opts);
  // 2 observations of pA (below min_support of 5) with 50% I/O, plus 8
  // unrelated pure-compute jobs -> the thin project level only gets weight
  // 2/5 and the estimate stays dominated by the global average.
  p.Observe(MakeJob(1, "pA", "u1", 10.0, 320.0, 4));
  p.Observe(MakeJob(2, "pA", "u2", 10.0, 320.0, 4));
  for (int i = 0; i < 8; ++i) {
    p.Observe(MakeJob(10 + i, "pB", "u3", 100.0, 0.0, 0));
  }
  IoPrediction pred = p.Predict(MakeJob(99, "pA", "uNew", 10, 0, 0));
  EXPECT_EQ(pred.support, 10u);           // global carries the most weight
  EXPECT_LT(pred.io_fraction, 0.3);       // dominated by compute-only jobs
  EXPECT_GT(pred.io_fraction, 0.05);      // but the project still shows
}

TEST(Predictor, BlendsThinProjectWithGlobalByEvidenceRamp) {
  // Pin the blending semantics exactly: with min_support 4, a project seen
  // twice gets weight 2/4 = 0.5 and the global average fills the rest.
  IoBehaviorPredictor::Options opts = Opts();
  opts.min_support = 4;
  IoBehaviorPredictor p(opts);
  p.Observe(MakeJob(1, "pA", "uA", 10.0, 320.0, 4));  // 50% I/O
  p.Observe(MakeJob(2, "pA", "uA", 10.0, 320.0, 4));
  for (int i = 0; i < 6; ++i) {
    p.Observe(MakeJob(10 + i, "pB", "uB", 100.0, 0.0, 0));
  }
  // Global EWMA (alpha 0.25): two 0.5s keep it at 0.5, then six decays
  // toward zero leave 0.5 * 0.75^6; project pA sits exactly at 0.5.
  double global = 0.5 * std::pow(0.75, 6);
  IoPrediction pred = p.Predict(MakeJob(99, "pA", "uNew", 10, 0, 0));
  EXPECT_NEAR(pred.io_fraction, 0.5 * global + 0.5 * 0.5, 1e-12);
  EXPECT_NEAR(pred.io_phases, 0.5 * 4.0 * std::pow(0.75, 6) + 0.5 * 4.0,
              1e-12);
  // Project weight 0.5 ties residual global weight 0.5; ties go to the
  // more specific level, so support reports the project's evidence.
  EXPECT_EQ(pred.support, 2u);
}

TEST(Predictor, BlendsUserLevelWhenProjectUnseen) {
  IoBehaviorPredictor::Options opts = Opts();
  opts.min_support = 4;
  IoBehaviorPredictor p(opts);
  p.Observe(MakeJob(1, "pA", "uA", 10.0, 320.0, 4));  // 50% I/O, user uA
  for (int i = 0; i < 6; ++i) {
    p.Observe(MakeJob(10 + i, "pB", "uB", 100.0, 0.0, 0));
  }
  double global = 0.5 * std::pow(0.75, 6);
  // Unseen project, thin user (1 obs, weight 1/4).
  IoPrediction pred = p.Predict(MakeJob(99, "pNew", "uA", 10, 0, 0));
  EXPECT_NEAR(pred.io_fraction, 0.75 * global + 0.25 * 0.5, 1e-12);
  EXPECT_EQ(pred.support, 7u);  // residual global weight 0.75 dominates
}

TEST(Predictor, EwmaTracksDrift) {
  IoBehaviorPredictor::Options opts = Opts();
  opts.alpha = 0.5;
  IoBehaviorPredictor p(opts);
  // Project starts I/O-free, then shifts to 50% I/O.
  for (int i = 0; i < 5; ++i) p.Observe(MakeJob(i, "pA", "u", 100.0, 0.0, 0));
  for (int i = 0; i < 8; ++i) {
    p.Observe(MakeJob(10 + i, "pA", "u", 10.0, 320.0, 4));
  }
  IoPrediction pred = p.Predict(MakeJob(99, "pA", "u", 10, 0, 0));
  EXPECT_GT(pred.io_fraction, 0.45);  // converged towards the new regime
}

TEST(Predictor, LearnsEfficiency) {
  IoBehaviorPredictor p(Opts());
  for (int i = 0; i < 6; ++i) {
    p.Observe(MakeJob(i, "pA", "u", 10.0, 160.0, 2, /*efficiency=*/0.4));
  }
  IoPrediction pred = p.Predict(MakeJob(99, "pA", "u", 10, 0, 0));
  EXPECT_NEAR(pred.io_efficiency, 0.4, 1e-9);
}

TEST(Predictor, InvalidOptionsThrow) {
  IoBehaviorPredictor::Options opts = Opts();
  opts.alpha = 0.0;
  EXPECT_THROW(IoBehaviorPredictor{opts}, std::invalid_argument);
  opts = Opts();
  opts.alpha = 1.5;
  EXPECT_THROW(IoBehaviorPredictor{opts}, std::invalid_argument);
  opts = Opts();
  opts.node_bandwidth_gbps = 0.0;
  EXPECT_THROW(IoBehaviorPredictor{opts}, std::invalid_argument);
}

TEST(Predictor, PrequentialPredictsBeforeObserving) {
  // Three identical 50%-I/O jobs from one project, min_support 1 so a
  // single observation already gives full weight. The first prediction is
  // cold (error 0.5), the next two are exact -> MAE 0.5 / 3.
  IoBehaviorPredictor::Options opts = Opts();
  opts.min_support = 1;
  IoBehaviorPredictor p(opts);
  workload::Workload jobs;
  for (int i = 0; i < 3; ++i) {
    jobs.push_back(MakeJob(i, "pA", "uA", 10.0, 320.0, 4));
  }
  PrequentialResult r = EvaluatePrequential(p, jobs, kNodeBw);
  EXPECT_EQ(r.evaluated, 3u);
  EXPECT_EQ(r.cold_jobs, 1u);
  EXPECT_NEAR(r.mae_fraction, 0.5 / 3.0, 1e-12);
  // The predictor was trained as a side effect.
  EXPECT_EQ(p.observed_jobs(), 3u);
}

TEST(Predictor, PrequentialIsHonestWhereInSampleIsNot) {
  // In-sample evaluation of the training set reports near-zero error for a
  // perfectly consistent project; the prequential protocol charges the cold
  // start and so must report strictly more.
  workload::Workload jobs;
  for (int i = 0; i < 20; ++i) {
    jobs.push_back(MakeJob(i, "pA", "uA", 10.0, 320.0, 4));
  }
  IoBehaviorPredictor trained(Opts());
  for (const workload::Job& j : jobs) trained.Observe(j);
  double in_sample = EvaluateFractionError(trained, jobs, kNodeBw);

  IoBehaviorPredictor fresh(Opts());
  PrequentialResult r = EvaluatePrequential(fresh, jobs, kNodeBw);
  EXPECT_GT(r.mae_fraction, in_sample);
  EXPECT_NEAR(in_sample, 0.0, 1e-12);
}

TEST(Predictor, LearnedMaeLandsBetweenOracleAndNullOnEvaluationMonth) {
  // The accuracy table of bench/fig_prediction: on the WL1 30-day month the
  // learned prequential MAE must sit strictly between the oracle (0, the
  // job's own profile) and the null predictor (always io_fraction 0).
  driver::Scenario month = driver::MakeEvaluationScenario(1, 30.0);
  const workload::Workload& jobs = month.jobs;
  double node_bw = month.config.machine.node_bandwidth_gbps;
  ASSERT_GT(jobs.size(), 1000u);
  double null_total = 0.0;
  for (const workload::Job& job : jobs) {
    null_total += std::abs(job.IoFraction(node_bw));
  }
  double null_mae = null_total / static_cast<double>(jobs.size());

  IoBehaviorPredictor::Options opts;
  opts.node_bandwidth_gbps = node_bw;
  IoBehaviorPredictor predictor(opts);
  PrequentialResult learned = EvaluatePrequential(predictor, jobs, node_bw);
  EXPECT_EQ(learned.evaluated, jobs.size());
  EXPECT_GT(learned.mae_fraction, 0.0);
  EXPECT_LT(learned.mae_fraction, null_mae)
      << "learned " << learned.mae_fraction << " vs null " << null_mae;
}

TEST(Predictor, BeatsGlobalBaselineOnProjectStructuredWorkload) {
  // Train on the first half of a synthetic month (projects have consistent
  // I/O bands by construction), evaluate on the second half: the
  // hierarchical predictor must beat a global-mean-only predictor.
  workload::SyntheticConfig cfg = workload::EvaluationMonthConfig(1);
  cfg.duration_days = 8.0;
  workload::Workload jobs = workload::GenerateWorkload(cfg, 424242);
  ASSERT_GT(jobs.size(), 400u);
  std::size_t half = jobs.size() / 2;

  IoBehaviorPredictor::Options opts;
  opts.node_bandwidth_gbps = cfg.node_bandwidth_gbps;
  IoBehaviorPredictor hierarchical(opts);
  for (std::size_t i = 0; i < half; ++i) hierarchical.Observe(jobs[i]);

  // Global-only reference: same machinery, provenance stripped.
  IoBehaviorPredictor global_only(opts);
  for (std::size_t i = 0; i < half; ++i) {
    workload::Job stripped = jobs[i];
    stripped.project.clear();
    stripped.user.clear();
    global_only.Observe(stripped);
  }

  workload::Workload test(jobs.begin() + static_cast<std::ptrdiff_t>(half),
                          jobs.end());
  workload::Workload test_stripped = test;
  for (auto& j : test_stripped) {
    j.project.clear();
    j.user.clear();
  }
  double err_hier =
      EvaluateFractionError(hierarchical, test, cfg.node_bandwidth_gbps);
  double err_global = EvaluateFractionError(global_only, test_stripped,
                                            cfg.node_bandwidth_gbps);
  EXPECT_LT(err_hier, err_global * 0.8)
      << "hierarchical " << err_hier << " vs global " << err_global;
  EXPECT_LT(err_hier, 0.08);  // well inside one band's width
}

}  // namespace
}  // namespace iosched::core
