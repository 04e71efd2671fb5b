// Prediction figure: how well does the offline I/O-behaviour predictor
// forecast a job's I/O from its provenance?
//
// Prequential io_fraction MAE (each job predicted before the predictor
// observes it) on the month-1 evaluation workload for three predictors:
// null (always "no signal", the upper bound), learned (the hierarchical
// EWMA predictor), and oracle (the job's own profile, MAE 0 by
// construction). The predictor is a model, not
// a scheduling input; tests/core/predictor_test.cc checks that the learned
// MAE lands strictly between the bounds.
//
// Run with fig_prediction (IOSCHED_BENCH_DAYS=<n> shortens the month).
#include <cmath>
#include <cstdio>
#include <string>

#include "core/predictor.h"
#include "figure_common.h"

int main() {
  using namespace iosched;
  driver::Scenario month =
      driver::MakeEvaluationScenario(1, bench::BenchDays());
  const workload::Workload& jobs = month.jobs;
  double node_bw = month.config.machine.node_bandwidth_gbps;

  // The null predictor answers io_fraction 0 for every job.
  double null_total = 0.0;
  for (const workload::Job& job : jobs) {
    null_total += std::abs(job.IoFraction(node_bw));
  }
  double null_mae =
      jobs.empty() ? 0.0 : null_total / static_cast<double>(jobs.size());

  core::IoBehaviorPredictor::Options opts;
  opts.node_bandwidth_gbps = node_bw;
  core::IoBehaviorPredictor predictor(opts);
  core::PrequentialResult learned =
      core::EvaluatePrequential(predictor, jobs, node_bw);

  util::Table table({"predictor", "prequential MAE (io_fraction)",
                     "evaluated", "cold jobs"});
  auto row = [&table](const char* mode, double mae, std::size_t evaluated,
                      std::size_t cold) {
    table.AddRow({mode, util::Table::Num(mae, 4), std::to_string(evaluated),
                  std::to_string(cold)});
  };
  row("null", null_mae, jobs.size(), jobs.size());
  row("learned", learned.mae_fraction, learned.evaluated, learned.cold_jobs);
  row("oracle", 0.0, jobs.size(), 0);
  std::printf("I/O-behaviour prediction accuracy, WL1 (%g days)\n%s",
              bench::BenchDays(), table.ToString().c_str());
  return 0;
}
