// Figure 11 reproduction: impact of I/O intensiveness (expansion factor EF)
// on average wait time, every greedy policy on Workload 1.
#include "figure_common.h"

int main() {
  using namespace iosched;
  const std::vector<double> factors = {0.3, 0.5, 0.7, 0.9, 1.2, 1.5};
  std::printf("== Figure 11: average wait time vs I/O expansion factor "
              "(Workload 1, %.0f days) ==\n\n", bench::BenchDays());

  driver::Scenario scenario =
      driver::MakeEvaluationScenario(1, bench::BenchDays());
  util::ThreadPool pool;
  driver::SweepSpec spec;
  spec.scenario = &scenario;
  spec.policies = core::AllPolicyNames();
  spec.expansion_factors = factors;
  spec.pool = &pool;
  auto runs = driver::RunSweep(spec).runs;
  util::Table table =
      driver::SensitivityTable(runs, factors, core::AllPolicyNames());
  std::printf("%s\n", table.ToString().c_str());

  // The paper's qualitative observations, checked against this run:
  //  (1) wait time grows with EF for every policy;
  //  (2) at low EF (30-50%) the policies are close together;
  //  (3) at EF=150% ADAPTIVE/MIN_AGGR_SLD cut wait by up to ~50%.
  std::size_t n = core::AllPolicyNames().size();
  auto wait_of = [&](std::size_t f, const std::string& policy) {
    for (std::size_t p = 0; p < n; ++p) {
      const auto& run = runs[f * n + p];
      if (run.policy == policy) {
        return util::SecondsToMinutes(run.report.avg_wait_seconds);
      }
    }
    return 0.0;
  };
  double base_hi = wait_of(factors.size() - 1, "BASE_LINE");
  double adaptive_hi = wait_of(factors.size() - 1, "ADAPTIVE");
  double aggr_hi = wait_of(factors.size() - 1, "MIN_AGGR_SLD");
  std::printf("At EF=150%%: ADAPTIVE %+.1f%%, MIN_AGGR_SLD %+.1f%% vs "
              "BASE_LINE (paper: up to ~-50%%)\n",
              (adaptive_hi / base_hi - 1.0) * 100.0,
              (aggr_hi / base_hi - 1.0) * 100.0);
  return 0;
}
