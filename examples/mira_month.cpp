// Replay of a Mira-like evaluation month under every greedy I/O policy,
// printing the paper's three metrics (Figures 8-10 shape).
//
// Usage: mira_month [workload_index=1] [days=30]
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "driver/experiment.h"
#include "driver/scenario.h"
#include "driver/sweep.h"
#include "core/policy_factory.h"
#include "util/units.h"

int main(int argc, char** argv) {
  using namespace iosched;

  int index = argc > 1 ? std::atoi(argv[1]) : 1;
  double days = argc > 2 ? std::atof(argv[2]) : 30.0;
  if (index < 1 || index > 3 || days <= 0) {
    std::fprintf(stderr, "usage: %s [workload_index 1..3] [days]\n", argv[0]);
    return 1;
  }

  driver::Scenario scenario = driver::MakeEvaluationScenario(index, days);
  workload::WorkloadStats stats = workload::ComputeStats(
      scenario.jobs, scenario.config.machine.total_nodes(),
      scenario.config.machine.node_bandwidth_gbps);
  std::printf(
      "%s: %zu jobs over %.0f days | offered load %.2f | mean size %.0f "
      "nodes | mean I/O fraction %.2f | total I/O %.1f TB\n\n",
      scenario.name.c_str(), stats.job_count, days, stats.offered_load,
      stats.mean_nodes, stats.mean_io_fraction, stats.total_io_gb / 1024.0);

  util::ThreadPool pool;
  driver::SweepSpec spec;
  spec.scenario = &scenario;
  spec.policies = core::AllPolicyNames();
  spec.pool = &pool;
  std::vector<driver::PolicyRun> runs = driver::RunSweep(spec).runs;

  std::printf("-- Average wait time (Fig. 8 shape) --\n%s\n",
              driver::WaitTimeTable(runs).ToString().c_str());
  std::printf("-- Average response time (Fig. 9 shape) --\n%s\n",
              driver::ResponseTimeTable(runs).ToString().c_str());
  std::printf("-- System utilization (Fig. 10 shape) --\n%s\n",
              driver::UtilizationTable(runs).ToString().c_str());
  std::printf("-- Diagnostics --\n");
  for (const driver::PolicyRun& run : runs) {
    std::printf(
        "%-12s expansion %.3f | io_slowdown %.3f | events %llu | cycles %llu "
        "| %.2fs wall\n",
        run.policy.c_str(), run.report.avg_runtime_expansion,
        run.report.avg_io_slowdown,
        static_cast<unsigned long long>(run.events_processed),
        static_cast<unsigned long long>(run.io_cycles), run.wall_seconds);
  }
  return 0;
}
