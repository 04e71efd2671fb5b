// Shared scaffolding for the paper-figure benchmarks: runs the evaluation
// months under every policy and prints measured-vs-paper tables.
//
// Absolute numbers are not expected to match the paper (our substrate is a
// synthetic Mira, not the authors' 2014 traces); the *shape* — who wins and
// by roughly what factor — is the reproduction target. The paper reference
// values are digitized from the published bar charts and are approximate.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "core/policy_factory.h"
#include "driver/experiment.h"
#include "driver/scenario.h"
#include "driver/sweep.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "util/units.h"

namespace iosched::bench {

/// Paper-reported values digitized from a figure: policy -> value per
/// workload (index 0..2 for WL1..WL3).
using PaperSeries = std::map<std::string, std::vector<double>>;

/// Approximate readings of Figure 8 (average wait time, minutes).
inline PaperSeries PaperFig8Wait() {
  return {{"BASE_LINE", {700, 450, 400}},    {"FCFS", {640, 430, 390}},
          {"MAX_UTIL", {650, 450, 380}},     {"MIN_INST_SLD", {640, 490, 370}},
          {"MIN_AGGR_SLD", {560, 380, 310}}, {"ADAPTIVE", {480, 310, 280}}};
}

/// Approximate readings of Figure 9 (average response time, minutes).
inline PaperSeries PaperFig9Response() {
  return {{"BASE_LINE", {820, 620, 540}},    {"FCFS", {790, 615, 530}},
          {"MAX_UTIL", {800, 680, 520}},     {"MIN_INST_SLD", {780, 640, 500}},
          {"MIN_AGGR_SLD", {690, 520, 430}}, {"ADAPTIVE", {610, 530, 370}}};
}

/// Approximate readings of Figure 10 (utilization normalized to BASE_LINE).
inline PaperSeries PaperFig10Utilization() {
  return {{"BASE_LINE", {1.00, 1.00, 1.00}},    {"FCFS", {0.99, 0.92, 0.99}},
          {"MAX_UTIL", {1.08, 1.00, 1.10}},     {"MIN_INST_SLD", {0.98, 0.91, 1.00}},
          {"MIN_AGGR_SLD", {0.99, 0.98, 1.01}}, {"ADAPTIVE", {1.00, 0.99, 1.00}}};
}

/// Simulation duration used by the figure benches. The paper uses full
/// months; override with IOSCHED_BENCH_DAYS for quick runs.
inline double BenchDays() {
  if (const char* env = std::getenv("IOSCHED_BENCH_DAYS")) {
    double days = std::atof(env);
    if (days > 0) return days;
  }
  return 30.0;
}

/// Run every greedy policy (AllPolicyNames()) on evaluation month `index`
/// (1..3).
inline std::vector<driver::PolicyRun> RunMonth(int index,
                                               util::ThreadPool& pool) {
  driver::Scenario scenario =
      driver::MakeEvaluationScenario(index, BenchDays());
  driver::SweepSpec spec;
  spec.scenario = &scenario;
  spec.policies = core::AllPolicyNames();
  spec.pool = &pool;
  return driver::RunSweep(spec).runs;
}

/// Print one workload's measured-vs-paper table for a time metric.
inline void PrintTimeFigure(const char* figure, int workload_index,
                            const std::vector<driver::PolicyRun>& runs,
                            const PaperSeries& paper,
                            double (*metric_seconds)(const metrics::Report&)) {
  util::Table table({"policy", "measured (min)", "vs BASE_LINE",
                     "paper (min)", "paper vs BASE_LINE"});
  double base_measured = metric_seconds(runs.front().report);
  double base_paper = paper.at("BASE_LINE")[workload_index - 1];
  for (const auto& run : runs) {
    double measured = metric_seconds(run.report);
    // Policies beyond the paper have no paper series; leave their paper
    // cells blank instead of throwing.
    auto series = paper.find(run.policy);
    std::string paper_cell = "-";
    std::string paper_delta_cell = "-";
    if (series != paper.end()) {
      double paper_value = series->second[workload_index - 1];
      paper_cell = util::Table::Num(paper_value, 0);
      paper_delta_cell = util::Table::Percent(paper_value / base_paper - 1.0, 1);
    }
    table.AddRow({run.policy,
                  util::Table::Num(util::SecondsToMinutes(measured), 1),
                  util::Table::Percent(
                      base_measured > 0 ? measured / base_measured - 1.0 : 0.0,
                      1),
                  paper_cell, paper_delta_cell});
  }
  std::printf("%s — Workload %d\n%s\n", figure, workload_index,
              table.ToString().c_str());
}

}  // namespace iosched::bench
