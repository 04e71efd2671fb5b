// Construction of I/O policies by their figure names. This registry is the
// single source of truth for policy names: the CLI's --policy flag, the INI
// [simulation] policy key, driver SweepSpecs, and the bench figures all
// resolve names through it, and an unknown name always fails with the full
// list of valid options.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/io_policy.h"

namespace iosched::core {

/// Every greedy policy the factory builds: the paper's figure names, then
/// the extensions without a paper series (prediction-aware, max-min
/// baseline, shortest-job orders).
/// {"BASE_LINE", "FCFS", "MAX_UTIL", "MIN_INST_SLD", "MIN_AGGR_SLD",
///  "ADAPTIVE", "PREDICTIVE", "PREDICTIVE_ADAPTIVE", "BASE_LINE_MAXMIN",
///  "SJF", "WSJF"}.
/// The planning family is deliberately NOT in this list: sweeps and bench
/// figures that iterate "all policies" mean the greedy family; planners are
/// opted into by name (the chaos soak adds them explicitly).
const std::vector<std::string>& AllPolicyNames();

/// The planning (two-phase, finite-horizon) policy family:
/// {"PERIODIC", "PLAN_BF"}.
const std::vector<std::string>& PlanningPolicyNames();

/// True when `name` (case-insensitive, including aliases) names a policy
/// MakePolicy can build.
bool KnownPolicyName(const std::string& name);

/// True when `name` builds a planning (WantsPlanning) policy; false for
/// greedy policies and unknown names.
bool IsPlanningPolicyName(const std::string& name);

/// One "NAME|NAME|..." string over both families, for error messages and
/// CLI help text.
std::string PolicyNamesHelp();

/// Build a policy by name (case-insensitive); throws std::invalid_argument
/// listing the valid options for unknown names.
std::unique_ptr<IoPolicy> MakePolicy(const std::string& name);

}  // namespace iosched::core
