#include "core/policy_factory.h"

#include <stdexcept>

#include "core/adaptive_policy.h"
#include "core/baseline_policy.h"
#include "core/conservative_policy.h"
#include "core/periodic_policy.h"
#include "core/plan_bf_policy.h"
#include "core/predictive_policy.h"
#include "util/strings.h"

namespace iosched::core {

const std::vector<std::string>& AllPolicyNames() {
  static const std::vector<std::string> kNames = {
      "BASE_LINE", "FCFS", "MAX_UTIL", "MIN_INST_SLD", "MIN_AGGR_SLD",
      "ADAPTIVE", "PREDICTIVE", "PREDICTIVE_ADAPTIVE", "BASE_LINE_MAXMIN",
      "SJF", "WSJF"};
  return kNames;
}

const std::vector<std::string>& PlanningPolicyNames() {
  static const std::vector<std::string> kNames = {"PERIODIC", "PLAN_BF"};
  return kNames;
}

std::string PolicyNamesHelp() {
  std::string help;
  for (const std::string& name : AllPolicyNames()) {
    if (!help.empty()) help += "|";
    help += name;
  }
  for (const std::string& name : PlanningPolicyNames()) {
    help += "|";
    help += name;
  }
  return help;
}

namespace {
std::unique_ptr<IoPolicy> TryMakePolicy(const std::string& name) {
  std::string n = util::ToLower(name);
  if (n == "base_line" || n == "baseline") {
    return std::make_unique<BaselinePolicy>();
  }
  if (n == "base_line_maxmin" || n == "maxmin") {
    return std::make_unique<MaxMinPolicy>();
  }
  if (n == "fcfs" || n == "cons_fcfs" || n == "cons-fcfs") {
    return std::make_unique<ConservativePolicy>(ConservativeOrder::kFcfs);
  }
  if (n == "max_util" || n == "cons_maxutil" || n == "cons-maxutil") {
    return std::make_unique<ConservativePolicy>(ConservativeOrder::kMaxUtil);
  }
  if (n == "min_inst_sld" || n == "cons_mininstsld") {
    return std::make_unique<ConservativePolicy>(
        ConservativeOrder::kMinInstSld);
  }
  if (n == "min_aggr_sld" || n == "cons_minaggrsld") {
    return std::make_unique<ConservativePolicy>(
        ConservativeOrder::kMinAggrSld);
  }
  if (n == "adaptive") {
    return std::make_unique<AdaptivePolicy>();
  }
  if (n == "predictive" || n == "cons_predictive") {
    return std::make_unique<PredictivePolicy>();
  }
  if (n == "predictive_adaptive" || n == "predictive-adaptive") {
    return std::make_unique<AdaptivePolicy>(/*predictive=*/true);
  }
  if (n == "sjf") {
    return std::make_unique<ConservativePolicy>(
        ConservativeOrder::kShortestFirst);
  }
  if (n == "wsjf" || n == "smith") {
    return std::make_unique<ConservativePolicy>(ConservativeOrder::kSmithRule);
  }
  if (n == "periodic") {
    return std::make_unique<PeriodicPolicy>();
  }
  if (n == "plan_bf" || n == "plan-bf" || n == "planbf") {
    return std::make_unique<PlanBfPolicy>();
  }
  return nullptr;
}
}  // namespace

bool KnownPolicyName(const std::string& name) {
  return TryMakePolicy(name) != nullptr;
}

bool IsPlanningPolicyName(const std::string& name) {
  std::unique_ptr<IoPolicy> policy = TryMakePolicy(name);
  return policy != nullptr && policy->WantsPlanning();
}

std::unique_ptr<IoPolicy> MakePolicy(const std::string& name) {
  std::unique_ptr<IoPolicy> policy = TryMakePolicy(name);
  if (policy == nullptr) {
    throw std::invalid_argument("MakePolicy: unknown policy '" + name +
                                "' (valid: " + PolicyNamesHelp() + ")");
  }
  return policy;
}

}  // namespace iosched::core
