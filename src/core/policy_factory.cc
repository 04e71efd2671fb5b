#include "core/policy_factory.h"

#include <stdexcept>

#include "core/adaptive_policy.h"
#include "core/baseline_policy.h"
#include "core/conservative_policy.h"
#include "util/strings.h"

namespace iosched::core {

namespace {

template <typename Policy, auto... args>
std::unique_ptr<IoPolicy> Make() {
  return std::make_unique<Policy>(args...);
}

const PolicyEntry* FindEntry(const std::string& name) {
  std::string n = util::ToLower(name);
  for (const PolicyEntry& entry : PolicyRegistry()) {
    if (n == util::ToLower(entry.name)) return &entry;
    for (const char* alias : entry.aliases) {
      if (n == alias) return &entry;
    }
  }
  return nullptr;
}

}  // namespace

std::span<const PolicyEntry> PolicyRegistry() {
  using Order = ConservativeOrder;
  static const PolicyEntry kRegistry[] = {
      {"BASE_LINE", {"baseline"}, Make<BaselinePolicy>},
      {"FCFS", {"cons_fcfs", "cons-fcfs"},
       Make<ConservativePolicy, Order::kFcfs>},
      {"MAX_UTIL", {"cons_maxutil", "cons-maxutil"},
       Make<ConservativePolicy, Order::kMaxUtil>},
      {"MIN_INST_SLD", {"cons_mininstsld"},
       Make<ConservativePolicy, Order::kMinInstSld>},
      {"MIN_AGGR_SLD", {"cons_minaggrsld"},
       Make<ConservativePolicy, Order::kMinAggrSld>},
      {"ADAPTIVE", {}, Make<AdaptivePolicy>},
      {"BASE_LINE_MAXMIN", {"maxmin"}, Make<MaxMinPolicy>},
      {"WSJF", {"smith"}, Make<ConservativePolicy, Order::kSmithRule>},
  };
  return kRegistry;
}

const std::vector<std::string>& AllPolicyNames() {
  static const std::vector<std::string> kNames = [] {
    std::vector<std::string> names;
    for (const PolicyEntry& entry : PolicyRegistry()) {
      names.emplace_back(entry.name);
    }
    return names;
  }();
  return kNames;
}

bool KnownPolicyName(const std::string& name) {
  return FindEntry(name) != nullptr;
}

std::string PolicyNamesHelp() {
  std::string help;
  for (const PolicyEntry& entry : PolicyRegistry()) {
    if (!help.empty()) help += "|";
    help += entry.name;
  }
  return help;
}

std::unique_ptr<IoPolicy> MakePolicy(const std::string& name) {
  const PolicyEntry* entry = FindEntry(name);
  if (entry == nullptr) {
    throw std::invalid_argument("MakePolicy: unknown policy '" + name +
                                "' (valid: " + PolicyNamesHelp() + ")");
  }
  return entry->make();
}

}  // namespace iosched::core
