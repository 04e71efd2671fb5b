// Construction of I/O policies by their figure names. The registry table is
// the single source of truth for policy names: the CLI's --policy flag, the
// INI [simulation] policy key, driver SweepSpecs, the chaos soak and the
// bench figures all resolve names through it, and an unknown name always
// fails with the full list of valid options.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/io_policy.h"

namespace iosched::core {

/// One buildable policy: its figure name, the lowercase aliases it also
/// answers to, and its constructor.
struct PolicyEntry {
  const char* name;
  std::vector<const char*> aliases;
  std::unique_ptr<IoPolicy> (*make)();
};

/// Every policy the factory builds: the paper's figure names, then the
/// extensions without a paper series (max-min baseline, Smith's-rule
/// order). Sweeps, the chaos soak and the figures iterate in
/// this order.
std::span<const PolicyEntry> PolicyRegistry();

/// The registry's names, in registry order:
/// {"BASE_LINE", "FCFS", "MAX_UTIL", "MIN_INST_SLD", "MIN_AGGR_SLD",
///  "ADAPTIVE", "BASE_LINE_MAXMIN", "WSJF"}.
const std::vector<std::string>& AllPolicyNames();

/// True when `name` (case-insensitive, including aliases) names a policy
/// MakePolicy can build.
bool KnownPolicyName(const std::string& name);

/// One "NAME|NAME|..." string over the registry, for error messages and
/// CLI help text.
std::string PolicyNamesHelp();

/// Build a policy by name (case-insensitive); throws std::invalid_argument
/// listing the valid options for unknown names.
std::unique_ptr<IoPolicy> MakePolicy(const std::string& name);

}  // namespace iosched::core
