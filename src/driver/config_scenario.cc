#include "driver/config_scenario.h"

#include <cstdint>
#include <stdexcept>
#include <string_view>

#include "faults/fault_plan.h"
#include "sched/queue_policy.h"
#include "util/strings.h"
#include "workload/app_checkpoint.h"
#include "workload/synthetic.h"

namespace iosched::driver {

namespace {
double RequirePositive(const util::Config& config, const std::string& key,
                       double fallback) {
  double value = config.GetDoubleOr(key, fallback);
  if (value <= 0) {
    throw std::runtime_error("config: '" + key + "' must be positive");
  }
  return value;
}

/// Every section ScenarioFromConfig reads.
constexpr std::string_view kSections[] = {
    "machine",        "storage",        "burst_buffer", "batch",
    "faults",         "app_checkpoint", "transfer_retry", "simulation",
    "obs",            "checkpoint",     "policy",       "workload"};

/// A key outside the sections above would be silently ignored, so a stale
/// block or a misspelled section header fails loudly instead.
void RejectUnknownSections(const util::Config& config) {
  for (const std::string& key : config.Keys()) {
    std::size_t dot = key.find('.');
    std::string_view section =
        dot == std::string::npos ? std::string_view()
                                 : std::string_view(key).substr(0, dot);
    bool known = false;
    for (std::string_view s : kSections) known = known || s == section;
    if (!known) {
      std::string sections;
      for (std::string_view s : kSections) {
        sections += sections.empty() ? "" : ", ";
        sections += s;
      }
      throw std::runtime_error("config: unknown key '" + key +
                               "' (known sections: " + sections + ")");
    }
  }
}
}  // namespace

Scenario ScenarioFromConfig(const util::Config& config) {
  RejectUnknownSections(config);
  Scenario scenario;

  // Machine.
  std::string preset =
      util::ToLower(config.GetStringOr("machine.preset", "mira"));
  if (preset == "mira") {
    scenario.config.machine = machine::MachineConfig::Mira();
  } else if (preset == "intrepid") {
    scenario.config.machine = machine::MachineConfig::Intrepid();
  } else if (preset == "small") {
    scenario.config.machine = machine::MachineConfig::Small();
  } else {
    throw std::runtime_error("config: unknown machine.preset '" + preset +
                             "'");
  }
  if (config.Has("machine.node_bandwidth_gbps")) {
    scenario.config.machine.node_bandwidth_gbps =
        RequirePositive(config, "machine.node_bandwidth_gbps", 1.0);
  }

  // Storage / burst buffer.
  scenario.config.storage.max_bandwidth_gbps =
      RequirePositive(config, "storage.bwmax_gbps", 250.0);
  scenario.config.burst_buffer.capacity_gb =
      config.GetDoubleOr("burst_buffer.capacity_gb", 0.0);
  scenario.config.burst_buffer.drain_gbps =
      config.GetDoubleOr("burst_buffer.drain_gbps", 0.0);
  scenario.config.burst_buffer.absorb_gbps =
      config.GetDoubleOr("burst_buffer.absorb_gbps", 0.0);
  scenario.config.burst_buffer.per_job_quota_gb =
      config.GetDoubleOr("burst_buffer.per_job_quota_gb", 0.0);
  scenario.config.burst_buffer.congestion_watermark =
      config.GetDoubleOr("burst_buffer.congestion_watermark", 0.9);

  // Batch scheduler.
  scenario.config.batch.order =
      sched::ParseQueueOrder(config.GetStringOr("batch.order", "wfp"));
  scenario.config.batch.easy_backfill =
      config.GetBoolOr("batch.easy_backfill", true);

  // Fault injection (off unless [faults] enabled=true).
  {
    faults::FaultPlanParams& fp = scenario.config.faults.plan_config;
    fp.enabled = config.GetBoolOr("faults.enabled", false);
    fp.seed = static_cast<std::uint64_t>(config.GetIntOr("faults.seed", 1));
    fp.degraded_fraction = config.GetDoubleOr("faults.degraded_fraction", 0.0);
    fp.degradation_factor =
        config.GetDoubleOr("faults.degradation_factor", 0.5);
    fp.degraded_window_seconds =
        config.GetDoubleOr("faults.degraded_window_seconds", 3600.0);
    fp.midplane_outages =
        static_cast<int>(config.GetIntOr("faults.midplane_outages", 0));
    fp.midplane_outage_seconds =
        config.GetDoubleOr("faults.midplane_outage_seconds", 4.0 * 3600.0);
    fp.job_kill_probability =
        config.GetDoubleOr("faults.job_kill_probability", 0.0);
    fp.bb_faults = static_cast<int>(config.GetIntOr("faults.bb_faults", 0));
    fp.bb_fault_seconds =
        config.GetDoubleOr("faults.bb_fault_seconds", 2.0 * 3600.0);
    fp.bb_fault_lose_data =
        config.GetBoolOr("faults.bb_fault_lose_data", false);
    fp.drain_degraded_fraction =
        config.GetDoubleOr("faults.drain_degraded_fraction", 0.0);
    fp.drain_degradation_factor =
        config.GetDoubleOr("faults.drain_degradation_factor", 0.5);
    fp.drain_window_seconds =
        config.GetDoubleOr("faults.drain_window_seconds", 3600.0);
    fp.straggler_probability =
        config.GetDoubleOr("faults.straggler_probability", 0.0);
    fp.straggler_factor = config.GetDoubleOr("faults.straggler_factor", 0.25);
    fp.job_mtbf_seconds = config.GetDoubleOr("faults.job_mtbf_seconds", 0.0);
    if (fp.enabled) {
      std::string err = fp.Validate();
      if (!err.empty()) throw std::runtime_error("config: [faults] " + err);
    }
    scenario.config.faults.restart_mode =
        faults::ParseRestartMode(config.GetStringOr("faults.restart",
                                                    "resume"));
    scenario.config.batch.max_retries =
        static_cast<int>(config.GetIntOr("faults.max_retries", 3));
    scenario.config.batch.requeue_backoff_seconds =
        config.GetDoubleOr("faults.backoff_seconds", 300.0);
    scenario.config.batch.max_backoff_seconds =
        config.GetDoubleOr("faults.max_backoff_seconds", 4.0 * 3600.0);
    scenario.config.batch.backoff_jitter_fraction =
        config.GetDoubleOr("faults.backoff_jitter_fraction", 0.0);
    scenario.config.batch.backoff_jitter_seed = static_cast<std::uint64_t>(
        config.GetIntOr("faults.backoff_jitter_seed", 1));
  }

  // Application checkpoint traffic + deferrable flush scheduling (off
  // unless [app_checkpoint] enabled=true). The workload transform itself
  // runs after workload generation below.
  {
    scenario.config.app_checkpoint.enabled =
        config.GetBoolOr("app_checkpoint.enabled", false);
    scenario.config.app_checkpoint.max_defer_seconds =
        config.GetDoubleOr("app_checkpoint.max_defer_seconds", 0.0);
  }

  // Transfer deadline/timeout semantics (off unless timeout_seconds > 0).
  {
    core::TransferRetryConfig& tr = scenario.config.transfer_retry;
    tr.timeout_seconds =
        config.GetDoubleOr("transfer_retry.timeout_seconds", 0.0);
    tr.max_retries =
        static_cast<int>(config.GetIntOr("transfer_retry.max_retries", 3));
    tr.backoff_base_seconds =
        config.GetDoubleOr("transfer_retry.backoff_base_seconds", 30.0);
    tr.backoff_max_seconds =
        config.GetDoubleOr("transfer_retry.backoff_max_seconds", 600.0);
    tr.backoff_jitter_fraction =
        config.GetDoubleOr("transfer_retry.backoff_jitter_fraction", 0.0);
    tr.jitter_seed = static_cast<std::uint64_t>(
        config.GetIntOr("transfer_retry.jitter_seed", 1));
  }

  // Invariant checking (read-only; never changes records or digests).
  scenario.config.check_invariants =
      config.GetBoolOr("simulation.check_invariants", false);
  {
    long long every =
        config.GetIntOr("simulation.invariant_check_every_events", 64);
    if (every <= 0) {
      throw std::runtime_error(
          "config: 'simulation.invariant_check_every_events' must be "
          "positive");
    }
    scenario.config.invariant_check_every_events =
        static_cast<std::uint64_t>(every);
  }

  // Observability.
  scenario.config.obs.enabled = config.GetBoolOr("obs.enabled", false);
  scenario.config.obs.sample_dt_seconds =
      config.GetDoubleOr("obs.sample_dt_seconds", 600.0);
  {
    long long cap = config.GetIntOr("obs.trace_capacity",
                                    static_cast<long long>(1u << 20));
    if (cap <= 0) {
      throw std::runtime_error("config: 'obs.trace_capacity' must be positive");
    }
    scenario.config.obs.trace_capacity = static_cast<std::size_t>(cap);
  }

  // Checkpoint / resume (off unless [checkpoint] directory is set).
  {
    ckpt::Options& ck = scenario.config.checkpoint;
    ck.directory = config.GetStringOr("checkpoint.directory", "");
    ck.every_sim_seconds =
        config.GetDoubleOr("checkpoint.every_sim_seconds", 0.0);
    long long every_events = config.GetIntOr("checkpoint.every_events", 0);
    if (every_events < 0) {
      throw std::runtime_error(
          "config: 'checkpoint.every_events' must be >= 0");
    }
    ck.every_events = static_cast<std::uint64_t>(every_events);
    ck.every_wall_seconds =
        config.GetDoubleOr("checkpoint.every_wall_seconds", 0.0);
    ck.keep_last = static_cast<int>(config.GetIntOr("checkpoint.keep_last", 3));
    ck.resume_latest = config.GetBoolOr("checkpoint.resume_latest", false);
  }

  // Policy & simulation knobs. The name is validated (against the factory
  // registry) by SimulationConfig::Validate at run time.
  scenario.config.policy = config.GetStringOr("policy.name", "BASE_LINE");

  scenario.config.enforce_walltime =
      config.GetBoolOr("simulation.enforce_walltime", false);
  scenario.config.warmup_fraction =
      config.GetDoubleOr("simulation.warmup_fraction", 0.05);
  scenario.config.cooldown_fraction =
      config.GetDoubleOr("simulation.cooldown_fraction", 0.05);

  // Workload.
  int month = static_cast<int>(config.GetIntOr("workload.month", 1));
  workload::SyntheticConfig wl = workload::EvaluationMonthConfig(month);
  wl.duration_days = RequirePositive(config, "workload.days", 30.0);
  wl.node_bandwidth_gbps = scenario.config.machine.node_bandwidth_gbps;
  if (config.Has("workload.jobs_per_day")) {
    wl.jobs_per_day = RequirePositive(config, "workload.jobs_per_day", 1.0);
  }
  if (config.Has("workload.checkpoint_period_seconds")) {
    wl.checkpoint_period_seconds =
        RequirePositive(config, "workload.checkpoint_period_seconds", 1.0);
  }
  if (config.Has("workload.io_efficiency_lo")) {
    wl.io_efficiency_lo = config.RequireDouble("workload.io_efficiency_lo");
  }
  if (config.Has("workload.io_efficiency_hi")) {
    wl.io_efficiency_hi = config.RequireDouble("workload.io_efficiency_hi");
  }
  if (config.Has("workload.restart_read_probability")) {
    wl.restart_read_probability =
        config.RequireDouble("workload.restart_read_probability");
  }
  // Drop size classes the configured machine cannot host (a small-machine
  // config with the Mira month presets would otherwise generate unplaceable
  // jobs).
  {
    std::vector<int> menu;
    std::vector<double> weights;
    for (std::size_t i = 0; i < wl.size_menu.size(); ++i) {
      if (wl.size_menu[i] <= scenario.config.machine.total_nodes()) {
        menu.push_back(wl.size_menu[i]);
        weights.push_back(wl.size_weights[i]);
      }
    }
    if (menu.empty()) {
      throw std::runtime_error(
          "config: machine too small for every workload size class");
    }
    wl.size_menu = std::move(menu);
    wl.size_weights = std::move(weights);
  }
  auto seed =
      static_cast<std::uint64_t>(config.GetIntOr("workload.seed", 101));
  scenario.jobs = workload::GenerateWorkload(wl, seed);
  scenario.name = "month" + std::to_string(month) + "/seed" +
                  std::to_string(seed);

  double factor = config.GetDoubleOr("workload.expansion_factor", 1.0);
  if (factor != 1.0) {
    if (factor < 0) {
      throw std::runtime_error("config: negative workload.expansion_factor");
    }
    workload::ApplyExpansionFactor(scenario.jobs, factor);
    scenario.name += "/ef" + std::to_string(factor);
  }

  // Checkpoint-traffic transform, last so Young/Daly intervals see the
  // final (expansion-scaled) compute durations.
  if (scenario.config.app_checkpoint.enabled) {
    workload::AppCheckpointConfig ac;
    ac.enabled = true;
    ac.mtbf_seconds =
        config.GetDoubleOr("app_checkpoint.mtbf_seconds", 4.0 * 3600.0);
    ac.min_interval_seconds =
        config.GetDoubleOr("app_checkpoint.min_interval_seconds", 120.0);
    ac.min_compute_seconds =
        config.GetDoubleOr("app_checkpoint.min_compute_seconds", 300.0);
    ac.seed = static_cast<std::uint64_t>(
        config.GetIntOr("app_checkpoint.seed", 1));
    workload::ApplyCheckpointTraffic(
        scenario.jobs, ac, scenario.config.machine.node_bandwidth_gbps);
    scenario.name += "/ckpt";
  }
  return scenario;
}

Scenario ScenarioFromConfigFile(const std::string& path) {
  return ScenarioFromConfig(util::Config::FromFile(path));
}

}  // namespace iosched::driver
