#include "driver/cli_flags.h"

#include <cstdio>

#include "driver/config_scenario.h"
#include "workload/app_checkpoint.h"
#include "workload/iotrace.h"
#include "workload/swf.h"

namespace iosched::driver {

void AddScenarioFlags(util::CliParser& cli) {
  cli.AddFlag("workload", "1", "built-in evaluation month (1..3)");
  cli.AddFlag("config", "", "INI scenario file (overrides workload flags)");
  cli.AddFlag("days", "30", "trace duration in days");
  cli.AddFlag("swf", "", "SWF job trace to load");
  cli.AddFlag("io", "", "Darshan-lite I/O trace paired with --swf");
  cli.AddFlag("bwmax", "250", "storage bandwidth cap BWmax in GB/s");
  cli.AddFlag("factor", "1.0", "I/O expansion factor applied to the workload");
}

void AddBurstBufferFlags(util::CliParser& cli) {
  cli.AddFlag("bb-capacity", "0",
              "burst-buffer capacity in GB (0 = no buffer; a positive value "
              "enables the tier with the --bb-drain rate)");
  cli.AddFlag("bb-drain", "25",
              "PFS bandwidth reserved for the burst-buffer drain in GB/s");
  cli.AddFlag("bb-absorb", "0",
              "absorb-tier bandwidth cap in GB/s (0 = job link rate)");
  cli.AddFlag("bb-quota", "0",
              "per-job burst-buffer staging quota in GB (0 = uncapped)");
  cli.AddFlag("bb-watermark", "0.9",
              "occupancy fraction above which the buffer reports congestion");
}

void AddAppCheckpointFlags(util::CliParser& cli) {
  cli.AddFlag("app-ckpt-mtbf", "0",
              "application MTBF in seconds; a positive value enables "
              "checkpoint traffic (Young/Daly flushes), the MTBF failure "
              "process, and restart-from-checkpoint semantics");
  cli.AddFlag("app-ckpt-defer", "600",
              "maximum seconds a checkpoint flush may be deferred under "
              "congestion (0 = flushes are never deferred)");
  cli.AddFlag("app-ckpt-min-interval", "120",
              "lower clamp on the Young/Daly checkpoint interval in seconds");
  cli.AddFlag("app-ckpt-seed", "1",
              "seed for the per-job application-class draws");
}

std::optional<int> ParseStandardFlags(util::CliParser& cli, int argc,
                                      const char* const* argv) {
  cli.AddBoolFlag("help", "show usage");
  if (!cli.Parse(argc, argv)) {
    std::fprintf(stderr, "%s\n%s", cli.error().c_str(), cli.Help().c_str());
    return 1;
  }
  if (cli.GetBool("help")) {
    std::fputs(cli.Help().c_str(), stdout);
    return 0;
  }
  return std::nullopt;
}

Scenario ScenarioFromFlags(const util::CliParser& cli) {
  Scenario scenario;
  if (cli.Provided("config")) {
    scenario = ScenarioFromConfigFile(cli.GetString("config"));
    if (cli.Provided("bwmax")) {
      scenario.config.storage.max_bandwidth_gbps = cli.GetDouble("bwmax");
    }
    return scenario;
  }
  scenario.config.machine = machine::MachineConfig::Mira();
  scenario.config.storage.max_bandwidth_gbps = cli.GetDouble("bwmax");
  if (cli.Provided("swf")) {
    workload::SwfTrace swf = workload::ReadSwfFile(cli.GetString("swf"));
    workload::IoTrace io;
    if (cli.Provided("io")) {
      io = workload::ReadIoTraceFile(cli.GetString("io"));
    }
    workload::PairingOptions opts;
    opts.node_bandwidth_gbps = scenario.config.machine.node_bandwidth_gbps;
    scenario.jobs = workload::PairTraces(swf, io, opts);
    scenario.name = cli.GetString("swf");
  } else {
    int index = static_cast<int>(cli.GetInt("workload"));
    scenario = MakeEvaluationScenario(index, cli.GetDouble("days"));
    scenario.config.storage.max_bandwidth_gbps = cli.GetDouble("bwmax");
  }
  double factor = cli.GetDouble("factor");
  if (factor != 1.0) {
    scenario = WithExpansionFactor(scenario, factor);
  }
  return scenario;
}

void ApplyBurstBufferFlags(const util::CliParser& cli,
                           core::SimulationConfig& config) {
  storage::BurstBufferConfig& bb = config.burst_buffer;
  if (cli.Provided("bb-capacity")) {
    bb.capacity_gb = cli.GetDouble("bb-capacity");
    // A capacity without a drain rate is never a valid tier, so enabling
    // the buffer from the command line pulls in the drain default too.
    if (bb.capacity_gb > 0 && bb.drain_gbps <= 0) {
      bb.drain_gbps = cli.GetDouble("bb-drain");
    }
  }
  if (cli.Provided("bb-drain")) bb.drain_gbps = cli.GetDouble("bb-drain");
  if (cli.Provided("bb-absorb")) bb.absorb_gbps = cli.GetDouble("bb-absorb");
  if (cli.Provided("bb-quota")) {
    bb.per_job_quota_gb = cli.GetDouble("bb-quota");
  }
  if (cli.Provided("bb-watermark")) {
    bb.congestion_watermark = cli.GetDouble("bb-watermark");
  }
}

ScenarioFactory ReplicationFactoryFromFlags(const util::CliParser& cli) {
  ScenarioFactory month = EvaluationMonthFactory(
      static_cast<int>(cli.GetInt("workload")), cli.GetDouble("days"));
  // Resolve the flags once: the factory runs on pool threads, after the
  // parser may be gone. The built-in months attach no buffer, so overlaying
  // the flags on a default config equals overlaying them on each seed's.
  core::SimulationConfig flags;
  flags.storage.max_bandwidth_gbps = cli.GetDouble("bwmax");
  ApplyBurstBufferFlags(cli, flags);
  return [month = std::move(month), flags](std::uint64_t seed) {
    Scenario scenario = month(seed);
    scenario.config.storage.max_bandwidth_gbps =
        flags.storage.max_bandwidth_gbps;
    scenario.config.burst_buffer = flags.burst_buffer;
    return scenario;
  };
}

void ApplyAppCheckpointFlags(const util::CliParser& cli, Scenario& scenario) {
  double mtbf = cli.GetDouble("app-ckpt-mtbf");
  if (mtbf <= 0) return;
  workload::AppCheckpointConfig ac;
  ac.enabled = true;
  ac.mtbf_seconds = mtbf;
  if (cli.Provided("app-ckpt-min-interval")) {
    ac.min_interval_seconds = cli.GetDouble("app-ckpt-min-interval");
  }
  if (cli.Provided("app-ckpt-seed")) {
    ac.seed = static_cast<std::uint64_t>(cli.GetInt("app-ckpt-seed"));
  }
  workload::ApplyCheckpointTraffic(
      scenario.jobs, ac, scenario.config.machine.node_bandwidth_gbps);
  scenario.config.app_checkpoint.enabled = true;
  scenario.config.app_checkpoint.max_defer_seconds =
      cli.GetDouble("app-ckpt-defer");
  scenario.config.faults.plan_config.enabled = true;
  scenario.config.faults.plan_config.job_mtbf_seconds = mtbf;
  scenario.config.faults.restart_mode =
      faults::RestartMode::kRestartFromAppCheckpoint;
}

}  // namespace iosched::driver
