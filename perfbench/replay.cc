// Replay runner of the repo benchmark: builds one workload from a seed,
// replays it in a single thread, repeatedly, until the measuring time is
// spent, and prints one "@pb {json}" line per set-up, replay, resume check
// and pass for perfbench/run.py to aggregate; set-ups and replays carry the
// host-speed probe taken just before them. Every pass replays the same
// inputs, so its digests must repeat; run.py checks them against the pins.
//
//   perfbench_replay --workload year|paper_grid|resilience --seed N
//                    --seconds S --scratch DIR [--chrome-trace PATH]
//
// The traced binary (same sources, link-time wrappers) additionally binds an
// obs::Hub to every replay and reports span totals per pass.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <memory>
#include <queue>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ckpt/checkpoint.h"
#include "core/simulation.h"
#include "driver/scenario.h"
#include "figure_common.h"
#include "metrics/digest.h"
#include "obs/hub.h"
#include "trace.h"
#include "util/rng.h"
#include "workload/app_checkpoint.h"

namespace {

using namespace iosched;
namespace trace = perfbench::trace;
using Clock = std::chrono::steady_clock;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// The paper's six policies, in the paper's order.
const std::vector<std::string> kPaperPolicies = {
    "BASE_LINE", "FCFS", "MAX_UTIL", "MIN_INST_SLD", "MIN_AGGR_SLD",
    "ADAPTIVE"};

// resilience: every timed replay writes an engine snapshot each simulated
// week. The resume check replays WL1/ADAPTIVE once more with a snapshot each
// simulated day and resumes from the second-to-last one: with seed 0 that is
// the 39th, where the resumed run's io_scheduling_cycles reads one short of
// the uninterrupted run (a known defect; the digest matches).
constexpr double kSnapshotEvery = 7.0 * 86400.0;
constexpr double kResumeSnapshotEvery = 86400.0;

/// Host-speed probe, in seconds: the geometric mean of three short kernels
/// that share no code with the simulator: a chain of dependent loads
/// through a random map over 4 MB (cache and TLB misses), one around a
/// cycle of 1,280 cache lines, and heap plus hash-map churn. On a shared
/// host the replays slow down and speed up by up to half for seconds at a
/// time as other tenants load the caches; run.py divides each timed
/// interval by the probes taken next to it, which removes most of that
/// drift (README.md).
double Probe() {
  static const std::vector<std::uint32_t> random_map = [] {
    std::vector<std::uint32_t> map(std::size_t{1} << 20);
    util::Rng rng(11, 5);
    for (std::uint32_t& next : map) {
      next = static_cast<std::uint32_t>(rng.UniformInt(0, (1 << 20) - 1));
    }
    return map;
  }();
  static const std::vector<std::uint32_t> cycle = [] {
    constexpr std::uint32_t kLines = 1280;
    constexpr std::uint32_t kStride = 16;  // one 64-byte line per entry
    std::vector<std::uint32_t> order(kLines);
    for (std::uint32_t i = 0; i < kLines; ++i) order[i] = i;
    util::Rng rng(13, 5);
    for (std::uint32_t i = kLines - 1; i > 0; --i) {  // Sattolo: one cycle
      std::swap(order[i], order[rng.UniformInt(0, i - 1)]);
    }
    std::vector<std::uint32_t> table(kLines * kStride, 0);
    for (std::uint32_t i = 0; i < kLines; ++i) {
      table[order[i] * kStride] = order[(i + 1) % kLines] * kStride;
    }
    return table;
  }();
  auto chase = [](const std::vector<std::uint32_t>& table, std::uint32_t at) {
    auto t0 = Clock::now();
    for (int i = 0; i < 100000; ++i) at = table[at];
    const double seconds = Since(t0);
    if (at == 0xffffffffu) throw std::logic_error("probe");  // keeps the loop
    return seconds;
  };
  const double map_s = chase(random_map, 1);
  const double cycle_s = chase(cycle, 0);

  auto t0 = Clock::now();
  util::Rng rng(7, 3);
  std::priority_queue<double> heap;
  std::unordered_map<std::uint64_t, double> counts;
  double sink = 0.0;
  for (int i = 0; i < 24000; ++i) {
    heap.push(rng.Uniform(0.0, 1e6));
    counts[static_cast<std::uint64_t>(rng.UniformInt(0, 8000))] += 1.0;
    if (i % 3 == 0) {
      sink += heap.top();
      heap.pop();
    }
  }
  const double churn_s = Since(t0);
  if (sink < 0.0) throw std::logic_error("probe");
  return std::cbrt(map_s * cycle_s * churn_s);
}

/// One "@pb" output line: a flat JSON object built field by field.
class Line {
 public:
  explicit Line(const char* kind)
      : body_("{\"kind\": \"" + Esc(kind) + "\"") {}
  Line& Str(const char* key, const std::string& value) {
    body_ += ", \"" + std::string(key) + "\": \"" + Esc(value) + "\"";
    return *this;
  }
  Line& Num(const char* key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return Raw(key, buf);
  }
  Line& Int(const char* key, std::uint64_t value) {
    return Raw(key, std::to_string(value));
  }
  Line& SInt(const char* key, std::int64_t value) {
    return Raw(key, std::to_string(value));
  }
  Line& Raw(const char* key, const std::string& json) {
    body_ += ", \"" + std::string(key) + "\": " + json;
    return *this;
  }
  void Emit() {
    std::printf("@pb %s}\n", body_.c_str());
    std::fflush(stdout);
  }

 private:
  static std::string Esc(const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c == '\n' ? ' ' : c);
    }
    return out;
  }
  std::string body_;
};

template <typename T>
std::string JsonArray(const std::vector<T>& values) {
  std::string out = "[";
  for (const T& value : values) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.17g", out.size() > 1 ? ", " : "",
                  static_cast<double>(value));
    out += buf;
  }
  return out + "]";
}

// Seed 0 replays the repository's scenarios as they are. Any other seed
// keeps every job and stretches or shrinks each inter-arrival gap by a
// factor drawn from [0.99, 1.01): a different schedule of the same work, so
// run cost stays comparable across seeds while the digests differ.
void PerturbArrivals(workload::Workload& jobs, std::uint64_t seed) {
  if (seed == 0) return;
  util::Rng rng(seed, /*stream=*/9001);
  double previous = jobs.empty() ? 0.0 : jobs.front().submit_time;
  double shifted = previous;
  for (workload::Job& job : jobs) {
    const double gap = job.submit_time - previous;
    previous = job.submit_time;
    shifted += gap * rng.Uniform(0.99, 1.01);
    job.submit_time = shifted;
  }
}

// The fig_ckpt_storm cell: Young/Daly flushes from heavy checkpointers, a
// 2 h per-job MTBF with restart from the application checkpoint, an 8 TB
// burst buffer draining at 50 GB/s, and 600 s flush deferral.
void MakeStorm(driver::Scenario& scenario) {
  const double mtbf_seconds = 2.0 * 3600.0;
  workload::AppCheckpointConfig ac;
  ac.enabled = true;
  ac.mtbf_seconds = mtbf_seconds;
  ac.classes = {{2.0, 0.45}, {8.0, 0.40}, {32.0, 0.15}};
  workload::ApplyCheckpointTraffic(scenario.jobs, ac,
                                   scenario.config.machine.node_bandwidth_gbps);
  core::SimulationConfig& config = scenario.config;
  config.app_checkpoint.enabled = true;
  config.app_checkpoint.max_defer_seconds = 600.0;
  config.faults.plan_config.enabled = true;
  config.faults.plan_config.seed = 42;
  config.faults.plan_config.job_mtbf_seconds = mtbf_seconds;
  config.faults.restart_mode = faults::RestartMode::kRestartFromAppCheckpoint;
  config.burst_buffer.capacity_gb = 8192.0;
  config.burst_buffer.drain_gbps = 50.0;
}

struct Cell {
  std::size_t scenario = 0;
  std::string policy;
};

struct Workload {
  std::vector<driver::Scenario> scenarios;
  std::vector<Cell> cells;
  bool snapshots = false;  // resilience: periodic snapshots + resume check
};

/// Generate the workload's inputs, apply the checkpoint-traffic transform,
/// and validate every job list and cell config. This is what setup_s times.
Workload Setup(const std::string& name, std::uint64_t seed) {
  Workload w;
  std::vector<std::string> policies = {"BASE_LINE"};
  if (name == "year") {
    w.scenarios.push_back(driver::MakeYearScenario(365.0));
  } else if (name == "paper_grid" || name == "resilience") {
    for (int index = 1; index <= 3; ++index) {
      w.scenarios.push_back(driver::MakeEvaluationScenario(index, 30.0));
    }
    policies = kPaperPolicies;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  for (driver::Scenario& s : w.scenarios) PerturbArrivals(s.jobs, seed);
  if (name == "resilience") {
    for (driver::Scenario& s : w.scenarios) MakeStorm(s);
    policies = {"BASE_LINE", "ADAPTIVE"};
    w.snapshots = true;
  }
  for (std::size_t s = 0; s < w.scenarios.size(); ++s) {
    std::vector<std::string> problems =
        workload::ValidateWorkload(w.scenarios[s].jobs);
    if (!problems.empty()) {
      throw std::runtime_error(w.scenarios[s].name + ": " + problems.front());
    }
    for (const std::string& policy : policies) {
      core::SimulationConfig config = w.scenarios[s].config;
      config.policy = policy;
      std::vector<core::ConfigIssue> issues = config.Validate();
      if (!issues.empty()) {
        throw std::runtime_error(w.scenarios[s].name + "/" + policy + ": " +
                                 issues.front().field + " " +
                                 issues.front().message);
      }
      w.cells.push_back(Cell{s, policy});
    }
  }
  return w;
}

/// Exact counters of one traced replay, read from its obs::Hub.
void AddHubCounters(Line& line, const obs::Hub& hub,
                    const core::SimulationResult& result) {
  line.Int("sim.events", hub.events_processed->value())
      .Int("sched.passes", hub.sched_passes->value())
      .Int("sched.backfill_starts", hub.backfill_starts->value())
      .Int("sched.jobs_started", hub.jobs_started->value())
      .Int("sched.jobs_requeued", hub.jobs_requeued->value())
      .Int("sched.jobs_fault_killed", hub.jobs_fault_killed->value())
      .Int("core.io_cycles", hub.io_cycles->value())
      .Int("core.io_requests", hub.io_requests->value())
      .Int("core.congested_cycles", hub.congested_cycles->value())
      .Int("core.throttled_grants", hub.throttled_grants->value())
      .Int("core.knapsack_invocations", hub.knapsack_invocations->value())
      .Int("core.flush_deferrals", result.flush_deferrals)
      .Int("storage.waterfill_iterations", hub.waterfill_iterations->value())
      .Int("storage.bb_absorbed_requests", hub.bb_absorbed_requests->value())
      .Int("storage.bb_spilled_requests", hub.bb_spilled_requests->value())
      .Int("ckpt.written", result.checkpoints_written);
  line.Raw("queue_depth_bounds", JsonArray(hub.queue_depth_hist->bounds()))
      .Raw("queue_depth_counts", JsonArray(hub.queue_depth_hist->counts()));
}

struct Snapshots {
  std::uint64_t files = 0;
  std::uint64_t bytes = 0;
};

Snapshots CountSnapshots(const std::string& dir) {
  Snapshots out;
  for (const auto& [seq, path] : ckpt::ListCheckpoints(dir)) {
    ++out.files;
    out.bytes += std::filesystem::file_size(path);
  }
  return out;
}

/// The cell's config; the traced binary binds a counters-only obs::Hub.
core::SimulationConfig CellConfig(const Workload& w, const Cell& cell,
                                  std::unique_ptr<obs::Hub>& hub) {
  core::SimulationConfig config = w.scenarios[cell.scenario].config;
  config.policy = cell.policy;
  if (trace::Enabled()) {
    // No sampler ticks (they would add events) and the smallest tracer ring.
    config.obs.enabled = true;
    config.obs.sample_dt_seconds = 0.0;
    config.obs.trace_capacity = 1;
    hub = std::make_unique<obs::Hub>(config.obs);
  }
  return config;
}

/// Span totals since the last trace::Reset, as a JSON array.
std::string SpanRows() {
  std::string rows = "[";
  for (const trace::Row& row : trace::Rows()) {
    if (row.calls == 0) continue;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\": \"%s\", \"calls\": %" PRIu64
                  ", \"s\": %.17g, \"self_s\": %.17g}",
                  rows.size() > 1 ? ", " : "", row.name.c_str(), row.calls,
                  row.s, row.self_s);
    rows += buf;
  }
  return rows + "]";
}

/// Once per run, before the passes: replay WL1/ADAPTIVE with daily
/// snapshots, resume from the second-to-last snapshot, and compare. The
/// digest must match; engine-counter deltas are reported as they are.
void ResumeCheck(const Workload& w, const std::string& scratch) {
  const Cell cell{0, "ADAPTIVE"};
  const std::string dir = scratch + "/resume";
  std::filesystem::remove_all(dir);
  Line line("resume");
  line.Str("month", w.scenarios[cell.scenario].name).Str("policy", cell.policy);
  try {
    std::unique_ptr<obs::Hub> hub;
    core::SimulationConfig config = CellConfig(w, cell, hub);
    config.checkpoint.directory = dir;
    config.checkpoint.every_sim_seconds = kResumeSnapshotEvery;
    config.checkpoint.keep_last = 0;
    const workload::Workload& jobs = w.scenarios[cell.scenario].jobs;
    const core::SimulationResult uninterrupted =
        core::RunSimulation(config, jobs, nullptr, hub.get());
    const std::uint64_t digest = metrics::DigestRecords(uninterrupted.records);

    const auto snapshots = ckpt::ListCheckpoints(dir);
    if (snapshots.size() < 2) {
      throw std::runtime_error("fewer than two snapshots were written");
    }
    const auto& [sequence, path] = snapshots[snapshots.size() - 2];
    config.checkpoint = ckpt::Options{};
    config.checkpoint.resume_from = path;
    hub.reset();
    if (trace::Enabled()) hub = std::make_unique<obs::Hub>(config.obs);
    auto t0 = Clock::now();
    const core::SimulationResult resumed =
        core::RunSimulation(config, jobs, nullptr, hub.get());
    const double seconds = Since(t0);
    const std::uint64_t resumed_digest =
        metrics::DigestRecords(resumed.records);
    auto delta = [](std::uint64_t a, std::uint64_t b) {
      return static_cast<std::int64_t>(a) - static_cast<std::int64_t>(b);
    };
    line.Int("snapshot", sequence)
        .Num("s", seconds)
        .Str("digest", metrics::HexDigest(resumed_digest))
        .Raw("ok", resumed_digest == digest &&
                           resumed.records.size() ==
                               uninterrupted.records.size()
                       ? "true"
                       : "false")
        .SInt("events_delta",
              delta(resumed.events_processed, uninterrupted.events_processed))
        .SInt("cycles_delta", delta(resumed.io_scheduling_cycles,
                                    uninterrupted.io_scheduling_cycles))
        .SInt("io_requests_delta",
              delta(resumed.io_requests, uninterrupted.io_requests))
        .SInt("flush_deferrals_delta",
              delta(resumed.flush_deferrals, uninterrupted.flush_deferrals))
        .SInt("forced_flush_releases_delta",
              delta(resumed.forced_flush_releases,
                    uninterrupted.forced_flush_releases));
  } catch (const std::exception& e) {
    line.Raw("ok", "false").Str("error", e.what());
  }
  if (trace::Enabled()) line.Raw("spans", SpanRows());
  line.Emit();
  std::filesystem::remove_all(dir);
}

/// One pass: every cell of the workload, in sequence.
void RunPass(const Workload& w, int pass, const std::string& scratch) {
  if (trace::Enabled()) trace::Reset();
  double pass_seconds = 0.0;
  std::uint64_t pass_jobs = 0;
  for (const Cell& cell : w.cells) {
    const driver::Scenario& scenario = w.scenarios[cell.scenario];
    std::unique_ptr<obs::Hub> hub;
    core::SimulationConfig config = CellConfig(w, cell, hub);
    const std::string dir = scratch + "/snapshots";
    if (w.snapshots) {
      std::filesystem::remove_all(dir);
      config.checkpoint.directory = dir;
      config.checkpoint.every_sim_seconds = kSnapshotEvery;
      config.checkpoint.keep_last = 0;
    }
    Line line("replay");
    line.SInt("pass", pass).Str("month", scenario.name).Str("policy",
                                                            cell.policy);
    try {
      const double probe = Probe();
      trace::BeginWindow();
      auto t0 = Clock::now();
      core::SimulationResult result =
          core::RunSimulation(config, scenario.jobs, nullptr, hub.get());
      const double seconds = Since(t0);
      trace::EndWindow();
      const std::uint64_t digest = metrics::DigestRecords(result.records);
      const metrics::Report& r = result.report;
      pass_seconds += seconds;
      pass_jobs += result.records.size();
      line.Num("s", seconds)
          .Num("probe_s", probe)
          .Int("jobs", result.records.size())
          .Int("generated_jobs", scenario.jobs.size())
          .Str("digest", metrics::HexDigest(digest))
          .Int("events", result.events_processed)
          .Int("cycles", result.io_scheduling_cycles)
          .Int("io_requests", result.io_requests)
          .Int("completed_jobs", r.job_count - r.abandoned_job_count)
          .Num("avg_wait_s", r.avg_wait_seconds)
          .Num("avg_response_s", r.avg_response_seconds)
          .Num("util", r.utilization);
      if (hub) AddHubCounters(line, *hub, result);
      if (w.snapshots) {
        Snapshots snaps = CountSnapshots(dir);
        line.Int("snapshots", snaps.files).Int("snapshot_bytes", snaps.bytes);
      }
      line.Emit();
    } catch (const std::exception& e) {
      trace::EndWindow();
      line.Str("error", e.what()).Emit();
    }
    if (w.snapshots) std::filesystem::remove_all(dir);
  }
  Line line("pass");
  line.Num("probe_s", Probe());
  line.SInt("pass", pass).Num("replay_s", pass_seconds).Int("jobs", pass_jobs);
  if (trace::Enabled()) {
    line.Num("top_level_s", trace::TopLevelSeconds())
        .Raw("spans", SpanRows());
  }
  line.Emit();
}

void EmitPaperValues() {
  auto series = [](const bench::PaperSeries& paper) {
    std::string out = "{";
    for (const auto& [policy, values] : paper) {
      out += (out.size() > 1 ? ", \"" : "\"") + policy +
             "\": " + JsonArray(values);
    }
    return out + "}";
  };
  Line("paper")
      .Raw("wait_min", series(bench::PaperFig8Wait()))
      .Raw("response_min", series(bench::PaperFig9Response()))
      .Raw("util_rel", series(bench::PaperFig10Utilization()))
      .Emit();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  std::string scratch = ".";
  std::string chrome_trace;
};

Args Parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--scratch") {
      args.scratch = value;
    } else if (key == "--chrome-trace") {
      args.chrome_trace = value;
    } else {
      throw std::invalid_argument("unknown flag " + key);
    }
  }
  if (args.workload.empty()) throw std::invalid_argument("--workload needed");
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = Parse(argc, argv);
    Line("build")
        .Str("compiler", PERFBENCH_COMPILER)
        .Str("build_type", PERFBENCH_BUILD_TYPE)
        .Raw("traced", trace::Enabled() ? "true" : "false")
        .Emit();
    if (args.workload == "paper_grid") EmitPaperValues();

    // Set up at least three times and for at least two seconds (at most 200
    // times); replay the inputs of the last set-up.
    Workload w;
    double setup_total = 0.0;
    for (int i = 0; i < 200 && (i < 3 || setup_total < 2.0); ++i) {
      // Probe before freeing the previous inputs, so that the probe always
      // follows a set-up rather than a large free.
      const double probe = Probe();
      w = Workload{};
      auto t0 = Clock::now();
      w = Setup(args.workload, args.seed);
      const double seconds = Since(t0);
      setup_total += seconds;
      Line("setup").Num("s", seconds).Num("probe_s", probe).Emit();
    }
    Line("probe").Num("probe_s", Probe()).Emit();

    std::filesystem::create_directories(args.scratch);
    if (w.snapshots) ResumeCheck(w, args.scratch);
    auto start = Clock::now();
    for (int pass = 0; pass == 0 || Since(start) < args.seconds; ++pass) {
      RunPass(w, pass, args.scratch);
      if (pass == 0 && !args.chrome_trace.empty()) {
        std::uint64_t dropped = 0;
        std::uint64_t written =
            trace::WriteChromeTrace(args.chrome_trace, dropped);
        Line("chrome_trace")
            .Str("path", args.chrome_trace)
            .Int("spans", written)
            .Int("dropped", dropped)
            .Emit();
      }
    }

    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    Line("end")
        .Num("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0)
        .Emit();
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_replay: %s\n", e.what());
    return 1;
  }
}
