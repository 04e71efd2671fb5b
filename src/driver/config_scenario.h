// Build a complete scenario (machine + storage + batch + policy + workload)
// from an INI configuration file, so experiments are reproducible from a
// checked-in config instead of code edits.
//
// Recognized keys (all optional; defaults in parentheses). A key in any
// other section is rejected with an error naming it. The [app_checkpoint],
// [transfer_retry] and [prediction] keys are documented in
// configs/example.ini.
//
//   [machine]
//   preset = mira | intrepid | small (mira)
//   node_bandwidth_gbps = <double>   (preset value)
//
//   [storage]
//   bwmax_gbps = <double>            (250)
//
//   [batch]
//   order = wfp | fcfs               (wfp)
//   easy_backfill = <bool>           (true)
//
//   [policy]
//   name = BASE_LINE | ... | ADAPTIVE | ... | WSJF (BASE_LINE)
//
//   [burst_buffer]
//   capacity_gb = <double>           (0 = disabled)
//   drain_gbps = <double>            (0)     # PFS bandwidth reserved to drain
//   absorb_gbps = <double>           (0 = absorb at the job's link rate)
//   per_job_quota_gb = <double>      (0 = no per-job staging cap)
//   congestion_watermark = <double>  (0.9)   # occupancy fraction -> congested
//
//   [simulation]
//   enforce_walltime = <bool>        (false)
//   warmup_fraction = <double>       (0.05)
//   cooldown_fraction = <double>     (0.05)
//
//   [faults]
//   enabled = <bool>                 (false)
//   seed = <int>                     (1)
//   degraded_fraction = <double>     (0.0)   # fraction of horizon degraded
//   degradation_factor = <double>    (0.5)   # BWmax multiplier when degraded
//   degraded_window_seconds = <double> (3600)
//   midplane_outages = <int>         (0)
//   midplane_outage_seconds = <double> (14400)
//   job_kill_probability = <double>  (0.0)   # per attempt
//   restart = zero | resume          (resume)
//   max_retries = <int>              (3)
//   backoff_seconds = <double>       (300)   # doubles per retry
//   max_backoff_seconds = <double>   (14400)
//
//   [obs]
//   enabled = <bool>                 (false)  # counters + trace + sampler
//   sample_dt_seconds = <double>     (600)    # <= 0 disables the sampler
//   trace_capacity = <int>           (1048576) # tracer ring size, records
//
//   [checkpoint]
//   directory = <path>               ("" = checkpointing disabled)
//   every_sim_seconds = <double>     (0 = trigger off)
//   every_events = <int>             (0 = trigger off)
//   every_wall_seconds = <double>    (0 = trigger off)
//   keep_last = <int>                (3)     # <= 0 keeps everything
//   resume_latest = <bool>           (false) # resume newest valid checkpoint
//
//   [workload]
//   month = 1..3                     (use the built-in evaluation month)
//   days = <double>                  (30)
//   seed = <int>                     (101)
//   expansion_factor = <double>      (1.0)
//   # Generator overrides (applied on top of the month's config):
//   jobs_per_day = <double>
//   checkpoint_period_seconds = <double>
//   io_efficiency_lo / io_efficiency_hi = <double>
//   restart_read_probability = <double>
#pragma once

#include <string>

#include "driver/scenario.h"
#include "util/config.h"

namespace iosched::driver {

/// Build a scenario from a parsed config. Throws std::runtime_error with
/// the offending key on invalid values.
Scenario ScenarioFromConfig(const util::Config& config);

/// Convenience: parse the file then build.
Scenario ScenarioFromConfigFile(const std::string& path);

}  // namespace iosched::driver
