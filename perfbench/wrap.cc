// Link-time wrappers for the traced binary. Each PERFBENCH_WRAP names an
// out-of-line entry point of a subsystem library by its mangled symbol;
// CMakeLists.txt turns every one into -Wl,--wrap=<symbol>, so each call to
// it from another object file lands in __wrap_<symbol>, which opens a span
// and forwards to __real_<symbol>. Nothing under src/ changes.
//
// The linker only redirects references between object files. A call that
// stays inside one translation unit is not wrapped; that is why
// IoScheduler::Reschedule, the policies' Execute and the engine's event
// closures are not spans and show up as engine.residual_s instead.
//
// The wrapper repeats the entry point's C++ signature, with the object
// pointer first, which is how the Itanium C++ ABI passes `this`. Changing a
// signature changes its mangled symbol, and the stale __real_ reference
// then fails the link, so a wrapper cannot silently mismatch its target.
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/checkpoint.h"
#include "core/io_policy.h"
#include "core/io_scheduler.h"
#include "core/knapsack.h"
#include "core/slowdown.h"
#include "faults/fault_injector.h"
#include "machine/machine.h"
#include "metrics/bandwidth.h"
#include "metrics/digest.h"
#include "metrics/fault_stats.h"
#include "metrics/report.h"
#include "metrics/utilization.h"
#include "sched/batch_scheduler.h"
#include "sim/event_queue.h"
#include "span.h"
#include "storage/burst_buffer.h"
#include "storage/storage_model.h"

#define PERFBENCH_CAT2(a, b) a##b
#define PERFBENCH_CAT(a, b) PERFBENCH_CAT2(a, b)
#define PERFBENCH_WRAP(symbol, span, ret, params, args) \
  PERFBENCH_WRAP_AT(__LINE__, symbol, span, ret, params, args)
#define PERFBENCH_WRAP_AT(line, symbol, span, ret, params, args)            \
  ret PERFBENCH_CAT(real_, line) params asm("__real_" #symbol);             \
  ret PERFBENCH_CAT(wrap_, line) params asm("__wrap_" #symbol);             \
  ret PERFBENCH_CAT(wrap_, line) params {                                   \
    static const int name = perfbench::trace::RegisterName(span);           \
    perfbench::trace::Scope scope(name);                                    \
    return PERFBENCH_CAT(real_, line) args;                                 \
  }

using namespace iosched;
using workload::JobId;
using ResolveJob = std::function<const workload::Job*(JobId)>;
using NextCompletion = std::optional<std::pair<sim::SimTime, JobId>>;

// sim: the discrete-event queue, called from the Simulator and the engine.
PERFBENCH_WRAP(_ZN7iosched3sim10EventQueue4PushEdSt8functionIFvvEE,
               "sim.push", sim::EventId,
               (sim::EventQueue* self, double t, std::function<void()> action),
               (self, t, std::move(action)))
PERFBENCH_WRAP(_ZN7iosched3sim10EventQueue3PopEv, "sim.pop", sim::Event,
               (sim::EventQueue* self), (self))
PERFBENCH_WRAP(_ZN7iosched3sim10EventQueue6CancelEm, "sim.cancel", bool,
               (sim::EventQueue* self, sim::EventId id), (self, id))

// sched: the batch scheduler's pass and job lifecycle, called by the engine.
PERFBENCH_WRAP(_ZN7iosched5sched14BatchScheduler8ScheduleEd,
               "sched.schedule", std::vector<sched::StartDecision>,
               (sched::BatchScheduler* self, double now), (self, now))
PERFBENCH_WRAP(_ZN7iosched5sched14BatchScheduler6SubmitERKNS_8workload3JobE,
               "sched.submit", void,
               (sched::BatchScheduler* self, const workload::Job& job),
               (self, job))
PERFBENCH_WRAP(_ZN7iosched5sched14BatchScheduler8OnJobEndEld,
               "sched.job_end", void,
               (sched::BatchScheduler* self, JobId id, double now),
               (self, id, now))
PERFBENCH_WRAP(_ZN7iosched5sched14BatchScheduler11OnJobFailedEld,
               "sched.job_failed", sched::BatchScheduler::RequeueDecision,
               (sched::BatchScheduler* self, JobId id, double now),
               (self, id, now))

// machine: partition allocation, called from the scheduler pass (including
// the EASY shadow probe's copy-and-release).
PERFBENCH_WRAP(_ZN7iosched7machine7Machine8AllocateEi, "machine.allocate",
               std::optional<machine::Partition>,
               (machine::Machine* self, int nodes), (self, nodes))
PERFBENCH_WRAP(_ZN7iosched7machine7Machine7ReleaseERKNS0_9PartitionE,
               "machine.release", void,
               (machine::Machine* self, const machine::Partition& partition),
               (self, partition))

// core: the I/O scheduler's entry points and the policies' solvers.
PERFBENCH_WRAP(_ZN7iosched4core11IoScheduler13SubmitRequestElddb,
               "core.submit_request", void,
               (core::IoScheduler* self, JobId id, double volume_gb,
                double now, bool is_flush),
               (self, id, volume_gb, now, is_flush))
PERFBENCH_WRAP(_ZN7iosched4core11IoScheduler12AbortRequestEld,
               "core.abort_request", void,
               (core::IoScheduler* self, JobId id, double now),
               (self, id, now))
PERFBENCH_WRAP(_ZN7iosched4core11IoScheduler11RegisterJobERKNS_8workload3JobEd,
               "core.job_register", void,
               (core::IoScheduler* self, const workload::Job& job,
                double start_time),
               (self, job, start_time))
PERFBENCH_WRAP(_ZN7iosched4core11IoScheduler13UnregisterJobEl,
               "core.job_unregister", void,
               (core::IoScheduler* self, JobId id), (self, id))
PERFBENCH_WRAP(
    _ZN7iosched4core15SolveKnapsack01ESt4spanIKNS0_12KnapsackItemELm18446744073709551615EEdd,
    "core.knapsack", core::KnapsackSolution,
    (std::span<const core::KnapsackItem> items, double capacity, double unit),
    (items, capacity, unit))
PERFBENCH_WRAP(_ZN7iosched4core15InstantSlowdownERKNS0_9IoJobViewEd,
               "core.slowdown", double,
               (const core::IoJobView& view, double now), (view, now))
PERFBENCH_WRAP(_ZN7iosched4core17AggregateSlowdownERKNS0_9IoJobViewEd,
               "core.slowdown", double,
               (const core::IoJobView& view, double now), (view, now))

// storage: the PFS model and the burst-buffer tier, called by the I/O
// scheduler and the engine.
PERFBENCH_WRAP(_ZN7iosched7storage12StorageModel9AdvanceToEd,
               "storage.advance", void,
               (storage::StorageModel* self, double now), (self, now))
PERFBENCH_WRAP(_ZN7iosched7storage12StorageModel7SetRateEld,
               "storage.set_rate", void,
               (storage::StorageModel* self, JobId id, double rate),
               (self, id, rate))
PERFBENCH_WRAP(_ZN7iosched7storage12StorageModel13SetRateAtSlotEmd,
               "storage.set_rate", void,
               (storage::StorageModel* self, std::size_t slot, double rate),
               (self, slot, rate))
PERFBENCH_WRAP(_ZNK7iosched7storage12StorageModel14NextCompletionEv,
               "storage.next_completion", NextCompletion,
               (const storage::StorageModel* self), (self))
PERFBENCH_WRAP(_ZNK7iosched7storage12StorageModel18ValidateAssignmentEv,
               "storage.validate", void,
               (const storage::StorageModel* self), (self))
PERFBENCH_WRAP(
    _ZN7iosched7storage14WaterFillRatesESt4spanIKdLm18446744073709551615EES1_IKiLm18446744073709551615EEdS1_IdLm18446744073709551615EEPm,
    "storage.waterfill", void,
    (std::span<const double> demands, std::span<const int> nodes,
     double max_bandwidth_gbps, std::span<double> rates_out,
     std::uint64_t* iterations_out),
    (demands, nodes, max_bandwidth_gbps, rates_out, iterations_out))
PERFBENCH_WRAP(_ZN7iosched7storage11BurstBuffer9AdvanceToEd, "storage.bb",
               void, (storage::BurstBuffer* self, double now), (self, now))
PERFBENCH_WRAP(_ZNK7iosched7storage11BurstBuffer9CanAbsorbEld, "storage.bb",
               bool,
               (const storage::BurstBuffer* self, JobId id, double volume_gb),
               (self, id, volume_gb))
PERFBENCH_WRAP(_ZN7iosched7storage11BurstBuffer6AbsorbEld, "storage.bb", void,
               (storage::BurstBuffer* self, JobId id, double volume_gb),
               (self, id, volume_gb))
PERFBENCH_WRAP(_ZNK7iosched7storage11BurstBuffer14DrainEmptyTimeEv,
               "storage.bb", double, (const storage::BurstBuffer* self),
               (self))
PERFBENCH_WRAP(_ZNK7iosched7storage11BurstBuffer11FifoTotalGbEv, "storage.bb",
               double, (const storage::BurstBuffer* self), (self))
PERFBENCH_WRAP(_ZNK7iosched7storage11BurstBuffer12UsageTotalGbEv,
               "storage.bb", double, (const storage::BurstBuffer* self),
               (self))
PERFBENCH_WRAP(_ZN7iosched7storage11BurstBuffer14SetDrainFactorEd,
               "storage.bb", void, (storage::BurstBuffer* self, double factor),
               (self, factor))
PERFBENCH_WRAP(_ZN7iosched7storage11BurstBuffer16DropBufferedDataEv,
               "storage.bb", double, (storage::BurstBuffer* self), (self))

// faults: the fault injector's job lifecycle hooks, called by the engine.
PERFBENCH_WRAP(_ZN7iosched6faults13FaultInjector3ArmEv, "faults", void,
               (faults::FaultInjector* self), (self))
PERFBENCH_WRAP(_ZN7iosched6faults13FaultInjector10OnJobStartEldd, "faults",
               void,
               (faults::FaultInjector* self, JobId id, double now,
                double expected_runtime),
               (self, id, now, expected_runtime))
PERFBENCH_WRAP(_ZN7iosched6faults13FaultInjector9OnJobStopEl, "faults", void,
               (faults::FaultInjector* self, JobId id), (self, id))
PERFBENCH_WRAP(_ZN7iosched6faults13FaultInjector19DrawStragglerFactorEv,
               "faults", double, (faults::FaultInjector* self), (self))
PERFBENCH_WRAP(_ZN7iosched6faults13FaultInjector13FinalizeStatsEd, "faults",
               void, (faults::FaultInjector* self, double end), (self, end))

// metrics: per-event recording, the end-of-run summary, the record digest.
PERFBENCH_WRAP(_ZN7iosched7metrics18UtilizationTracker6RecordEdi,
               "metrics.record", void,
               (metrics::UtilizationTracker* self, double time, int busy),
               (self, time, busy))
PERFBENCH_WRAP(_ZN7iosched7metrics16BandwidthTracker6RecordERKNS0_15BandwidthSampleE,
               "metrics.record", void,
               (metrics::BandwidthTracker* self,
                const metrics::BandwidthSample& sample),
               (self, sample))
PERFBENCH_WRAP(_ZN7iosched7metrics10FaultStats3AddEdNS0_14FaultEventKindEld,
               "metrics.record", void,
               (metrics::FaultStats* self, double time,
                metrics::FaultEventKind kind, JobId job, double detail),
               (self, time, kind, job, detail))
PERFBENCH_WRAP(
    _ZN7iosched7metrics9SummarizeERKSt6vectorINS0_9JobRecordESaIS2_EERKNS0_18UtilizationTrackerEdd,
    "metrics.summarize", metrics::Report,
    (const metrics::JobRecords& records,
     const metrics::UtilizationTracker& util, double warmup, double cooldown),
    (records, util, warmup, cooldown))
PERFBENCH_WRAP(_ZNK7iosched7metrics16BandwidthTracker9SummarizeEv,
               "metrics.summarize", metrics::BandwidthSummary,
               (const metrics::BandwidthTracker* self), (self))
PERFBENCH_WRAP(
    _ZN7iosched7metrics13DigestRecordsERKSt6vectorINS0_9JobRecordESaIS2_EE,
    "metrics.digest", std::uint64_t, (const metrics::JobRecords& records),
    (records))

// ckpt: snapshot publish and load, and each module's state serialization.
PERFBENCH_WRAP(
    _ZNK7iosched4ckpt14CheckpointFile11WriteAtomicERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE,
    "ckpt.write", void,
    (const ckpt::CheckpointFile* self, const std::string& path),
    (self, path))
PERFBENCH_WRAP(
    _ZN7iosched4ckpt14CheckpointFile4LoadERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE,
    "ckpt.restore", ckpt::CheckpointFile, (const std::string& path), (path))
PERFBENCH_WRAP(_ZNK7iosched7machine7Machine9SaveStateERNS_4ckpt6WriterE,
               "ckpt.save", void,
               (const machine::Machine* self, ckpt::Writer& w), (self, w))
PERFBENCH_WRAP(_ZNK7iosched7storage12StorageModel9SaveStateERNS_4ckpt6WriterE,
               "ckpt.save", void,
               (const storage::StorageModel* self, ckpt::Writer& w), (self, w))
PERFBENCH_WRAP(_ZNK7iosched7storage11BurstBuffer9SaveStateERNS_4ckpt6WriterE,
               "ckpt.save", void,
               (const storage::BurstBuffer* self, ckpt::Writer& w), (self, w))
PERFBENCH_WRAP(_ZNK7iosched5sched14BatchScheduler9SaveStateERNS_4ckpt6WriterE,
               "ckpt.save", void,
               (const sched::BatchScheduler* self, ckpt::Writer& w), (self, w))
PERFBENCH_WRAP(_ZNK7iosched4core11IoScheduler9SaveStateERNS_4ckpt6WriterE,
               "ckpt.save", void,
               (const core::IoScheduler* self, ckpt::Writer& w), (self, w))
PERFBENCH_WRAP(_ZNK7iosched6faults13FaultInjector9SaveStateERNS_4ckpt6WriterE,
               "ckpt.save", void,
               (const faults::FaultInjector* self, ckpt::Writer& w), (self, w))
PERFBENCH_WRAP(_ZN7iosched7machine7Machine12RestoreStateERNS_4ckpt6ReaderE,
               "ckpt.restore", void,
               (machine::Machine* self, ckpt::Reader& r), (self, r))
PERFBENCH_WRAP(_ZN7iosched7storage12StorageModel12RestoreStateERNS_4ckpt6ReaderE,
               "ckpt.restore", void,
               (storage::StorageModel* self, ckpt::Reader& r), (self, r))
PERFBENCH_WRAP(_ZN7iosched7storage11BurstBuffer12RestoreStateERNS_4ckpt6ReaderE,
               "ckpt.restore", void,
               (storage::BurstBuffer* self, ckpt::Reader& r), (self, r))
PERFBENCH_WRAP(
    _ZN7iosched5sched14BatchScheduler12RestoreStateERNS_4ckpt6ReaderERKSt8functionIFPKNS_8workload3JobElEE,
    "ckpt.restore", void,
    (sched::BatchScheduler* self, ckpt::Reader& r, const ResolveJob& resolve),
    (self, r, resolve))
PERFBENCH_WRAP(
    _ZN7iosched4core11IoScheduler12RestoreStateERNS_4ckpt6ReaderERKSt8functionIFPKNS_8workload3JobElEE,
    "ckpt.restore", void,
    (core::IoScheduler* self, ckpt::Reader& r, const ResolveJob& resolve),
    (self, r, resolve))
PERFBENCH_WRAP(_ZN7iosched6faults13FaultInjector12RestoreStateERNS_4ckpt6ReaderE,
               "ckpt.restore", void,
               (faults::FaultInjector* self, ckpt::Reader& r), (self, r))
