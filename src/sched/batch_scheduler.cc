#include "sched/batch_scheduler.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

#include "obs/hub.h"
#include "util/units.h"

namespace iosched::sched {

BatchScheduler::BatchScheduler(machine::Machine& machine, Options options)
    : machine_(machine),
      options_(options),
      wait_queue_(options.order),
      busy_until_(
          static_cast<std::size_t>(machine.config().total_midplanes()), 0.0),
      jitter_rng_(options.backoff_jitter_seed, /*stream=*/37) {
  if (options_.backoff_jitter_fraction < 0 ||
      options_.backoff_jitter_fraction >= 1.0) {
    throw std::invalid_argument(
        "BatchScheduler: backoff_jitter_fraction must be in [0, 1)");
  }
}

void BatchScheduler::Submit(const workload::Job& job) {
  std::string err = job.Validate();
  if (!err.empty()) {
    throw std::invalid_argument("Submit: invalid job " +
                                std::to_string(job.id) + ": " + err);
  }
  std::optional<int> block_nodes = machine_.BlockNodesFor(job.nodes);
  if (!block_nodes) {
    throw std::invalid_argument("Submit: job " + std::to_string(job.id) +
                                " larger than the machine");
  }
  queue_.push_back(&job);
  wait_queue_.Insert(job, *block_nodes);
}

void BatchScheduler::MarkBusy(const machine::Partition& partition,
                              sim::SimTime until) {
  auto first = busy_until_.begin() + partition.first_midplane;
  std::fill(first, first + partition.midplane_count, until);
}

sim::SimTime BatchScheduler::ShadowTime(const workload::Job& head,
                                        sim::SimTime now) const {
  // Releasing running jobs in predicted-end order, the head first fits once
  // some candidate block has all its occupants released: at the minimum
  // over blocks of the latest predicted end inside the block, which is
  // exactly what EarliestFit reads off the profile. A job that overran its
  // estimate is treated as ending "now": the real Cobalt would see the same
  // stale estimate.
  sim::SimTime fit = machine_.EarliestFit(head.nodes, busy_until_);
  if (fit != sim::kTimeInfinity) return std::max(fit, now);
  // Every candidate block holds a faulted midplane, so no release lets the
  // head in; fall back to the latest predicted end.
  sim::SimTime latest = now;
  for (const auto& [id, rj] : running_) {
    latest = std::max(latest, rj.predicted_end);
  }
  return latest;
}

bool BatchScheduler::BackfillOk(const workload::Job& candidate,
                                const workload::Job& head, sim::SimTime now,
                                sim::SimTime shadow) const {
  // Finishes before the reservation needs the space.
  if (now + candidate.requested_walltime <= shadow + util::kTimeEpsilon) {
    return true;
  }
  // Otherwise the head must still fit at shadow time with the candidate's
  // partition occupied. The candidate is allocated and marked busy until
  // now + walltime, past the shadow time here, so its midplanes block every
  // candidate block they touch.
  return machine_.EarliestFit(head.nodes, busy_until_) <=
         shadow + util::kTimeEpsilon;
}

std::vector<StartDecision> BatchScheduler::Schedule(sim::SimTime now) {
  if (hub_ != nullptr) {
    hub_->sched_passes->Inc();
    double depth = static_cast<double>(queue_.size());
    hub_->queue_depth->Set(depth);
    hub_->queue_depth_hist->Observe(depth);
  }
  std::vector<StartDecision> decisions;
  if (queue_.empty()) return decisions;

  // Build the eligible candidates in service order. Jobs still inside
  // their requeue backoff are invisible to this pass (they neither start
  // nor hold the EASY reservation). The incremental path orders the whole
  // standing queue and filters afterwards — identical to ordering the
  // filtered subset, because the order is a total order independent of
  // membership.
  candidates_.clear();
  if (options_.incremental_order) {
    for (const WaitQueue::Entry& e : wait_queue_.Ordered(now)) {
      if (InBackoff(e.id, now)) continue;
      candidates_.push_back(Candidate{e.job, e.block_nodes});
    }
  } else {
    // Reference path: full re-sort from scratch via OrderQueue. Kept so
    // tests and benchmarks can diff the two orders; schedules are
    // bit-identical.
    std::vector<const workload::Job*> eligible;
    eligible.reserve(queue_.size());
    for (const workload::Job* job : queue_) {
      if (InBackoff(job->id, now)) continue;
      eligible.push_back(job);
    }
    for (const workload::Job* job :
         OrderQueue(eligible, options_.order, now)) {
      // Block size exists: Submit validated the job fits the machine.
      candidates_.push_back(
          Candidate{job, *machine_.BlockNodesFor(job->nodes)});
    }
  }
  if (candidates_.empty()) return decisions;

  const workload::Job* blocked_head = nullptr;
  sim::SimTime shadow = 0.0;
  // Smallest block size (in nodes) that failed to allocate during this
  // pass. Aligned blocks nest, so once a block of B midplanes has no free
  // run neither does any larger block — and the machine only loses free
  // space as the pass backfills jobs (a failed BackfillOk releases its
  // tentative partition, restoring the state exactly). Skipping those
  // candidates outright avoids the allocator probe entirely.
  int min_failed_block_nodes = std::numeric_limits<int>::max();

  for (const Candidate& candidate : candidates_) {
    const workload::Job* job = candidate.job;
    if (blocked_head == nullptr) {
      auto partition = machine_.Allocate(job->nodes);
      if (partition) {
        sim::SimTime end = now + job->requested_walltime;
        MarkBusy(*partition, end);
        decisions.push_back(StartDecision{job, *partition});
        running_.emplace(job->id, RunningJob{job, *partition, now, end});
        continue;
      }
      // First blocked job: it owns the reservation.
      blocked_head = job;
      if (!options_.easy_backfill) break;
      shadow = ShadowTime(*job, now);
      continue;
    }
    // Backfill phase.
    int block_nodes = candidate.block_nodes;
    if (block_nodes >= min_failed_block_nodes) continue;
    auto partition = machine_.Allocate(job->nodes);
    if (!partition) {
      min_failed_block_nodes = block_nodes;
      continue;
    }
    // The tentative allocation counts in the profile; a rejected one is
    // released and its stale entries are masked again.
    sim::SimTime end = now + job->requested_walltime;
    MarkBusy(*partition, end);
    if (BackfillOk(*job, *blocked_head, now, shadow)) {
      if (hub_ != nullptr) hub_->backfill_starts->Inc();
      decisions.push_back(StartDecision{job, *partition});
      running_.emplace(job->id, RunningJob{job, *partition, now, end});
    } else {
      machine_.Release(*partition);
    }
  }

  if (!decisions.empty()) {
    // Drop started jobs from the queue, preserving submission order. A
    // queued job is running iff this pass started it, so scanning the
    // (few) decisions beats a hash probe per queued job.
    auto started = [&decisions](const workload::Job* j) {
      for (const StartDecision& d : decisions) {
        if (d.job == j) return true;
      }
      return false;
    };
    queue_.erase(std::remove_if(queue_.begin(), queue_.end(), started),
                 queue_.end());
    for (const StartDecision& d : decisions) {
      eligible_after_.erase(d.job->id);
      wait_queue_.Remove(d.job->id);
    }
  }
  return decisions;
}

bool BatchScheduler::InBackoff(workload::JobId id, sim::SimTime now) const {
  if (eligible_after_.empty()) return false;
  auto it = eligible_after_.find(id);
  return it != eligible_after_.end() && it->second > now + util::kTimeEpsilon;
}

BatchScheduler::RequeueDecision BatchScheduler::OnJobFailed(
    workload::JobId id, sim::SimTime now) {
  auto it = running_.find(id);
  if (it == running_.end()) {
    throw std::logic_error("OnJobFailed: job " + std::to_string(id) +
                           " not running");
  }
  const workload::Job* job = it->second.job;
  machine_.Release(it->second.partition);
  running_.erase(it);

  RequeueDecision decision;
  decision.retries = ++retries_[id];
  if (decision.retries > options_.max_retries) {
    // Budget exhausted: the job leaves the system for good.
    retries_.erase(id);
    eligible_after_.erase(id);
    return decision;
  }
  decision.requeued = true;
  decision.eligible_time = now + BackoffDelay(decision.retries);
  eligible_after_[id] = decision.eligible_time;
  queue_.push_back(job);
  // Block size exists: Submit validated the job fits the machine.
  wait_queue_.Insert(*job, *machine_.BlockNodesFor(job->nodes));
  return decision;
}

double BatchScheduler::BackoffDelay(int retries) {
  // Stop doubling once the cap is reached: a naive 2^(retries-1) loop
  // overflows to inf at high retry counts before a final min() could clamp
  // it, and inf poisons the eligible time.
  double backoff = options_.requeue_backoff_seconds;
  for (int i = 1; i < retries && backoff < options_.max_backoff_seconds;
       ++i) {
    backoff *= 2.0;
  }
  backoff = std::min(backoff, options_.max_backoff_seconds);
  if (options_.backoff_jitter_fraction > 0) {
    backoff *= 1.0 + options_.backoff_jitter_fraction *
                         jitter_rng_.Uniform(-1.0, 1.0);
  }
  return std::max(0.0, backoff);
}

sim::SimTime BatchScheduler::NextEligibleTime(sim::SimTime now) const {
  sim::SimTime next = sim::kTimeInfinity;
  for (const workload::Job* job : queue_) {
    auto it = eligible_after_.find(job->id);
    if (it != eligible_after_.end() && it->second > now + util::kTimeEpsilon) {
      next = std::min(next, it->second);
    }
  }
  return next;
}

void BatchScheduler::OnJobEnd(workload::JobId id, sim::SimTime now) {
  (void)now;
  auto it = running_.find(id);
  if (it == running_.end()) {
    throw std::logic_error("OnJobEnd: job " + std::to_string(id) +
                           " not running");
  }
  machine_.Release(it->second.partition);
  running_.erase(it);
  retries_.erase(id);
}

namespace {
// Serialize unordered_map entries sorted by job id so the checkpoint bytes
// are deterministic (the maps' iteration order is not).
template <typename Map, typename Fn>
void WriteSortedById(ckpt::Writer& w, const Map& map, Fn&& write_value) {
  std::vector<workload::JobId> ids;
  ids.reserve(map.size());
  for (const auto& [id, _] : map) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  w.U32(static_cast<std::uint32_t>(ids.size()));
  for (workload::JobId id : ids) {
    w.I64(id);
    write_value(map.at(id));
  }
}
}  // namespace

void BatchScheduler::SaveState(ckpt::Writer& w) const {
  w.U32(static_cast<std::uint32_t>(queue_.size()));
  for (const workload::Job* job : queue_) w.I64(job->id);
  WriteSortedById(w, running_, [&w](const RunningJob& run) {
    w.I64(run.partition.first_midplane);
    w.I64(run.partition.midplane_count);
    w.I64(run.partition.nodes);
    w.F64(run.start_time);
    w.F64(run.predicted_end);
  });
  WriteSortedById(w, retries_, [&w](int retries) { w.I64(retries); });
  WriteSortedById(w, eligible_after_,
                  [&w](sim::SimTime t) { w.F64(t); });
  util::Rng::State jitter = jitter_rng_.SaveState();
  w.U64(jitter.engine.state);
  w.U64(jitter.engine.inc);
  w.Bool(jitter.has_spare);
  w.F64(jitter.spare);
}

void BatchScheduler::RestoreState(
    ckpt::Reader& r,
    const std::function<const workload::Job*(workload::JobId)>& resolve) {
  auto must_resolve = [&resolve](workload::JobId id) {
    const workload::Job* job = resolve(id);
    if (job == nullptr) {
      throw std::runtime_error(
          "BatchScheduler::RestoreState: checkpoint references job " +
          std::to_string(id) + " absent from the workload");
    }
    return job;
  };
  queue_.clear();
  wait_queue_.Clear();
  running_.clear();
  retries_.clear();
  eligible_after_.clear();
  std::uint32_t queued = r.U32();
  queue_.reserve(queued);
  for (std::uint32_t i = 0; i < queued; ++i) {
    const workload::Job* job = must_resolve(r.I64());
    queue_.push_back(job);
    wait_queue_.Insert(*job, *machine_.BlockNodesFor(job->nodes));
  }
  std::uint32_t running = r.U32();
  for (std::uint32_t i = 0; i < running; ++i) {
    workload::JobId id = r.I64();
    RunningJob run;
    run.job = must_resolve(id);
    run.partition.first_midplane = static_cast<int>(r.I64());
    run.partition.midplane_count = static_cast<int>(r.I64());
    run.partition.nodes = static_cast<int>(r.I64());
    run.start_time = r.F64();
    run.predicted_end = r.F64();
    if (run.partition.first_midplane < 0 || run.partition.midplane_count <= 0 ||
        run.partition.first_midplane + run.partition.midplane_count >
            static_cast<int>(busy_until_.size())) {
      throw std::runtime_error(
          "BatchScheduler::RestoreState: job " + std::to_string(id) +
          " holds a partition outside the machine");
    }
    MarkBusy(run.partition, run.predicted_end);
    running_.emplace(id, run);
  }
  std::uint32_t retried = r.U32();
  for (std::uint32_t i = 0; i < retried; ++i) {
    workload::JobId id = r.I64();
    retries_.emplace(id, static_cast<int>(r.I64()));
  }
  std::uint32_t gated = r.U32();
  for (std::uint32_t i = 0; i < gated; ++i) {
    workload::JobId id = r.I64();
    eligible_after_.emplace(id, r.F64());
  }
  util::Rng::State jitter;
  jitter.engine.state = r.U64();
  jitter.engine.inc = r.U64();
  jitter.has_spare = r.Bool();
  jitter.spare = r.F64();
  jitter_rng_.RestoreState(jitter);
}

}  // namespace iosched::sched
