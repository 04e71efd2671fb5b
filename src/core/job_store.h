// Slot-stable store for per-job runtime accounting (ROADMAP item 3).
//
// The I/O scheduler keeps one JobContext per running job and reads it on
// every scheduling cycle while building policy views — previously via an
// unordered_map probe per active transfer. JobStore keeps the contexts in a
// dense vector with a free list: a job's slot is stable for the whole time
// it is registered, so the storage model can cache the slot on the transfer
// (StorageModel::SetUserSlot) and the cycle's view building becomes pure
// array indexing. The id hash index remains for the cold paths
// (register/unregister/checkpoint).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sim/time.h"
#include "workload/job.h"

namespace iosched::core {

/// Per-running-job accounting the slowdown metrics need.
struct JobContext {
  const workload::Job* job = nullptr;
  sim::SimTime start_time = 0.0;
  double completed_compute_seconds = 0.0;
  double completed_io_seconds = 0.0;  // uncongested equivalents
};

/// Dense JobContext store with stable slots. Add returns the slot; the slot
/// stays valid (and addresses the same job's context) until Remove, after
/// which it may be reused by a later Add.
class JobStore {
 public:
  static constexpr std::uint32_t kInvalidSlot = 0xffffffffu;

  /// Register `id`; throws std::logic_error when already present.
  std::uint32_t Add(workload::JobId id, const JobContext& ctx);

  /// Remove `id`, freeing its slot for reuse; throws when absent.
  void Remove(workload::JobId id);

  /// Slot of `id`, or kInvalidSlot when absent. O(1) hash probe.
  std::uint32_t SlotOf(workload::JobId id) const;

  /// Context at `slot` — O(1) array indexing, no hashing. The slot must be
  /// live (returned by Add and not yet Removed).
  JobContext& At(std::uint32_t slot) { return contexts_[slot]; }
  const JobContext& At(std::uint32_t slot) const { return contexts_[slot]; }

  /// Context of `id`, or nullptr when absent.
  JobContext* Find(workload::JobId id);
  const JobContext* Find(workload::JobId id) const;

  bool Contains(workload::JobId id) const {
    return index_.find(id) != index_.end();
  }
  std::size_t size() const { return index_.size(); }

  /// Live job ids, ascending — the deterministic checkpoint order. Clears
  /// and refills `out` (caller-owned scratch).
  void SortedIds(std::vector<workload::JobId>& out) const;

  void Clear();

 private:
  std::vector<JobContext> contexts_;
  std::vector<std::uint32_t> free_slots_;
  std::unordered_map<workload::JobId, std::uint32_t> index_;
};

}  // namespace iosched::core
