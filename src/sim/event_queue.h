// Cancellable priority event queue: the core data structure of the
// discrete-event engine.
//
// Layout: the heap holds small {time, id, slot} entries ordered by
// (time, id); each action lives in a reusable slot of a side vector, and
// whether an id is still pending is one bit in an id-indexed bitset (ids
// are dense and only increase). Push, Pop and Cancel touch no hash table,
// and a slot is recycled as soon as its entry leaves the heap, so the slot
// vector stays as small as the largest number of queued entries.
//
// Cancellation is lazy: Cancel clears the id's bit and leaves the entry in
// the heap, where it is skipped (and its slot freed) on pop. This keeps
// Cancel() O(1) and is the standard technique for simulators whose
// I/O-completion events are frequently rescheduled when bandwidth shares
// change. To keep the heap from growing unboundedly across a month of
// rescheduled completion events, Cancel triggers a compaction (rebuild
// dropping every cancelled entry) whenever cancelled entries outnumber live
// ones; since a compaction is linear in the heap and halves it, the cost is
// amortized O(1) per Cancel.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/time.h"

namespace iosched::sim {

/// Identifier returned by Push; usable to Cancel the event later.
using EventId = std::uint64_t;

/// A schedulable event: time, FIFO tie-break sequence, action.
struct Event {
  SimTime time = 0.0;
  EventId id = 0;
  std::function<void()> action;
};

class EventQueue {
 public:
  EventQueue() = default;

  /// Schedule `action` at `time`. Events at equal time pop in push order.
  EventId Push(SimTime time, std::function<void()> action);

  /// Cancel a pending event. Returns false if the event already ran, was
  /// already cancelled, or never existed. May compact the heap (see
  /// Compact) once enough lazily-cancelled entries pile up.
  bool Cancel(EventId id);

  /// True when no live (non-cancelled) events remain.
  bool Empty() const { return live_ == 0; }

  /// Number of live events.
  std::size_t Size() const { return live_; }

  /// Entries physically in the heap: live plus not-yet-purged cancelled
  /// ones. Exposed so tests can assert compaction bounds the heap.
  std::size_t HeapSize() const { return heap_.size(); }

  /// Time of the next live event. Precondition: !Empty().
  SimTime PeekTime() const;

  /// Pop and return the next live event. Precondition: !Empty().
  Event Pop();

  /// Remove every pending event.
  void Clear();

  /// Rebuild the heap without the lazily-cancelled entries. Runs
  /// automatically from Cancel when cancelled entries outnumber live ones
  /// (and at least kCompactionMinCancelled have accumulated, so small
  /// queues aren't rebuilt constantly); public so tests and long-lived
  /// callers can force a bound. Preserves pop order exactly — the heap
  /// order is (time, id) and ids encode FIFO push order.
  void Compact();

  /// Minimum number of lazily-cancelled entries before an automatic
  /// compaction can trigger.
  static constexpr std::size_t kCompactionMinCancelled = 64;

  /// Set aside the next `count` ids without scheduling anything and return
  /// the first; the caller schedules each later through RestoreSchedule.
  /// An event scheduled under a reserved id pops exactly where it would
  /// have popped had it been pushed at reservation time, so a caller can
  /// feed a long, already-ordered stream (job arrivals) into the heap one
  /// entry at a time instead of preloading it.
  EventId ReserveIds(std::uint64_t count);

  /// Schedule an event under an id the queue did not hand out through
  /// Push: a checkpointed event's ORIGINAL id during restore, or an id from
  /// ReserveIds. Pop order is (time, id) and ids encode FIFO push order, so
  /// recreating every live event with its saved id reproduces the
  /// pre-checkpoint pop sequence exactly; lazily-cancelled entries are
  /// simply not recreated (the restored heap is the compacted equivalent of
  /// the saved one). Throws if `id` is already pending or would collide
  /// with ids Push may hand out later (call SetNextId first).
  void RestoreSchedule(SimTime time, EventId id, std::function<void()> action);

  /// Restore the id counter so post-restore Push calls continue the saved
  /// id sequence (ids are the FIFO tie-break; reusing one would reorder
  /// same-timestamp events). Only valid while no events are pending.
  void SetNextId(EventId next_id);

  /// The id the next Push will assign (saved into checkpoints).
  EventId next_id() const { return next_id_; }

 private:
  struct Entry {
    SimTime time;
    EventId id;
    std::uint32_t slot;
  };
  // std::push_heap-style comparator; "greater" ordering yields a min-heap
  // on (time, id): earlier time first, FIFO within a timestamp.
  static bool Later(const Entry& a, const Entry& b) {
    if (a.time != b.time) return a.time > b.time;
    return a.id > b.id;
  }

  /// One bit per id, set while the event is pending. Covers ids from
  /// `base_` (a multiple of 64, fixed by the first Set after a Clear) up;
  /// a restore below the base grows the front.
  class IdBits {
   public:
    bool Test(EventId id) const {
      if (id < base_) return false;
      std::uint64_t w = (id - base_) >> 6;
      return w < words_.size() && ((words_[w] >> (id & 63)) & 1u) != 0;
    }
    void Set(EventId id);
    void Reset(EventId id) { words_[(id - base_) >> 6] &= ~Bit(id); }
    void Clear() { words_.clear(); }

   private:
    static std::uint64_t Bit(EventId id) { return std::uint64_t{1} << (id & 63); }
    std::vector<std::uint64_t> words_;
    EventId base_ = 0;
  };

  void Insert(SimTime time, EventId id, std::function<void()> action);
  /// Destroy a slot's action and return the slot to the free list.
  void ReleaseSlot(std::uint32_t slot) const;
  void DropCancelledHead() const;

  // PeekTime (const) purges cancelled heads, which frees their slots.
  mutable std::vector<Entry> heap_;
  mutable std::vector<std::function<void()>> slots_;
  mutable std::vector<std::uint32_t> free_slots_;
  IdBits live_bits_;
  std::size_t live_ = 0;
  EventId next_id_ = 1;
};

}  // namespace iosched::sim
