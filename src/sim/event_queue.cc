#include "sim/event_queue.h"

#include <algorithm>
#include <stdexcept>

namespace iosched::sim {

void EventQueue::IdBits::Set(EventId id) {
  if (words_.empty()) base_ = id & ~EventId{63};
  if (id < base_) {
    EventId new_base = id & ~EventId{63};
    words_.insert(words_.begin(), (base_ - new_base) >> 6, 0);
    base_ = new_base;
  }
  std::uint64_t w = (id - base_) >> 6;
  if (w >= words_.size()) words_.resize(w + 1, 0);
  words_[w] |= Bit(id);
}

EventId EventQueue::Push(SimTime time, std::function<void()> action) {
  EventId id = next_id_++;
  Insert(time, id, std::move(action));
  return id;
}

void EventQueue::Insert(SimTime time, EventId id,
                        std::function<void()> action) {
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(std::move(action));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = std::move(action);
  }
  heap_.push_back(Entry{time, id, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later);
  live_bits_.Set(id);
  ++live_;
}

void EventQueue::ReleaseSlot(std::uint32_t slot) const {
  slots_[slot] = nullptr;
  free_slots_.push_back(slot);
}

bool EventQueue::Cancel(EventId id) {
  if (!live_bits_.Test(id)) return false;
  live_bits_.Reset(id);
  --live_;
  std::size_t cancelled = heap_.size() - live_;
  if (cancelled >= kCompactionMinCancelled && cancelled > live_) Compact();
  return true;
}

void EventQueue::Compact() {
  if (heap_.size() == live_) return;
  std::erase_if(heap_, [this](const Entry& e) {
    if (live_bits_.Test(e.id)) return false;
    ReleaseSlot(e.slot);
    return true;
  });
  std::make_heap(heap_.begin(), heap_.end(), Later);
}

void EventQueue::DropCancelledHead() const {
  while (!heap_.empty() && !live_bits_.Test(heap_.front().id)) {
    ReleaseSlot(heap_.front().slot);
    std::pop_heap(heap_.begin(), heap_.end(), Later);
    heap_.pop_back();
  }
}

SimTime EventQueue::PeekTime() const {
  DropCancelledHead();
  if (heap_.empty()) throw std::logic_error("EventQueue::PeekTime on empty");
  return heap_.front().time;
}

Event EventQueue::Pop() {
  DropCancelledHead();
  if (heap_.empty()) throw std::logic_error("EventQueue::Pop on empty");
  Entry top = heap_.front();
  std::pop_heap(heap_.begin(), heap_.end(), Later);
  heap_.pop_back();
  live_bits_.Reset(top.id);
  --live_;
  Event ev{top.time, top.id, std::move(slots_[top.slot])};
  ReleaseSlot(top.slot);
  return ev;
}

EventId EventQueue::ReserveIds(std::uint64_t count) {
  EventId first = next_id_;
  next_id_ += count;
  return first;
}

void EventQueue::RestoreSchedule(SimTime time, EventId id,
                                 std::function<void()> action) {
  if (id == 0 || id >= next_id_) {
    throw std::logic_error(
        "EventQueue::RestoreSchedule: id outside the restored range "
        "(SetNextId must run first)");
  }
  if (live_bits_.Test(id)) {
    throw std::logic_error("EventQueue::RestoreSchedule: duplicate id");
  }
  Insert(time, id, std::move(action));
}

void EventQueue::SetNextId(EventId next_id) {
  if (live_ != 0 || !heap_.empty()) {
    throw std::logic_error("EventQueue::SetNextId on a non-empty queue");
  }
  if (next_id == 0) throw std::logic_error("EventQueue::SetNextId: id 0");
  next_id_ = next_id;
}

void EventQueue::Clear() {
  heap_.clear();
  slots_.clear();
  free_slots_.clear();
  live_bits_.Clear();
  live_ = 0;
}

}  // namespace iosched::sim
