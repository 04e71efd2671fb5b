// Model-based property test: the cancellable event queue must behave like a
// reference multiset of (time, id) pairs under arbitrary interleavings of
// push/cancel/pop, reserved-id scheduling, id-counter restores and clears.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <vector>

#include "sim/event_queue.h"
#include "util/rng.h"

namespace iosched::sim {
namespace {

class EventQueueModelSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EventQueueModelSweep, MatchesReferenceModel) {
  util::Rng rng(GetParam());
  EventQueue queue;
  // Reference: live events ordered by (time, id) — the queue's contract.
  std::set<std::pair<double, EventId>> model;
  // Every id the queue has handed out (pushed, reserved, popped, cancelled).
  std::vector<EventId> issued;
  // Reserved ids not yet scheduled.
  std::vector<EventId> reserved;
  // The id of the last action run, to check each pop carries its own
  // action through slot reuse.
  EventId ran = 0;
  auto action_for = [&ran](EventId id) { return [&ran, id] { ran = id; }; };
  auto live = [&model](EventId id) {
    for (const auto& [t, mid] : model) {
      if (mid == id) return true;
    }
    return false;
  };
  auto pick = [&rng](const std::vector<EventId>& ids) {
    return ids[static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<long long>(ids.size()) - 1))];
  };

  for (int step = 0; step < 6000; ++step) {
    double action = rng.Uniform(0, 1);
    if (action < 0.35 || model.empty()) {
      // Few distinct times, so equal-time FIFO ties are common.
      double t = static_cast<double>(rng.UniformInt(0, 40));
      EventId expected = queue.next_id();
      EventId id = queue.Push(t, action_for(expected));
      ASSERT_EQ(id, expected);
      model.emplace(t, id);
      issued.push_back(id);
    } else if (action < 0.40) {
      std::uint64_t count = static_cast<std::uint64_t>(rng.UniformInt(0, 8));
      EventId first = queue.ReserveIds(count);
      ASSERT_EQ(queue.next_id(), first + count);
      for (std::uint64_t k = 0; k < count; ++k) {
        reserved.push_back(first + k);
        issued.push_back(first + k);
      }
    } else if (action < 0.50 && !reserved.empty()) {
      // Schedule a reserved id: it must slot into (time, id) order as if
      // it had been pushed when it was reserved.
      std::size_t k = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<long long>(reserved.size()) - 1));
      EventId id = reserved[k];
      reserved.erase(reserved.begin() + static_cast<std::ptrdiff_t>(k));
      double t = static_cast<double>(rng.UniformInt(0, 40));
      queue.RestoreSchedule(t, id, action_for(id));
      model.emplace(t, id);
      // A second schedule of the same pending id is rejected, as is any id
      // the queue has not handed out yet.
      EXPECT_THROW(queue.RestoreSchedule(t, id, [] {}), std::logic_error);
      EXPECT_THROW(queue.RestoreSchedule(t, queue.next_id(), [] {}),
                   std::logic_error);
    } else if (action < 0.70) {
      // Cancel a pending, popped, cancelled, reserved-but-unscheduled or
      // never-issued id; only a pending one cancels.
      double which = rng.Uniform(0, 1);
      EventId id = 0;
      if (which < 0.1 || issued.empty()) {
        id = queue.next_id() +
             static_cast<EventId>(rng.UniformInt(0, 3));  // never issued
      } else if (which < 0.2 && !reserved.empty()) {
        id = pick(reserved);
      } else {
        id = pick(issued);
      }
      bool was_live = live(id);
      EXPECT_EQ(queue.Cancel(id), was_live);
      if (was_live) {
        for (auto it = model.begin(); it != model.end(); ++it) {
          if (it->second == id) {
            model.erase(it);
            break;
          }
        }
        // Auto-compaction: after a Cancel, lazily-cancelled entries never
        // both reach the minimum and outnumber the live ones.
        std::size_t cancelled = queue.HeapSize() - queue.Size();
        EXPECT_TRUE(cancelled < EventQueue::kCompactionMinCancelled ||
                    cancelled <= queue.Size());
      }
      EXPECT_FALSE(queue.Cancel(id));  // never twice
    } else if (action < 0.995) {
      Event e = queue.Pop();
      ASSERT_FALSE(model.empty());
      EXPECT_DOUBLE_EQ(e.time, model.begin()->first);
      EXPECT_EQ(e.id, model.begin()->second);
      e.action();
      EXPECT_EQ(ran, e.id);
      model.erase(model.begin());
      EXPECT_FALSE(queue.Cancel(e.id));
    } else {
      // Clear, then (as a restore would) move the id counter forward and
      // re-create one event under an id below it.
      EXPECT_THROW(queue.SetNextId(queue.next_id() + 5), std::logic_error);
      queue.Clear();
      model.clear();
      reserved.clear();  // a restore starts from the saved events alone
      for (EventId id : issued) EXPECT_FALSE(queue.Cancel(id));
      EXPECT_EQ(queue.HeapSize(), 0u);
      EventId next = queue.next_id() +
                     static_cast<EventId>(rng.UniformInt(0, 200));
      queue.SetNextId(next);
      ASSERT_EQ(queue.next_id(), next);
      // Some id in [1, next): at least one Push ran, so next >= 2.
      EventId back = std::min<EventId>(
          next - 2, static_cast<EventId>(rng.UniformInt(0, 50)));
      EventId id = next - 1 - back;
      double t = static_cast<double>(rng.UniformInt(0, 40));
      queue.RestoreSchedule(t, id, action_for(id));
      model.emplace(t, id);
      issued.push_back(id);
    }
    ASSERT_EQ(queue.Size(), model.size());
    ASSERT_EQ(queue.Empty(), model.empty());
    ASSERT_GE(queue.HeapSize(), queue.Size());
    if (!model.empty()) {
      ASSERT_DOUBLE_EQ(queue.PeekTime(), model.begin()->first);
    }
  }
  // Drain and verify global ordering.
  while (!queue.Empty()) {
    Event e = queue.Pop();
    ASSERT_EQ(e.id, model.begin()->second);
    e.action();
    EXPECT_EQ(ran, e.id);
    model.erase(model.begin());
  }
  EXPECT_TRUE(model.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueModelSweep,
                         ::testing::Values(1ull, 77ull, 4242ull, 987654ull));

}  // namespace
}  // namespace iosched::sim
