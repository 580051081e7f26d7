#include "src/sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <memory>
#include <utility>
#include <vector>

namespace e2e {
namespace {

TimePoint At(int64_t us) { return TimePoint::FromNanos(us * 1000); }

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue queue;
  std::vector<int> fired;
  queue.Push(At(30), [&] { fired.push_back(3); });
  queue.Push(At(10), [&] { fired.push_back(1); });
  queue.Push(At(20), [&] { fired.push_back(2); });
  while (!queue.Empty()) {
    queue.Pop().cb();
  }
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, SameTimeIsFifo) {
  EventQueue queue;
  std::vector<int> fired;
  for (int i = 0; i < 100; ++i) {
    queue.Push(At(5), [&fired, i] { fired.push_back(i); });
  }
  while (!queue.Empty()) {
    queue.Pop().cb();
  }
  ASSERT_EQ(fired.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(fired[i], i);
  }
}

TEST(EventQueueTest, CancelPreventsFiring) {
  EventQueue queue;
  int fired = 0;
  const EventId keep = queue.Push(At(1), [&] { ++fired; });
  const EventId cancel = queue.Push(At(2), [&] { fired += 100; });
  EXPECT_TRUE(queue.Cancel(cancel));
  EXPECT_FALSE(queue.Cancel(cancel));  // Double cancel is a no-op.
  while (!queue.Empty()) {
    queue.Pop().cb();
  }
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(queue.Cancel(keep));  // Already fired.
}

TEST(EventQueueTest, CancelHeadUpdatesNextTime) {
  EventQueue queue;
  const EventId head = queue.Push(At(1), [] {});
  queue.Push(At(7), [] {});
  EXPECT_EQ(queue.NextTime(), At(1));
  queue.Cancel(head);
  EXPECT_EQ(queue.NextTime(), At(7));
}

TEST(EventQueueTest, SizeTracksLiveEvents) {
  EventQueue queue;
  const EventId a = queue.Push(At(1), [] {});
  queue.Push(At(2), [] {});
  EXPECT_EQ(queue.size(), 2u);
  queue.Cancel(a);
  EXPECT_EQ(queue.size(), 1u);
  queue.Pop();
  EXPECT_EQ(queue.size(), 0u);
  EXPECT_TRUE(queue.Empty());
}

TEST(EventQueueTest, IdsAreUniqueAndNeverInvalid) {
  EventQueue queue;
  EventId last = kInvalidEventId;
  for (int i = 0; i < 10; ++i) {
    const EventId id = queue.Push(At(i), [] {});
    EXPECT_NE(id, kInvalidEventId);
    EXPECT_NE(id, last);
    last = id;
  }
}

// The generation tag must keep a stale id from touching a reused slot: after
// the only event fires (or cancels), its slot goes back on the freelist and
// the next Push reuses it under a bumped generation.
TEST(EventQueueTest, StaleIdNeverCancelsReusedSlot) {
  EventQueue queue;
  const EventId first = queue.Push(At(1), [] {});
  queue.Pop().cb();  // Fires `first`; its slot is free again.

  int fired = 0;
  const EventId reused = queue.Push(At(2), [&] { ++fired; });
  EXPECT_NE(first, reused);
  EXPECT_FALSE(queue.Cancel(first));  // Stale id: must not hit the new event.
  EXPECT_EQ(queue.size(), 1u);
  queue.Pop().cb();
  EXPECT_EQ(fired, 1);

  // Same story when the slot is freed by Cancel instead of Pop.
  const EventId canceled = queue.Push(At(3), [] {});
  EXPECT_TRUE(queue.Cancel(canceled));
  int fired2 = 0;
  queue.Push(At(4), [&] { ++fired2; });
  EXPECT_FALSE(queue.Cancel(canceled));
  queue.Pop().cb();
  EXPECT_EQ(fired2, 1);
}

// Slots are recycled many times; every incarnation must be independently
// cancelable and old ids must stay dead forever.
TEST(EventQueueTest, GenerationSurvivesHeavySlotReuse) {
  EventQueue queue;
  std::vector<EventId> dead;
  for (int round = 0; round < 1000; ++round) {
    const EventId id = queue.Push(At(round), [] {});
    for (const EventId old : dead) {
      ASSERT_FALSE(queue.Cancel(old));
    }
    if (round % 2 == 0) {
      ASSERT_TRUE(queue.Cancel(id));
    } else {
      queue.Pop().cb();
    }
    dead.push_back(id);
    if (dead.size() > 8) {
      dead.erase(dead.begin());
    }
  }
  EXPECT_TRUE(queue.Empty());
}

// Regression for the 32-bit generation truncation: under the old packed
// layout an id whose generation differed from the slot's by an exact
// multiple of 2^32 compared equal after truncation, so a stale id held
// across 2^32 slot reuses could cancel an unrelated event. Force a slot's
// generation across the wrap boundary and check the stale id stays dead.
TEST(EventQueueTest, StaleIdStaysDeadAcrossGenerationWrapBoundary) {
  EventQueue queue;
  const EventId stale = queue.Push(At(1), [] {});
  ASSERT_EQ(stale.slot, 1u);       // Slot index 0, stored as index + 1.
  ASSERT_EQ(stale.generation, 1u);  // First incarnation.
  ASSERT_TRUE(queue.Cancel(stale));  // Slot 0 is free again.

  // Simulate 2^32 reuses of slot 0: its next incarnation's generation is
  // congruent to the stale id's modulo 2^32 (1 + 2^32), which the old
  // truncated compare could not tell apart from 1.
  queue.SetSlotGenerationForTest(0, (1ull << 32) + 1);

  int fired = 0;
  const EventId reused = queue.Push(At(2), [&] { ++fired; });
  ASSERT_EQ(reused.slot, stale.slot);  // Same slot, new incarnation.
  EXPECT_EQ(reused.generation, (1ull << 32) + 1);
  EXPECT_NE(stale, reused);

  EXPECT_FALSE(queue.Cancel(stale));  // Must not kill the new event.
  EXPECT_EQ(queue.size(), 1u);
  queue.Pop().cb();
  EXPECT_EQ(fired, 1);  // The reused-slot event still fires.

  // And the live id from the wrapped incarnation cancels normally.
  const EventId after = queue.Push(At(3), [] {});
  EXPECT_TRUE(queue.Cancel(after));
  EXPECT_TRUE(queue.Empty());
}

// Callbacks only need to be movable: a move-only capture must survive the
// Push → slot → Pop round trip (InlineCallback, not std::function).
TEST(EventQueueTest, MaxLiveTracksHighWaterOccupancy) {
  EventQueue queue;
  EXPECT_EQ(queue.max_live(), 0u);
  std::vector<EventId> ids;
  for (int i = 0; i < 5; ++i) {
    ids.push_back(queue.Push(At(i + 1), [] {}));
  }
  EXPECT_EQ(queue.max_live(), 5u);
  queue.Pop();
  queue.Cancel(ids[4]);
  EXPECT_EQ(queue.max_live(), 5u);  // High-water, not current size.
  queue.Push(At(10), [] {});
  queue.Push(At(11), [] {});
  EXPECT_EQ(queue.max_live(), 5u);  // 3 live + 2 pushed = 5, no new peak.
  queue.Push(At(12), [] {});
  EXPECT_EQ(queue.max_live(), 6u);
}

TEST(EventQueueTest, MoveOnlyCallbackCapture) {
  EventQueue queue;
  auto payload = std::make_unique<int>(42);
  int seen = 0;
  queue.Push(At(1), [p = std::move(payload), &seen] { seen = *p; });
  queue.Pop().cb();
  EXPECT_EQ(seen, 42);
}

// 1M-event stress with deterministic pseudo-random times and a cancel mix:
// exercises slot growth, freelist reuse, stale-record skipping, and ordering
// at scale. Runs in well under a second at -O2, so it stays in the default
// suite rather than behind the "slow" label.
TEST(EventQueueTest, MillionEventStress) {
  EventQueue queue;
  uint64_t rng = 0x9E3779B97F4A7C15ull;
  auto next_rand = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };

  constexpr size_t kEvents = 1'000'000;
  size_t scheduled = 0;
  size_t canceled = 0;
  uint64_t fired = 0;
  std::vector<EventId> cancel_pool;
  for (size_t i = 0; i < kEvents; ++i) {
    const int64_t when = static_cast<int64_t>(next_rand() % 1'000'000);
    const EventId id = queue.Push(At(when), [&fired] { ++fired; });
    ++scheduled;
    if (next_rand() % 4 == 0) {
      cancel_pool.push_back(id);
    }
    // Cancel in bursts so freed slots interleave with fresh pushes.
    if (cancel_pool.size() >= 64) {
      for (const EventId victim : cancel_pool) {
        ASSERT_TRUE(queue.Cancel(victim));
        ++canceled;
      }
      cancel_pool.clear();
    }
  }
  for (const EventId victim : cancel_pool) {
    ASSERT_TRUE(queue.Cancel(victim));
    ++canceled;
  }
  ASSERT_EQ(queue.size(), scheduled - canceled);

  TimePoint last = TimePoint::Zero();
  while (!queue.Empty()) {
    auto entry = queue.Pop();
    ASSERT_GE(entry.when, last);  // Never goes backwards.
    last = entry.when;
    entry.cb();
  }
  EXPECT_EQ(fired, scheduled - canceled);
  EXPECT_EQ(queue.size(), 0u);
}

// The TCP retransmit-timer pattern: every advancing ack cancels a timer
// ~200 ms out and re-arms it, while short events keep firing. Lazily
// deleted records would surface only when their far-off time came due, so
// without compaction the heap grows by one record per re-arm (~100k here)
// around ~20 live events.
TEST(EventQueueTest, RearmChurnKeepsHeapNearLiveCount) {
  EventQueue queue;
  constexpr int kShortEvents = 19;
  int64_t now_us = 0;
  uint64_t fired = 0;
  for (int i = 0; i < kShortEvents; ++i) {
    queue.Push(At(i + 1), [&fired] { ++fired; });
  }
  EventId rto = queue.Push(At(200'000), [] { FAIL() << "re-armed timer fired"; });
  size_t max_records = 0;
  for (int i = 0; i < 100'000; ++i) {
    ASSERT_TRUE(queue.Cancel(rto));
    ASSERT_LE(queue.heap_records(), 2 * queue.size() + 64);
    rto = queue.Push(At(now_us + 200'000), [] { FAIL() << "re-armed timer fired"; });
    auto entry = queue.Pop();
    ASSERT_LT(entry.when, At(now_us + 200'000));  // Always a short event.
    now_us = entry.when.nanos() / 1000;
    entry.cb();
    queue.Push(At(now_us + kShortEvents), [&fired] { ++fired; });
    ASSERT_EQ(queue.size(), static_cast<size_t>(kShortEvents) + 1);
    ASSERT_LE(queue.heap_records(), 2 * queue.size() + 64);
    max_records = std::max(max_records, queue.heap_records());
  }
  EXPECT_EQ(fired, 100'000u);
  EXPECT_LE(max_records, 2u * (kShortEvents + 1) + 64);
}

// Compaction rebuilds the heap, which must not change what pops next:
// (when, seq) is a strict total order, so the queue must pop exactly the
// sequence a reference ordered set of (when, push order) gives, across a
// random schedule/cancel/pop mix that compacts many times. A third of the
// pushes are far-off timers, whose canceled records never surface on their
// own, so stale records pile up as they do under TCP timer churn.
TEST(EventQueueTest, CompactionPreservesPopOrder) {
  EventQueue queue;
  uint64_t rng = 0x2545F4914F6CDD1Dull;
  auto next_rand = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  // Reference model: (when, push index) -> id of every live event.
  std::map<std::pair<int64_t, uint64_t>, EventId> model;
  uint64_t pushes = 0;
  uint64_t fired_index = 0;
  int64_t now = 0;
  int compactions = 0;
  for (int step = 0; step < 100'000; ++step) {
    const uint64_t r = next_rand() % 10;
    if (model.empty() || (r < 6 && model.size() < 100)) {
      // Few distinct short times, so same-instant ties are common.
      const int64_t when = next_rand() % 3 == 0 ? now + 100'000 + next_rand() % 1000
                                                : now + static_cast<int64_t>(next_rand() % 50);
      const uint64_t index = pushes++;
      const EventId id = queue.Push(At(when), [&fired_index, index] { fired_index = index; });
      model.emplace(std::make_pair(when, index), id);
    } else if (r < 8) {
      const auto victim = std::next(model.begin(), static_cast<long>(next_rand() % model.size()));
      const size_t before = queue.heap_records();
      ASSERT_TRUE(queue.Cancel(victim->second));
      ASSERT_FALSE(queue.Cancel(victim->second));
      model.erase(victim);
      if (queue.heap_records() < before) {
        ++compactions;
        ASSERT_EQ(queue.heap_records(), queue.size());
      }
    } else {
      const auto expected = model.begin();
      ASSERT_EQ(queue.NextTime(), At(expected->first.first));
      auto entry = queue.Pop();
      ASSERT_EQ(entry.id, expected->second);
      entry.cb();
      ASSERT_EQ(fired_index, expected->first.second);
      now = expected->first.first;
      model.erase(expected);
    }
    ASSERT_EQ(queue.size(), model.size());
    ASSERT_LE(queue.heap_records(), 2 * queue.size() + 64);
  }
  EXPECT_GE(compactions, 100) << "the mix must cross many compactions";
  while (!model.empty()) {
    ASSERT_EQ(queue.Pop().id, model.begin()->second);
    model.erase(model.begin());
  }
  EXPECT_TRUE(queue.Empty());
}

}  // namespace
}  // namespace e2e
