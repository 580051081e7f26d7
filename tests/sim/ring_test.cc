#include "src/sim/ring.h"

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

namespace e2e {
namespace {

TEST(RingTest, DefaultConstructedRingAllocatesNothing) {
  Ring<int> ring;
  EXPECT_EQ(ring.capacity(), 0u);
  EXPECT_TRUE(ring.empty());
  ring.clear();  // Clearing an unallocated ring is a no-op.
  EXPECT_EQ(ring.capacity(), 0u);
}

// Interleaved pushes and pops wrap the head around the buffer many times,
// and pushes while wrapped force growth to relocate a split range.
TEST(RingTest, FifoOrderAcrossWrapAroundAndGrowth) {
  Ring<int> ring;
  std::vector<int> popped;
  int next = 0;
  for (int round = 0; round < 50; ++round) {
    const int pushes = 1 + round % 7;
    for (int i = 0; i < pushes; ++i) {
      ring.push_back(next++);
    }
    const int pops = round % 5;
    for (int i = 0; i < pops && !ring.empty(); ++i) {
      popped.push_back(ring.front());
      ring.pop_front();
    }
    // operator[] indexes from the front, back() is the newest element.
    for (size_t i = 0; i < ring.size(); ++i) {
      ASSERT_EQ(ring[i], static_cast<int>(popped.size() + i));
    }
    if (!ring.empty()) {
      ASSERT_EQ(ring.back(), next - 1);
    }
  }
  EXPECT_GT(ring.capacity(), 4u);  // Grew past the first buffer.
  while (!ring.empty()) {
    popped.push_back(ring.front());
    ring.pop_front();
  }
  ASSERT_EQ(popped.size(), static_cast<size_t>(next));
  for (int i = 0; i < next; ++i) {
    EXPECT_EQ(popped[i], i);
  }
}

TEST(RingTest, HoldsMoveOnlyElements) {
  Ring<std::unique_ptr<int>> ring;
  for (int i = 0; i < 10; ++i) {
    ring.push_back(std::make_unique<int>(i));
  }
  ring.emplace_back(new int(10));
  for (int i = 0; i <= 10; ++i) {
    std::unique_ptr<int> p = std::move(ring.front());
    ring.pop_front();
    EXPECT_EQ(*p, i);
  }
  EXPECT_TRUE(ring.empty());
}

// Counts live instances; relocation during growth must neither leak nor
// double-destroy.
struct Tracked {
  static int live;
  static int destroyed;
  int value;
  explicit Tracked(int v) : value(v) { ++live; }
  Tracked(Tracked&& other) noexcept : value(other.value) { ++live; }
  Tracked(const Tracked&) = delete;
  Tracked& operator=(const Tracked&) = delete;
  ~Tracked() {
    --live;
    ++destroyed;
  }
};
int Tracked::live = 0;
int Tracked::destroyed = 0;

TEST(RingTest, EveryElementDestroyedExactlyOnce) {
  Tracked::live = 0;
  {
    Ring<Tracked> ring;
    for (int i = 0; i < 3; ++i) {
      ring.emplace_back(i);
    }
    ring.pop_front();  // Offset the head so growth relocates a wrapped range.
    for (int i = 3; i < 40; ++i) {
      ring.emplace_back(i);
      ASSERT_EQ(Tracked::live, static_cast<int>(ring.size()));
    }
    EXPECT_EQ(ring.front().value, 1);
    EXPECT_EQ(ring.back().value, 39);

    Tracked::destroyed = 0;
    const size_t capacity = ring.capacity();
    ring.clear();
    EXPECT_EQ(Tracked::destroyed, 39);
    EXPECT_EQ(Tracked::live, 0);
    EXPECT_EQ(ring.capacity(), capacity);  // clear() keeps the buffer.

    for (int i = 0; i < 5; ++i) {
      ring.emplace_back(i);
    }
    Tracked::destroyed = 0;
  }
  // Destruction destroys what is still queued.
  EXPECT_EQ(Tracked::destroyed, 5);
  EXPECT_EQ(Tracked::live, 0);
}

}  // namespace
}  // namespace e2e
