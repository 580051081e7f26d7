#include "src/tcp/byte_stream.h"

#include <gtest/gtest.h>

#include "src/sim/random.h"

namespace e2e {
namespace {

MessageRecord Rec(uint64_t id) {
  MessageRecord record;
  record.id = id;
  return record;
}

TEST(ByteStreamQueueTest, AppendExtendsTail) {
  ByteStreamQueue queue;
  EXPECT_TRUE(queue.empty());
  queue.Append(100);
  EXPECT_EQ(queue.size_bytes(), 100u);
  EXPECT_EQ(queue.head_offset(), 0u);
  EXPECT_EQ(queue.tail_offset(), 100u);
}

TEST(ByteStreamQueueTest, ConsumeReturnsCompletedBoundaries) {
  ByteStreamQueue queue;
  queue.Append(100);
  queue.AddBoundary(40, Rec(1));
  queue.AddBoundary(100, Rec(2));
  auto consumed = queue.Consume(50);
  EXPECT_EQ(consumed.bytes, 50u);
  ASSERT_EQ(consumed.completed.size(), 1u);
  EXPECT_EQ(consumed.completed[0].record.id, 1u);
  EXPECT_EQ(queue.boundary_count(), 1u);

  consumed = queue.Consume(1000);  // More than available: clamps.
  EXPECT_EQ(consumed.bytes, 50u);
  ASSERT_EQ(consumed.completed.size(), 1u);
  EXPECT_EQ(consumed.completed[0].record.id, 2u);
  EXPECT_TRUE(queue.empty());
}

TEST(ByteStreamQueueTest, BoundaryExactlyAtConsumptionPointCompletes) {
  ByteStreamQueue queue;
  queue.Append(10);
  queue.AddBoundary(10, Rec(9));
  auto consumed = queue.Consume(10);
  EXPECT_EQ(consumed.completed.size(), 1u);
}

TEST(ByteStreamQueueTest, PartialConsumeKeepsBoundaryPending) {
  ByteStreamQueue queue;
  queue.Append(10);
  queue.AddBoundary(10, Rec(3));
  EXPECT_EQ(queue.Consume(9).completed.size(), 0u);
  EXPECT_EQ(queue.Consume(1).completed.size(), 1u);
}

TEST(ByteStreamQueueTest, ConsumeToAbsoluteOffset) {
  ByteStreamQueue queue(1000);  // Nonzero start offset.
  queue.Append(500);
  queue.AddBoundary(1200, Rec(1));
  auto consumed = queue.ConsumeTo(1300);
  EXPECT_EQ(consumed.bytes, 300u);
  EXPECT_EQ(consumed.completed.size(), 1u);
  EXPECT_EQ(queue.head_offset(), 1300u);
}

TEST(ByteStreamQueueTest, FirstBoundaryAfterSkipsEndsAtOrBeforeOffset) {
  ByteStreamQueue queue;
  queue.Append(100);
  queue.AddBoundary(10, Rec(1));
  queue.AddBoundary(20, Rec(2));
  queue.AddBoundary(30, Rec(3));
  // A segment starting at `offset` carries boundaries ending in
  // (offset, ...]: one ending exactly at the offset belongs to the
  // previous segment.
  EXPECT_EQ(queue.FirstBoundaryAfter(0), 0u);
  EXPECT_EQ(queue.FirstBoundaryAfter(9), 0u);
  EXPECT_EQ(queue.FirstBoundaryAfter(10), 1u);
  EXPECT_EQ(queue.FirstBoundaryAfter(25), 2u);
  EXPECT_EQ(queue.FirstBoundaryAfter(30), queue.boundary_count());
  EXPECT_EQ(queue.boundary(queue.FirstBoundaryAfter(10)).record.id, 2u);
  // Consuming from the head shifts the indices.
  queue.ConsumeTo(15);
  EXPECT_EQ(queue.boundary(0).record.id, 2u);
  EXPECT_EQ(queue.FirstBoundaryAfter(20), 1u);
}

TEST(ByteStreamQueueTest, RecordsCarrySharedPayloads) {
  ByteStreamQueue queue;
  auto payload = std::make_shared<int>(42);
  queue.Append(5);
  MessageRecord record;
  record.id = 1;
  record.data = payload;
  queue.AddBoundary(5, std::move(record));
  EXPECT_EQ(payload.use_count(), 2);
  auto consumed = queue.Consume(5);
  ASSERT_EQ(consumed.completed.size(), 1u);
  EXPECT_EQ(*std::static_pointer_cast<int>(consumed.completed[0].record.data), 42);
}

// Property: random appends/consumes conserve bytes and deliver every
// boundary exactly once, in order.
class ByteStreamConservationTest : public ::testing::TestWithParam<int> {};

TEST_P(ByteStreamConservationTest, BytesAndBoundariesConserved) {
  Rng rng(1000 + GetParam());
  ByteStreamQueue queue;
  uint64_t appended = 0;
  uint64_t consumed_bytes = 0;
  uint64_t boundaries_added = 0;
  uint64_t last_seen_id = 0;
  for (int i = 0; i < 2000; ++i) {
    if (rng.Bernoulli(0.5)) {
      const uint64_t len = rng.UniformInt(1, 300);
      queue.Append(len);
      appended += len;
      queue.AddBoundary(queue.tail_offset(), Rec(++boundaries_added));
    } else {
      auto consumed = queue.Consume(rng.UniformInt(0, 400));
      consumed_bytes += consumed.bytes;
      for (const BoundaryEntry& entry : consumed.completed) {
        EXPECT_EQ(entry.record.id, last_seen_id + 1);  // In-order, no gaps.
        last_seen_id = entry.record.id;
      }
    }
  }
  auto rest = queue.Consume(UINT64_MAX);
  consumed_bytes += rest.bytes;
  for (const BoundaryEntry& entry : rest.completed) {
    EXPECT_EQ(entry.record.id, ++last_seen_id - 0);
  }
  EXPECT_EQ(consumed_bytes, appended);
  EXPECT_EQ(last_seen_id, boundaries_added);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ByteStreamConservationTest, ::testing::Range(0, 8));

}  // namespace
}  // namespace e2e
