#include "src/tcp/byte_stream.h"

#include <algorithm>
#include <cassert>

namespace e2e {

void ByteStreamQueue::AddBoundary(uint64_t end_offset, MessageRecord record) {
  assert(end_offset > head_ && end_offset <= tail_);
  assert(boundaries_.empty() || boundaries_.back().end_offset < end_offset);
  boundaries_.push_back(BoundaryEntry{end_offset, std::move(record)});
}

ByteStreamQueue::Consumed ByteStreamQueue::Consume(uint64_t max_bytes) {
  const uint64_t take = std::min(max_bytes, tail_ - head_);
  return ConsumeTo(head_ + take);
}

ByteStreamQueue::Consumed ByteStreamQueue::ConsumeTo(uint64_t to) {
  assert(to >= head_ && to <= tail_);
  Consumed consumed;
  consumed.bytes = to - head_;
  head_ = to;
  while (!boundaries_.empty() && boundaries_.front().end_offset <= head_) {
    consumed.completed.push_back(std::move(boundaries_.front()));
    boundaries_.pop_front();
  }
  return consumed;
}

size_t ByteStreamQueue::FirstBoundaryAfter(uint64_t offset) const {
  // Binary search over the sorted end offsets.
  size_t lo = 0;
  size_t hi = boundaries_.size();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (boundaries_[mid].end_offset <= offset) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace e2e
