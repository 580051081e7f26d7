#include "src/sim/event_queue.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace e2e {

namespace {
// 4-ary layout: children of node i are 4i+1 .. 4i+4, parent is (i-1)/4.
constexpr size_t kArity = 4;
}  // namespace

void EventQueue::SiftHoleUp(size_t index, const HeapItem& item) {
  while (index > 0) {
    const size_t parent = (index - 1) / kArity;
    if (!Before(item, heap_[parent])) {
      break;
    }
    heap_[index] = heap_[parent];
    index = parent;
  }
  heap_[index] = item;
}

void EventQueue::SiftHoleDown(size_t index, HeapItem item) {
  // Promote the smallest child into the hole until `item` fits. The four
  // children are contiguous, so one level costs at most two cache lines.
  // `item` is a copy: the loop overwrites heap_[index], which may be where
  // the caller read it from.
  const size_t n = heap_.size();
  for (;;) {
    const size_t first = index * kArity + 1;
    if (first >= n) {
      break;
    }
    size_t best = first;
    const size_t end = std::min(first + kArity, n);
    for (size_t c = first + 1; c < end; ++c) {
      if (Before(heap_[c], heap_[best])) {
        best = c;
      }
    }
    if (!Before(heap_[best], item)) {
      break;
    }
    heap_[index] = heap_[best];
    index = best;
  }
  heap_[index] = item;
}

void EventQueue::RemoveTop() {
  const HeapItem last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    SiftHoleDown(0, last);
  }
}

void EventQueue::Compact() {
  heap_.erase(std::remove_if(heap_.begin(), heap_.end(),
                             [this](const HeapItem& item) { return Stale(item); }),
              heap_.end());
  // Bottom-up heapify: sift every internal node down, deepest first.
  const size_t n = heap_.size();
  if (n > 1) {
    for (size_t i = (n - 2) / kArity + 1; i-- > 0;) {
      SiftHoleDown(i, heap_[i]);
    }
  }
}

EventId EventQueue::Push(TimePoint when, Callback cb) {
  uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  s.cb = std::move(cb);
  const HeapItem item{when, next_seq_++, s.generation, slot};
  heap_.push_back(item);  // Placeholder; SiftHoleUp fills the real position.
  SiftHoleUp(heap_.size() - 1, item);
  ++live_;
  if (live_ > max_live_) {
    max_live_ = live_;
  }
  return MakeId(slot, s.generation);
}

void EventQueue::FreeSlot(uint32_t slot) {
  Slot& s = slots_[slot];
  s.cb = Callback();
  ++s.generation;
  free_slots_.push_back(slot);
}

bool EventQueue::Cancel(EventId id) {
  if (id == kInvalidEventId) {
    return false;
  }
  const uint32_t slot = id.slot - 1;
  if (slot >= slots_.size() || slots_[slot].generation != id.generation) {
    return false;  // Already fired, already canceled, or never issued.
  }
  FreeSlot(slot);
  assert(live_ > 0);
  --live_;
  // The heap record stays behind; SkipStale() discards it when it surfaces,
  // or Compact() once stale records outnumber live ones. Compacting r
  // records needs r >= 2 * live_, so at least r / 2 cancels happened since
  // the last compaction left no stale record: Cancel stays amortized O(1).
  if (heap_.size() >= kCompactMinRecords && heap_.size() >= 2 * live_) {
    Compact();
  }
  return true;
}

void EventQueue::SetSlotGenerationForTest(uint32_t slot, uint64_t generation) {
  assert(slot < slots_.size());
  // Only free slots may be re-stamped; a live event's id must keep matching.
  assert(std::find(free_slots_.begin(), free_slots_.end(), slot) != free_slots_.end());
  slots_[slot].generation = generation;
}

void EventQueue::SkipStale() {
  while (!heap_.empty() && Stale(heap_.front())) {
    RemoveTop();
  }
}

TimePoint EventQueue::NextTime() {
  assert(live_ > 0);
  SkipStale();
  assert(!heap_.empty());
  return heap_.front().when;
}

EventQueue::Entry EventQueue::Pop() {
  assert(live_ > 0);
  SkipStale();
  assert(!heap_.empty());
  const HeapItem item = heap_.front();
  RemoveTop();
  Slot& s = slots_[item.slot];
  assert(s.generation == item.generation);
  Entry entry{item.when, MakeId(item.slot, item.generation), std::move(s.cb)};
  FreeSlot(item.slot);
  --live_;
  return entry;
}

}  // namespace e2e
