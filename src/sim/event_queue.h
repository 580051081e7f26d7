// A cancelable priority queue of timed events with deterministic ordering.
//
// Events scheduled for the same instant fire in insertion order (FIFO), which
// keeps whole-simulation runs bit-reproducible for a fixed seed.
//
// Storage is a slot store, not a hash map: each live event owns one slot in a
// freelist-backed vector that holds the callback inline (InlineCallback), and
// a 4-ary implicit heap orders {when, seq, slot, generation} records. An
// EventId carries (generation, slot + 1); Cancel() is an O(1) generation
// check that frees the slot immediately, leaving the heap record behind as a
// stale entry that Pop()/NextTime() discard lazily (a freed slot's generation
// is bumped, so a stale record — or a stale id — can never match a reused
// slot). The schedule/pop path therefore does no hashing and, for callbacks
// that fit InlineCallback's buffer, no allocation beyond amortized vector
// growth.
//
// Lazy deletion alone lets stale records pile up: a TCP retransmit timer is
// canceled and re-armed ~200 ms out on every advancing ack, and its stale
// records surface only when their far-off time comes due. Without
// compaction a two-host paper cell averages 22k heap records for 17 live
// events, and every push and pop pays for the deeper heap. So Cancel()
// compacts once stale records outnumber live ones (at least
// kCompactMinRecords records and at least 2 x live): it erases every stale
// record and re-heapifies in place, bounding the heap at 2 x live + 64.
//
// The heap is 4-ary rather than binary: sift-down — the Pop() hot path —
// visits half as many levels, and the four children of a node share one or
// two cache lines (32-byte records), which is what puts schedule/pop ahead
// of the legacy map-backed queue, not just cancel. The (when, seq) comparator
// is a strict total order (seq is unique), so pop order is identical to any
// other correct heap — arity is invisible to determinism.
//
// Complexity (n = live + stale heap records, n <= 2 x live + 64):
//   Push      O(log n); allocation-free once vectors reach steady capacity.
//   Cancel    O(1) amortized; a compaction over r records follows at least
//             r / 2 cancels.
//   Pop       O(log n) amortized — each stale record is discarded exactly once.
//   NextTime  O(log n) amortized, same skip loop as Pop.
//   Empty     O(1), const (live-event counter; never mutates).
//   size      O(1), const, always in sync with Empty().

#ifndef SRC_SIM_EVENT_QUEUE_H_
#define SRC_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <vector>

#include "src/sim/callback.h"
#include "src/sim/time.h"

namespace e2e {

// Identifies a scheduled event for cancellation. The generation counter is a
// full 64 bits: a stale id can never alias a recycled slot, no matter how
// many times the slot turns over (the old packed-uint64 layout truncated the
// generation to 32 bits, so an id held across 2^32 reuses of one slot could
// cancel an unrelated event). `slot` stores index + 1 so the all-zero value
// is never issued and serves as the invalid id.
struct EventId {
  uint64_t generation = 0;
  uint32_t slot = 0;    // Slot index + 1; 0 marks the invalid id.
  uint32_t domain = 0;  // Owning domain; stamped by the Simulator for routing.

  friend constexpr bool operator==(const EventId& a, const EventId& b) {
    return a.generation == b.generation && a.slot == b.slot && a.domain == b.domain;
  }
  friend constexpr bool operator!=(const EventId& a, const EventId& b) { return !(a == b); }
};
inline constexpr EventId kInvalidEventId{};

class EventQueue {
 public:
  using Callback = InlineCallback;

  // Schedules `cb` to fire at `when`. Returns an id usable with Cancel().
  EventId Push(TimePoint when, Callback cb);

  // Cancels a pending event. Returns false if the event already fired or was
  // already canceled (both are harmless). O(1).
  bool Cancel(EventId id);

  // True when no live (non-canceled) events remain. O(1), const.
  bool Empty() const { return live_ == 0; }

  // Time of the earliest live event. Must not be called when Empty().
  TimePoint NextTime();

  // Removes and returns the earliest live event. Must not be called when
  // Empty().
  struct Entry {
    TimePoint when;
    EventId id = kInvalidEventId;
    Callback cb;
  };
  Entry Pop();

  // Number of live events currently pending. O(1), const.
  size_t size() const { return live_; }

  // Sequence number the next Push() will be stamped with. Exposed so the
  // sharded simulator can order cross-domain deliveries deterministically.
  uint64_t next_seq() const { return next_seq_; }

  // High-water mark of live events over the queue's lifetime — the
  // per-domain occupancy statistic engine_perf commits to BENCH_engine.json.
  uint64_t max_live() const { return max_live_; }

  // Heap records, live plus stale (canceled, not yet discarded). Never
  // exceeds 2 * size() + 64 after a Cancel().
  size_t heap_records() const { return heap_.size(); }

  // Test-only: overwrite a free slot's generation counter to exercise the
  // wraparound regression (e.g. the old 32-bit truncation boundary). The slot
  // must exist and must not hold a live event.
  void SetSlotGenerationForTest(uint32_t slot, uint64_t generation);

 private:
  struct Slot {
    Callback cb;
    // Matches the generation in outstanding EventIds/heap records while the
    // slot is live; bumped on every free so stale references never match.
    // 64-bit: cannot wrap within any physically possible run.
    uint64_t generation = 1;
  };
  struct HeapItem {
    TimePoint when;
    uint64_t seq;  // Insertion order; breaks ties deterministically.
    uint64_t generation;
    uint32_t slot;
  };
  // Strict total order: (when, seq) ascending; seq is unique per queue.
  static bool Before(const HeapItem& a, const HeapItem& b) {
    if (a.when != b.when) {
      return a.when < b.when;
    }
    return a.seq < b.seq;
  }

  static EventId MakeId(uint32_t slot, uint64_t generation) {
    return EventId{generation, slot + 1};
  }

  // Destroys the slot's callback, bumps its generation, and returns it to
  // the freelist. The caller adjusts live_.
  void FreeSlot(uint32_t slot);

  // A record whose slot was freed (its event fired or was canceled).
  bool Stale(const HeapItem& item) const {
    return item.generation != slots_[item.slot].generation;
  }

  // Drops stale (canceled) records from the head of the heap.
  void SkipStale();

  // Erases every stale record and re-heapifies in place. Pop order cannot
  // change: (when, seq) is a strict total order, so every valid heap over
  // the same live records pops the same sequence.
  void Compact();
  static constexpr size_t kCompactMinRecords = 64;

  // 4-ary heap primitives. SiftHoleUp/SiftHoleDown place `item` starting
  // from the hole at `index`; RemoveTop fills the root from the last record.
  void SiftHoleUp(size_t index, const HeapItem& item);
  void SiftHoleDown(size_t index, HeapItem item);
  void RemoveTop();

  std::vector<HeapItem> heap_;  // 4-ary implicit min-heap, root at 0.
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
  size_t live_ = 0;
  uint64_t max_live_ = 0;
  uint64_t next_seq_ = 0;
};

}  // namespace e2e

#endif  // SRC_SIM_EVENT_QUEUE_H_
