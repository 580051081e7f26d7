// A virtual byte-stream queue with message-boundary records.
//
// The simulator does not shuffle real payload bytes around; a stream is a
// contiguous range of *offsets* plus a sorted list of message boundaries.
// Each boundary marks the exclusive end offset of one application message
// (one send() call) and carries an opaque record that rides the stream to
// the receiver — this is how the semantic gap between bytes and application
// messages is modeled (and how ground-truth latencies are measured).
//
// Used for both the send queue (append on send(), consume on ack) and the
// receive queue (append on in-order arrival, consume on recv()).

#ifndef SRC_TCP_BYTE_STREAM_H_
#define SRC_TCP_BYTE_STREAM_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/sim/ring.h"
#include "src/sim/time.h"

namespace e2e {

// Opaque per-message metadata attached to a boundary. `data` typically holds
// an application request/response object; `send_time` is stamped when the
// message enters the sender's stack (ground truth for latency measurement).
// `syscall_end` marks the last message of one send() call: when an
// application batches several messages into one syscall (paper §3.3's
// caveat about the syscall heuristic), only that boundary counts as a
// syscall unit.
struct MessageRecord {
  uint64_t id = 0;
  std::shared_ptr<void> data;
  TimePoint send_time;
  bool syscall_end = true;
};

struct BoundaryEntry {
  uint64_t end_offset = 0;  // Exclusive stream offset where the message ends.
  MessageRecord record;
};

class ByteStreamQueue {
 public:
  explicit ByteStreamQueue(uint64_t start_offset = 0)
      : head_(start_offset), tail_(start_offset) {}

  uint64_t head_offset() const { return head_; }
  uint64_t tail_offset() const { return tail_; }
  uint64_t size_bytes() const { return tail_ - head_; }
  bool empty() const { return head_ == tail_; }

  // Extends the stream by `len` bytes.
  void Append(uint64_t len) { tail_ += len; }

  // Registers a message boundary at `end_offset` (must be > the previous
  // boundary and <= tail).
  void AddBoundary(uint64_t end_offset, MessageRecord record);

  // Number of boundaries currently in the queue.
  size_t boundary_count() const { return boundaries_.size(); }

  struct Consumed {
    uint64_t bytes = 0;
    std::vector<BoundaryEntry> completed;  // Boundaries whose end was reached.
  };

  // Consumes up to `max_bytes` from the head, returning the boundaries whose
  // end offset the new head reached or passed.
  Consumed Consume(uint64_t max_bytes);

  // Consumes exactly up to absolute offset `to` (head <= to <= tail).
  Consumed ConsumeTo(uint64_t to);

  // The i-th boundary in stream order (0 is the oldest).
  const BoundaryEntry& boundary(size_t i) const { return boundaries_[i]; }

  // Index of the first boundary whose end offset exceeds `offset`, or
  // boundary_count() if none does. Segment builders walk forward from here.
  size_t FirstBoundaryAfter(uint64_t offset) const;

 private:
  uint64_t head_;
  uint64_t tail_;
  Ring<BoundaryEntry> boundaries_;  // Sorted by end_offset.
};

}  // namespace e2e

#endif  // SRC_TCP_BYTE_STREAM_H_
