// The TCP segment payload carried inside a net::Packet.

#ifndef SRC_TCP_SEGMENT_H_
#define SRC_TCP_SEGMENT_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/core/wire_format.h"
#include "src/net/packet.h"
#include "src/tcp/byte_stream.h"

namespace e2e {

enum TcpFlags : uint16_t {
  kFlagAck = 1 << 0,
  kFlagPsh = 1 << 1,
  // ECN signalling (RFC 3168 §6.1): the receiver echoes a CE-marked arrival
  // with ECE; the sender acknowledges reducing its window with CWR.
  kFlagEce = 1 << 2,
  kFlagCwr = 1 << 3,
};

// RFC 7323 timestamps option: TSval is the sender's microsecond clock
// (mod 2^32), TSecr echoes the peer's most recent in-window TSval.
struct TsOption {
  uint32_t tsval = 0;
  uint32_t tsecr = 0;

  bool operator==(const TsOption&) const = default;
};

// One RFC 2018 SACK block: wire (wrapped) sequence range [start, end) the
// receiver holds above the cumulative ack.
struct SackBlock {
  uint32_t start = 0;
  uint32_t end = 0;

  bool operator==(const SackBlock&) const = default;
};

struct TcpSegment : public PacketPayload {
  // Connection demultiplexing key (one per endpoint pair).
  uint64_t conn_id = 0;
  // Direction: true when sent by the endpoint created first ("A side").
  bool from_a = false;

  uint32_t seq = 0;    // Wire (wrapped) sequence of the first payload byte.
  uint32_t ack = 0;    // Cumulative ack (valid when kFlagAck set).
  uint32_t len = 0;    // Payload bytes.
  uint16_t flags = 0;
  uint32_t window = 0;  // Advertised receive window in bytes.

  // Message boundaries within (seq, seq+len], relative to `seq` (1..len).
  // Models PSH-marked send() boundaries; carries app records to the peer.
  struct Boundary {
    uint32_t rel_end = 0;  // Boundary at seq + rel_end (exclusive end).
    MessageRecord record;
  };
  std::vector<Boundary> boundaries;

  // The end-to-end metadata exchange option (paper §3.2/§5), when attached.
  std::optional<WirePayload> e2e_option;

  // RFC 7323 timestamps, when the feature is on and the option-space
  // arbiter admitted them (see ArbitrateOptions in segment_codec.h).
  std::optional<TsOption> ts;

  // RFC 2018 SACK blocks (first = the block containing the most recently
  // received segment, per the RFC's generation rule), possibly trimmed by
  // the option-space arbiter.
  std::vector<SackBlock> sack;

  bool is_retransmit = false;
};

}  // namespace e2e

#endif  // SRC_TCP_SEGMENT_H_
