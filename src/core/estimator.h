// Per-connection end-to-end performance estimator (paper §3).
//
// Each endpoint occasionally sends its wire-compressed queue counters to the
// peer inside a TCP option. On every received payload, the estimator also
// snapshots the *local* counters so the two intervals line up (within one
// one-way delay), then evaluates the combination formula over the deltas of
// the previous and current payload pairs.

#ifndef SRC_CORE_ESTIMATOR_H_
#define SRC_CORE_ESTIMATOR_H_

#include <cstdint>
#include <optional>

#include "src/core/endpoint_queues.h"
#include "src/core/hints.h"
#include "src/core/latency_combiner.h"
#include "src/core/units.h"
#include "src/core/wire_format.h"
#include "src/sim/time.h"

namespace e2e {

class ConnectionEstimator {
 public:
  // `mode` selects the unit mode carried on the wire (bytes in the paper's
  // prototype; syscalls for the hypothesized kernel patch).
  explicit ConnectionEstimator(UnitMode mode = UnitMode::kBytes) : mode_(mode) {}

  UnitMode mode() const { return mode_; }

  // Builds this endpoint's payload for transmission: snapshots the three
  // local queues (and the hint queue when an application provided one).
  WirePayload BuildLocalPayload(EndpointQueues& queues, HintTracker* hint, TimePoint now);

  // Ingests the peer's payload and refreshes the estimate. `queues` are the
  // local queues (snapshotted now to align intervals). Payloads whose delta
  // against the previous remote payload is implausible (wrap violation,
  // duplicate, out-of-range delay — see CheckWireDelta) are rejected: they
  // are counted, recorded in last_verdict(), and do NOT advance the
  // snapshot pairs, so one replayed/garbled exchange cannot poison the
  // estimate. Returns true when the payload was accepted.
  bool OnRemotePayload(const WirePayload& remote, EndpointQueues& queues, HintTracker* hint,
                       TimePoint now);

  // The latest kernel-queue estimate; invalid until two exchanges completed
  // (and whenever the last interval saw no departures).
  const E2eEstimate& estimate() const { return estimate_; }
  bool has_estimate() const { return estimate_.latency.has_value(); }

  // The most recent *valid* estimate, surviving idle intervals. Empty only
  // before the first valid estimate.
  const std::optional<E2eEstimate>& last_valid_estimate() const { return last_valid_; }

  // Hint-based estimate from the peer's application hint queue (valid only
  // when the peer supplies hints). Latency is the create->complete delay.
  // Like last_valid_estimate(), this survives idle intervals.
  std::optional<Duration> hint_latency() const { return hint_latency_; }
  double hint_throughput() const { return hint_throughput_; }

  // One-sided estimate from the local queues only, for when peer counters
  // are untrusted (health fallback level kLocalOnly). Maintains its own
  // snapshot pair, advanced on every call, so it keeps working while the
  // metadata channel is down entirely. L_local ≈ D_unacked + D_unread:
  // the unacked delay folds in the wait for the peer's acks, the unread
  // delay the local read backlog. Underestimates the peer's queues but is
  // immune to their lies.
  E2eEstimate LocalOnlyEstimate(EndpointQueues& queues, TimePoint now);

  // Number of remote payloads ingested (accepted + rejected).
  uint64_t exchanges() const { return exchanges_; }
  // Remote payloads rejected by delta-plausibility checks.
  uint64_t rejected_payloads() const { return rejected_payloads_; }
  // Verdict of the most recent remote payload (kOk before any arrive).
  WireDeltaVerdict last_verdict() const { return last_verdict_; }
  // Time of the most recent *accepted* remote payload.
  TimePoint last_update() const { return last_update_; }
  // True when the peer's last accepted payload repeated the one before it:
  // the same departure totals and occupancy integrals in all three queues,
  // so the peer changed nothing over that interval. Before the first two
  // payloads the peer's construction state (all counters zero) stands in,
  // so a peer that never did anything is quiet. TcpEndpoint parks its
  // exchange timer only while this holds (DESIGN.md §6).
  bool PeerQuiet() const;

  // Drops history (e.g. after an idle period that would straddle wraps).
  void Reset();

 private:
  // Packed snapshot slot (state dieting for 100k+-connection fleets): the
  // three queue counters plus the optional hint stored flat, with presence
  // tracked by two bits instead of per-slot std::optional wrappers. Compared
  // to std::optional<WirePayload> this also drops the per-slot copy of the
  // unit mode (redundant with mode_) and the hint's own optional engaged
  // flag — six slots per connection make the padding add up.
  struct PackedSnapshot {
    WireCounters unacked;
    WireCounters unread;
    WireCounters ackdelay;
    WireCounters hint;  // Meaningful only when has_hint.
    uint8_t present : 1;
    uint8_t has_hint : 1;

    PackedSnapshot() : present(0), has_hint(0) {}
    void Clear() { present = 0; has_hint = 0; }
  };
  static PackedSnapshot Pack(const WirePayload& payload);

  UnitMode mode_;
  PackedSnapshot local_prev_;
  PackedSnapshot local_cur_;
  PackedSnapshot remote_prev_;
  PackedSnapshot remote_cur_;
  // Independent pair for LocalOnlyEstimate (tick-cadence, not exchange-
  // aligned; must advance while exchanges are absent).
  PackedSnapshot local_only_prev_;
  PackedSnapshot local_only_cur_;
  E2eEstimate estimate_;
  std::optional<E2eEstimate> last_valid_;
  std::optional<Duration> hint_latency_;
  double hint_throughput_ = 0.0;
  uint64_t exchanges_ = 0;
  uint64_t rejected_payloads_ = 0;
  WireDeltaVerdict last_verdict_ = WireDeltaVerdict::kOk;
  TimePoint last_update_;
};

}  // namespace e2e

#endif  // SRC_CORE_ESTIMATOR_H_
