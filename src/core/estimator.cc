#include "src/core/estimator.h"

#include <algorithm>

namespace e2e {
namespace {

// Both helpers accept any type exposing unacked/unread/ackdelay counters —
// the wire-side WirePayload and the estimator's PackedSnapshot slots alike.
template <typename Prev, typename Cur>
EndpointAverages AvgsOf(const Prev& prev, const Cur& cur) {
  return EndpointAverages{
      WireGetAvgs(prev.unacked, cur.unacked),
      WireGetAvgs(prev.unread, cur.unread),
      WireGetAvgs(prev.ackdelay, cur.ackdelay),
  };
}

// Worst verdict across the three queues of a payload delta. All three share
// one snapshot clock, so a wrap violation on any queue condemns the pair.
template <typename Prev, typename Cur>
WireDeltaVerdict CheckPayloadDelta(const Prev& prev, const Cur& cur) {
  WireDeltaVerdict worst = WireDeltaVerdict::kOk;
  const auto severity = [](WireDeltaVerdict v) {
    switch (v) {
      case WireDeltaVerdict::kOk:
        return 0;
      case WireDeltaVerdict::kZeroDeparture:
        return 1;
      case WireDeltaVerdict::kNoProgress:
        return 2;
      case WireDeltaVerdict::kImplausibleDelay:
        return 3;
      case WireDeltaVerdict::kWrapViolation:
        return 4;
    }
    return 0;
  };
  for (const WireDeltaVerdict v : {CheckWireDelta(prev.unacked, cur.unacked),
                                   CheckWireDelta(prev.unread, cur.unread),
                                   CheckWireDelta(prev.ackdelay, cur.ackdelay)}) {
    if (severity(v) > severity(worst)) {
      worst = v;
    }
  }
  return worst;
}

bool Rejects(WireDeltaVerdict v) {
  return v == WireDeltaVerdict::kNoProgress || v == WireDeltaVerdict::kWrapViolation ||
         v == WireDeltaVerdict::kImplausibleDelay;
}

}  // namespace

ConnectionEstimator::PackedSnapshot ConnectionEstimator::Pack(const WirePayload& payload) {
  PackedSnapshot packed;
  packed.unacked = payload.unacked;
  packed.unread = payload.unread;
  packed.ackdelay = payload.ackdelay;
  packed.present = 1;
  if (payload.hint.has_value()) {
    packed.hint = *payload.hint;
    packed.has_hint = 1;
  }
  return packed;
}

WirePayload ConnectionEstimator::BuildLocalPayload(EndpointQueues& queues, HintTracker* hint,
                                                   TimePoint now) {
  const EndpointSnapshot snap = queues.SnapshotAll(mode_, now);
  WirePayload payload;
  payload.mode = mode_;
  payload.unacked = CompressSnapshot(snap.unacked);
  payload.unread = CompressSnapshot(snap.unread);
  payload.ackdelay = CompressSnapshot(snap.ackdelay);
  if (hint != nullptr) {
    payload.hint = hint->WireSnapshot(now);
  }
  return payload;
}

bool ConnectionEstimator::OnRemotePayload(const WirePayload& remote, EndpointQueues& queues,
                                          HintTracker* hint, TimePoint now) {
  ++exchanges_;
  if (remote_cur_.present) {
    last_verdict_ = CheckPayloadDelta(remote_cur_, remote);
    if (Rejects(last_verdict_)) {
      ++rejected_payloads_;
      return false;
    }
  } else {
    last_verdict_ = WireDeltaVerdict::kOk;
  }
  last_update_ = now;
  local_prev_ = local_cur_;
  local_cur_ = Pack(BuildLocalPayload(queues, hint, now));
  remote_prev_ = remote_cur_;
  remote_cur_ = Pack(remote);
  if (!local_prev_.present || !remote_prev_.present) {
    return true;
  }
  const EndpointAverages local_avgs = AvgsOf(local_prev_, local_cur_);
  const EndpointAverages remote_avgs = AvgsOf(remote_prev_, remote_cur_);
  estimate_ = EstimateEndToEnd(local_avgs, remote_avgs);
  if (estimate_.latency.has_value()) {
    last_valid_ = estimate_;
  }
  if (remote_prev_.has_hint && remote_cur_.has_hint) {
    const QueueAverages hint_avgs = WireGetAvgs(remote_prev_.hint, remote_cur_.hint);
    if (hint_avgs.delay.has_value()) {
      hint_latency_ = hint_avgs.delay;
      hint_throughput_ = hint_avgs.throughput;
    }
  }
  return true;
}

bool ConnectionEstimator::PeerQuiet() const {
  // Missing snapshots stand for the peer's construction state: every
  // counter zero, known to both sides without an exchange.
  const PackedSnapshot zero;
  const PackedSnapshot& prev = remote_prev_.present ? remote_prev_ : zero;
  const PackedSnapshot& cur = remote_cur_.present ? remote_cur_ : zero;
  const auto same = [](const WireCounters& a, const WireCounters& b) {
    return a.total == b.total && a.integral_us == b.integral_us;
  };
  return same(prev.unacked, cur.unacked) && same(prev.unread, cur.unread) &&
         same(prev.ackdelay, cur.ackdelay);
}

E2eEstimate ConnectionEstimator::LocalOnlyEstimate(EndpointQueues& queues, TimePoint now) {
  local_only_prev_ = local_only_cur_;
  local_only_cur_ = Pack(BuildLocalPayload(queues, /*hint=*/nullptr, now));
  E2eEstimate est;
  if (!local_only_prev_.present) {
    return est;
  }
  const EndpointAverages avgs = AvgsOf(local_only_prev_, local_only_cur_);
  if (!avgs.unacked.delay.has_value()) {
    return est;
  }
  const Duration zero = Duration::Zero();
  est.latency = std::max(*avgs.unacked.delay + avgs.unread.DelayOr(zero), zero);
  est.a_send_throughput = avgs.unacked.throughput;
  return est;
}

void ConnectionEstimator::Reset() {
  local_prev_.Clear();
  local_cur_.Clear();
  remote_prev_.Clear();
  remote_cur_.Clear();
  local_only_prev_.Clear();
  local_only_cur_.Clear();
  estimate_ = E2eEstimate{};
  last_valid_.reset();
  hint_latency_.reset();
  hint_throughput_ = 0.0;
  last_verdict_ = WireDeltaVerdict::kOk;
}

}  // namespace e2e
