// Pluggable congestion control (DESIGN.md §13).
//
// `CongestionControlAlgorithm` is the plug-point between the TCP endpoint's
// transmit machinery and the window-adaptation policy: the endpoint reports
// events (cumulative acks, the third duplicate ack, retransmission
// timeouts, ECN echoes, RTT samples) and reads back a congestion window
// that gates its send path alongside the peer's advertised window. Three
// policies implement the interface:
//
//   Reno   (reno.h)   — RFC 5681 slow start / congestion avoidance /
//                       multiplicative decrease; the port of the original
//                       fixed `CongestionControl` class.
//   CUBIC  (cubic.h)  — RFC 8312 cubic window curve around W_max with the
//                       Reno-friendly region and fast convergence.
//   DCTCP  (dctcp.h)  — RFC 8257 ECN-fraction EWMA (alpha) driving a
//                       proportional, not multiplicative, decrease.
//
// Event conventions (what the endpoint guarantees):
//   * OnEcnEcho(acked, now) is called BEFORE OnAck(acked, now) when one
//     arriving ack both advances snd_una and carries ECE, with the same
//     byte count, so DCTCP can attribute those bytes to the marked tally
//     that OnAck then also counts in the total.
//   * A pure duplicate ack with ECE calls OnEcnEcho(0, now) only.
//   * OnDupAckThreshold fires once per loss event (the third consecutive
//     duplicate ack), OnRto on every retransmission-timeout fire.
//   * `now` is simulation time; algorithms must not read wall clocks
//     (determinism contract, DESIGN.md §9).
//
// Windowing without sequence numbers: real implementations bound "react at
// most once per window of data" with sequence-space markers. The interface
// deliberately keeps algorithms sequence-free, so Reno/CUBIC gate repeated
// ECN reactions — and DCTCP rolls its observation window — on an RTT-sized
// *time* window (the smoothed RTT from OnRttSample, or a configured
// fallback before the first sample). In simulation the two are equivalent:
// a full window of data takes one RTT to be acked.

#ifndef SRC_TCP_CC_CONGESTION_CONTROL_H_
#define SRC_TCP_CC_CONGESTION_CONTROL_H_

#include <cstdint>
#include <limits>
#include <memory>

#include "src/sim/time.h"

namespace e2e {

enum class CcAlgorithm {
  kReno = 0,
  kCubic = 1,
  kDctcp = 2,
};

// Stable lowercase name ("reno", "cubic", "dctcp") for tables and JSON.
const char* CcAlgorithmName(CcAlgorithm algorithm);

// Coarse controller state, for introspection and time-series gauges.
enum class CcState {
  kSlowStart = 0,   // cwnd < ssthresh: exponential growth.
  kAvoidance = 1,   // At or above ssthresh: additive / curve-driven growth.
  kCwr = 2,         // Within one RTT of a congestion reaction.
};

struct CcConfig {
  bool enabled = true;
  CcAlgorithm algorithm = CcAlgorithm::kReno;
  uint32_t mss = 1448;
  uint32_t initial_window_segments = 10;  // RFC 6928 IW10.
  uint64_t max_window_bytes = 64ull * 1024 * 1024;

  // Endpoint-level ECN: echo CE marks as ECE and react to echoed ECE with
  // CWR (segment.h / endpoint.cc). Off by default — the pre-ECN stack.
  bool ecn = false;

  // Reaction/observation window used before the first RTT sample arrives
  // (see the header comment on time-based windowing).
  Duration fallback_rtt = Duration::Micros(100);

  // CUBIC (RFC 8312).
  double cubic_c = 0.4;
  double cubic_beta = 0.7;  // Multiplicative decrease factor.
  bool cubic_fast_convergence = true;

  // DCTCP (RFC 8257).
  double dctcp_gain = 1.0 / 16.0;  // g, the alpha EWMA weight.
  double dctcp_alpha_init = 1.0;   // Conservative start, per the RFC.
};

class CongestionControlAlgorithm {
 public:
  explicit CongestionControlAlgorithm(const CcConfig& config);
  virtual ~CongestionControlAlgorithm() = default;

  // ---- Events (see header comment for ordering guarantees) ----

  // Cumulative ack advanced by `acked_bytes`.
  virtual void OnAck(uint64_t acked_bytes, TimePoint now = TimePoint::Zero()) = 0;
  // Third consecutive duplicate ack: one fast-retransmit loss event.
  virtual void OnDupAckThreshold() = 0;
  // Retransmission timeout: RFC 5681 §3.1 — cwnd collapses to one MSS and
  // slow start restarts toward ssthresh = max(flight/2, 2 MSS).
  virtual void OnRto() = 0;
  // Ack carrying ECE (RFC 3168 / 8257). `acked_bytes` is what this ack
  // newly acknowledged (0 for a pure duplicate). Default: no-op.
  virtual void OnEcnEcho(uint64_t acked_bytes, TimePoint now = TimePoint::Zero());
  // A fresh RTT measurement (Karn-filtered, from the endpoint's timer).
  virtual void OnRttSample(Duration rtt, TimePoint now = TimePoint::Zero());

  virtual const char* name() const = 0;

  // ---- Window / state introspection ----

  // The window gating the send path (effectively unbounded when disabled).
  uint64_t window_bytes() const {
    return config_.enabled ? cwnd_ : std::numeric_limits<uint64_t>::max();
  }
  // The raw congestion window, regardless of `enabled`.
  uint64_t cwnd_bytes() const { return cwnd_; }
  uint64_t ssthresh() const { return ssthresh_; }
  bool in_slow_start() const { return cwnd_ < ssthresh_; }
  // Pass the current sim time to see kCwr (the reaction window is a time
  // window); without it the state degenerates to slow-start vs avoidance.
  CcState state(TimePoint now = TimePoint::Zero()) const;
  // Congestion reactions applied (fast retransmit + RTO + ECN decreases).
  // The endpoint uses the delta across one ack to decide when to set CWR.
  uint64_t decrease_events() const { return decrease_events_; }
  const CcConfig& config() const { return config_; }

 protected:
  uint64_t ClampWindow(uint64_t bytes) const;
  // Smoothed RTT, or the configured fallback before any sample.
  Duration ReactionWindow() const;

  CcConfig config_;
  uint64_t cwnd_ = 0;
  uint64_t ssthresh_ = 0;
  Duration srtt_ = Duration::Zero();
  TimePoint cwr_until_ = TimePoint::Zero();  // End of the current reaction window.
  uint64_t decrease_events_ = 0;
};

// Builds the algorithm selected by `config.algorithm`.
std::unique_ptr<CongestionControlAlgorithm> MakeCongestionControl(const CcConfig& config);

}  // namespace e2e

#endif  // SRC_TCP_CC_CONGESTION_CONTROL_H_
