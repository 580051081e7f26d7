// Estimator health / degradation layer (DESIGN.md §10).
//
// The end-to-end estimate is only as good as the metadata channel feeding
// it: peer counters go stale under loss, arrive duplicated or replayed
// under middlebox weirdness, and stop entirely when the peer crashes. A
// controller steering batching off a poisoned estimate is worse than a
// static heuristic, so each connection carries an EstimatorHealth that
// grades estimate confidence from two signals:
//
//   freshness    — how long since the last healthy exchange (clock-driven,
//                  checked on every controller tick), counted only while
//                  segments keep arriving without fresh metadata:
//                  endpoints exchange on change, so a quiet connection
//                  sends nothing, and an idle peer is not a stale one (a
//                  withheld feed on a busy connection still is); and
//   plausibility — the WireDeltaVerdict of each arriving exchange
//                  (wrap-violation deltas, zero-departure intervals,
//                  non-finite/implausible derived delays).
//
// Health drives an explicit fallback chain, one level at a time:
//
//   kFull         full two-sided estimate (paper §3.2)
//   kLocalOnly    local-queues-only estimate (peer counters untrusted)
//   kDiagAssisted metadata channel is dead but an independent in-network
//                 observer (src/net/fabric/diag) vouches the flow is alive:
//                 the controller keeps consuming the local-only estimate
//                 instead of freezing
//   kStatic       static policy; the controller freezes arm state and stops
//                 consuming samples so degraded data cannot poison EWMAs
//
// Demotion is immediate (freshness bound exceeded, connection lost, or a
// streak of rejected exchanges); promotion is hysteretic — one level per
// `promote_after` *consecutive* healthy exchanges — so a flapping channel
// settles into the degraded state instead of oscillating.
//
// kDiagAssisted is a signal-gated refuge, not a trust rung: a demotion that
// would land on kStatic lands there instead while the diag signal is fresh
// (and falls through / drops out to kStatic when it is not), and a healthy
// promotion streak leaves it for kLocalOnly exactly as it would from
// kStatic — so installing a diag signal never lengthens the climb back to
// kFull. Without a diag signal installed the chain behaves exactly as the
// original three-state ladder.

#ifndef SRC_CORE_HEALTH_H_
#define SRC_CORE_HEALTH_H_

#include <array>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "src/core/wire_format.h"
#include "src/sim/time.h"

namespace e2e {

// Confidence levels, ordered best to worst; the numeric value indexes
// time-in-state accounting.
enum class HealthState : uint8_t {
  kFull = 0,
  kLocalOnly = 1,
  kDiagAssisted = 2,
  kStatic = 3,
};
inline constexpr size_t kNumHealthStates = 4;

const char* HealthStateName(HealthState state);

struct HealthConfig {
  // No healthy exchange for this long demotes kFull -> kLocalOnly. Should
  // comfortably exceed the exchange interval (several missed exchanges,
  // not one delayed segment).
  Duration freshness_bound = Duration::Millis(10);
  // No healthy exchange for this long demotes all the way to kStatic.
  Duration static_after = Duration::Millis(50);
  // Consecutive healthy exchanges required to climb one level.
  int promote_after = 8;
  // Consecutive rejected exchanges that demote one level even while
  // traffic is flowing (plausibility failure, not staleness).
  int demote_after_rejects = 3;
};

struct HealthCounters {
  uint64_t healthy_exchanges = 0;
  uint64_t rejected_no_progress = 0;
  uint64_t rejected_wrap_violation = 0;
  uint64_t rejected_implausible_delay = 0;
  uint64_t zero_departure_exchanges = 0;
  uint64_t demotions = 0;
  uint64_t promotions = 0;
  uint64_t connection_losses = 0;
  // Demotions that landed on kDiagAssisted instead of kStatic because the
  // diag signal was fresh (includes kStatic -> kDiagAssisted recoveries).
  uint64_t diag_rescues = 0;
  // Falls from kDiagAssisted to kStatic because the diag signal went away.
  uint64_t diag_dropouts = 0;

  uint64_t rejected_total() const {
    return rejected_no_progress + rejected_wrap_violation + rejected_implausible_delay;
  }
};

class EstimatorHealth {
 public:
  EstimatorHealth(const HealthConfig& config, TimePoint now);

  // Grades one arriving exchange. Healthy exchanges refresh the freshness
  // clock and advance the promotion streak; rejected ones advance the
  // demotion streak. kZeroDeparture refreshes freshness (time really did
  // advance) but proves nothing about plausibility, so it leaves both
  // streaks untouched.
  void OnExchange(TimePoint now, WireDeltaVerdict verdict);

  // Clock-driven freshness check; call at controller-tick cadence with the
  // time the graded endpoint last received any segment
  // (TcpEndpoint::last_rx()). No arrival since the last healthy exchange
  // means the peer is idle, and an idle peer never demotes. Otherwise
  // staleness runs from that exchange, or from the end of the silence.
  // Only ever demotes.
  void Tick(TimePoint now, TimePoint last_arrival);

  // The connection is gone (peer crash / teardown): hard demote to
  // kStatic. Promotion after reconnect goes through the normal streak.
  void OnConnectionLost(TimePoint now);

  // A replacement connection is up; resets streaks and the freshness clock
  // so the new estimator starts from a clean (but still kStatic) slate.
  void OnReconnect(TimePoint now);

  // Installs the independent liveness signal: returns true while an
  // in-network observer has seen the connection's packets recently (e.g.
  // FlowDiagnoser::Fresh bound to this connection). Must be a pure read —
  // it is consulted inside Tick()/OnExchange(). Nullptr (the default)
  // disables kDiagAssisted entirely.
  using DiagSignalFn = std::function<bool(TimePoint now)>;
  void SetDiagSignal(DiagSignalFn signal) { diag_signal_ = std::move(signal); }

  HealthState state() const { return state_; }
  const HealthCounters& counters() const { return counters_; }

  // Cumulative time spent in `state`, including the currently open span.
  Duration TimeIn(HealthState state, TimePoint now) const;

  // Every state change as (time, new state); the initial state is entry 0.
  // The bench derives time-to-detect / time-to-recover from this log.
  const std::vector<std::pair<TimePoint, HealthState>>& transitions() const {
    return transitions_;
  }

 private:
  void SetState(HealthState next, TimePoint now);
  void Demote(TimePoint now);
  void Promote(TimePoint now);
  // Where a would-be drop to the bottom actually lands: kDiagAssisted when
  // the diag signal is installed and fresh, else kStatic.
  HealthState FloorState(TimePoint now) const;

  HealthConfig config_;
  DiagSignalFn diag_signal_;
  HealthState state_ = HealthState::kStatic;
  // Start of the freshness clock: the last healthy (or zero-departure)
  // exchange, or the last tick of a silence that outlasted the bound.
  TimePoint fresh_since_;
  TimePoint state_since_;
  int healthy_streak_ = 0;
  int reject_streak_ = 0;
  HealthCounters counters_;
  std::array<Duration, kNumHealthStates> time_in_{};
  std::vector<std::pair<TimePoint, HealthState>> transitions_;
};

}  // namespace e2e

#endif  // SRC_CORE_HEALTH_H_
