#include "src/core/health.h"

#include "src/obs/trace.h"

namespace e2e {

const char* HealthStateName(HealthState state) {
  switch (state) {
    case HealthState::kFull:
      return "full";
    case HealthState::kLocalOnly:
      return "local_only";
    case HealthState::kDiagAssisted:
      return "diag_assisted";
    case HealthState::kStatic:
      return "static";
  }
  return "?";
}

EstimatorHealth::EstimatorHealth(const HealthConfig& config, TimePoint now)
    : config_(config), fresh_since_(now), state_since_(now) {
  // Trust is earned: a new connection starts on the static policy and
  // climbs to kFull through the promotion streak.
  transitions_.emplace_back(now, state_);
}

void EstimatorHealth::OnExchange(TimePoint now, WireDeltaVerdict verdict) {
  switch (verdict) {
    case WireDeltaVerdict::kOk:
      ++counters_.healthy_exchanges;
      fresh_since_ = now;
      reject_streak_ = 0;
      if (state_ != HealthState::kFull) {
        if (++healthy_streak_ >= config_.promote_after) {
          Promote(now);
          healthy_streak_ = 0;
        }
      }
      return;
    case WireDeltaVerdict::kZeroDeparture:
      // Time advanced, so the channel is alive — but an interval with
      // occupancy and no departures proves nothing about the delay math.
      ++counters_.zero_departure_exchanges;
      fresh_since_ = now;
      return;
    case WireDeltaVerdict::kNoProgress:
      ++counters_.rejected_no_progress;
      break;
    case WireDeltaVerdict::kWrapViolation:
      ++counters_.rejected_wrap_violation;
      break;
    case WireDeltaVerdict::kImplausibleDelay:
      ++counters_.rejected_implausible_delay;
      break;
  }
  healthy_streak_ = 0;
  if (++reject_streak_ >= config_.demote_after_rejects) {
    Demote(now);
    reject_streak_ = 0;
  }
}

void EstimatorHealth::Tick(TimePoint now, TimePoint last_arrival) {
  if (last_arrival <= fresh_since_) {
    // Nothing arrived unvouched for: the peer is quiet, not stale. Once the
    // silence outlasts the bound it vouches for itself, so a feed withheld
    // when traffic resumes is caught freshness_bound after that, not at
    // once. (Busy connections never reach this branch past the bound.)
    if (now - fresh_since_ > config_.freshness_bound) {
      fresh_since_ = now;
    }
    return;
  }
  const Duration stale = now - fresh_since_;
  if (stale > config_.static_after) {
    // The metadata channel is dead. Where we land depends on the diag
    // signal: fresh in-network observation keeps the controller in
    // kDiagAssisted; otherwise (or when the signal disappears while
    // already there) the chain bottoms out at kStatic.
    const HealthState floor = FloorState(now);
    if (state_ != floor) {
      if (state_ == HealthState::kStatic) {
        ++counters_.diag_rescues;  // kStatic -> kDiagAssisted recovery.
      } else {
        ++counters_.demotions;
        if (floor == HealthState::kDiagAssisted) {
          ++counters_.diag_rescues;
        } else if (state_ == HealthState::kDiagAssisted) {
          ++counters_.diag_dropouts;
        }
        healthy_streak_ = 0;
      }
      SetState(floor, now);
    }
  } else if (stale > config_.freshness_bound && state_ == HealthState::kFull) {
    SetState(HealthState::kLocalOnly, now);
    ++counters_.demotions;
    healthy_streak_ = 0;
  }
}

void EstimatorHealth::OnConnectionLost(TimePoint now) {
  ++counters_.connection_losses;
  healthy_streak_ = 0;
  reject_streak_ = 0;
  if (state_ != HealthState::kStatic) {
    SetState(HealthState::kStatic, now);
    ++counters_.demotions;
  }
}

void EstimatorHealth::OnReconnect(TimePoint now) {
  healthy_streak_ = 0;
  reject_streak_ = 0;
  fresh_since_ = now;  // Fresh estimator: staleness restarts from zero.
}

Duration EstimatorHealth::TimeIn(HealthState state, TimePoint now) const {
  Duration total = time_in_[static_cast<size_t>(state)];
  if (state == state_) {
    total += now - state_since_;
  }
  return total;
}

void EstimatorHealth::SetState(HealthState next, TimePoint now) {
  if (TraceRecorder* tr = TraceIf(TraceCategory::kHealth)) {
    TraceEvent e;
    e.time = now;
    e.category = TraceCategory::kHealth;
    e.name = HealthStateName(next);  // Static-lifetime string literal.
    e.track = tr->Track("health");
    e.k1 = "from";
    e.v1 = static_cast<double>(state_);
    e.k2 = "to";
    e.v2 = static_cast<double>(next);
    tr->Record(e);
  }
  time_in_[static_cast<size_t>(state_)] += now - state_since_;
  state_ = next;
  state_since_ = now;
  transitions_.emplace_back(now, next);
}

void EstimatorHealth::Demote(TimePoint now) {
  if (state_ == HealthState::kStatic) {
    return;
  }
  HealthState next = HealthState::kStatic;
  switch (state_) {
    case HealthState::kFull:
      next = HealthState::kLocalOnly;
      break;
    case HealthState::kLocalOnly:
      // The step below kLocalOnly is diag-gated: kDiagAssisted only exists
      // while the in-network signal vouches for the flow.
      next = FloorState(now);
      break;
    case HealthState::kDiagAssisted:
    case HealthState::kStatic:
      next = HealthState::kStatic;
      break;
  }
  if (next == HealthState::kDiagAssisted) {
    ++counters_.diag_rescues;
  } else if (state_ == HealthState::kDiagAssisted) {
    ++counters_.diag_dropouts;
  }
  SetState(next, now);
  ++counters_.demotions;
}

void EstimatorHealth::Promote(TimePoint now) {
  if (state_ == HealthState::kFull) {
    return;
  }
  // kDiagAssisted is not a trust rung: a healthy streak leaves it (or
  // kStatic) for kLocalOnly, so an installed diag signal never lengthens
  // the climb back to kFull.
  const HealthState next =
      state_ == HealthState::kLocalOnly ? HealthState::kFull : HealthState::kLocalOnly;
  SetState(next, now);
  ++counters_.promotions;
}

HealthState EstimatorHealth::FloorState(TimePoint now) const {
  return (diag_signal_ && diag_signal_(now)) ? HealthState::kDiagAssisted
                                             : HealthState::kStatic;
}

}  // namespace e2e
