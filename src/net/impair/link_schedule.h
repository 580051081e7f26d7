// Time-varying links: scripted rewrites of a Link's bandwidth, propagation
// delay, and i.i.d. loss probability at fixed simulation times.
//
// A `LinkSchedule` is a declarative list of steps; `LinkScheduler` arms them
// on the simulator and applies each to the target link when its time comes.
// Profile builders cover the common shapes — a one-off step, a linear ramp
// (discretized into N steps), and a square wave (e.g. a flapping link that
// alternates between a healthy and a degraded parameter set).
//
// Semantics of a bandwidth change: it applies to packets whose serialization
// starts after the step fires; bits already on the wire keep their original
// timing (the simulator never rewrites scheduled deliveries).

#ifndef SRC_NET_IMPAIR_LINK_SCHEDULE_H_
#define SRC_NET_IMPAIR_LINK_SCHEDULE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/net/link.h"
#include "src/sim/simulator.h"
#include "src/sim/time.h"

namespace e2e {

// One scripted rewrite. Unset fields leave the link's current value alone.
struct LinkScheduleStep {
  TimePoint at;
  std::optional<double> bandwidth_bps;
  std::optional<Duration> propagation;
  std::optional<double> loss_probability;
};

struct LinkSchedule {
  std::vector<LinkScheduleStep> steps;

  bool empty() const { return steps.empty(); }

  LinkSchedule& Add(LinkScheduleStep step) {
    steps.push_back(step);
    return *this;
  }

  // A single step to `target` at `target.at`.
  static LinkSchedule Step(LinkScheduleStep target);

  // Linear interpolation from `from` to `to` over [start, start + duration],
  // discretized into `num_steps` equal steps (>= 1; the last step lands
  // exactly on `to`). Only fields set in BOTH endpoints are interpolated.
  static LinkSchedule Ramp(TimePoint start, Duration duration, int num_steps,
                           const LinkScheduleStep& from, const LinkScheduleStep& to);

  // Alternates `hi` and `lo` starting with `lo` at `start`, switching every
  // `half_period`, for `half_cycles` switches total. half_cycles = 2 is one
  // full flap (degrade, then recover).
  static LinkSchedule SquareWave(TimePoint start, Duration half_period, int half_cycles,
                                 const LinkScheduleStep& lo, const LinkScheduleStep& hi);
};

// Arms a schedule against one link. The scheduler must outlive the pending
// events (the topology owns it alongside the link).
class LinkScheduler {
 public:
  LinkScheduler(Simulator* sim, Link* link, LinkSchedule schedule);

  // Schedules every step at its absolute time. Steps at or before Now()
  // apply immediately, in order.
  void Start();

  uint64_t steps_applied() const { return steps_applied_; }

 private:
  void Apply(const LinkScheduleStep& step);

  Simulator* sim_;
  Link* link_;
  LinkSchedule schedule_;
  uint64_t steps_applied_ = 0;
};

}  // namespace e2e

#endif  // SRC_NET_IMPAIR_LINK_SCHEDULE_H_
