#include "src/net/impair/link_schedule.h"

#include <algorithm>
#include <cassert>

namespace e2e {

LinkSchedule LinkSchedule::Step(LinkScheduleStep target) {
  LinkSchedule schedule;
  schedule.steps.push_back(target);
  return schedule;
}

LinkSchedule LinkSchedule::Ramp(TimePoint start, Duration duration, int num_steps,
                                const LinkScheduleStep& from, const LinkScheduleStep& to) {
  assert(num_steps >= 1);
  LinkSchedule schedule;
  for (int i = 1; i <= num_steps; ++i) {
    const double frac = static_cast<double>(i) / static_cast<double>(num_steps);
    LinkScheduleStep step;
    step.at = start + duration * frac;
    if (from.bandwidth_bps.has_value() && to.bandwidth_bps.has_value()) {
      step.bandwidth_bps = *from.bandwidth_bps + (*to.bandwidth_bps - *from.bandwidth_bps) * frac;
    }
    if (from.propagation.has_value() && to.propagation.has_value()) {
      step.propagation = *from.propagation + (*to.propagation - *from.propagation) * frac;
    }
    if (from.loss_probability.has_value() && to.loss_probability.has_value()) {
      step.loss_probability =
          *from.loss_probability + (*to.loss_probability - *from.loss_probability) * frac;
    }
    schedule.steps.push_back(step);
  }
  return schedule;
}

LinkSchedule LinkSchedule::SquareWave(TimePoint start, Duration half_period, int half_cycles,
                                      const LinkScheduleStep& lo, const LinkScheduleStep& hi) {
  assert(half_cycles >= 1);
  assert(half_period > Duration::Zero());
  LinkSchedule schedule;
  for (int i = 0; i < half_cycles; ++i) {
    LinkScheduleStep step = (i % 2 == 0) ? lo : hi;
    step.at = start + half_period * static_cast<int64_t>(i);
    schedule.steps.push_back(step);
  }
  return schedule;
}

LinkScheduler::LinkScheduler(Simulator* sim, Link* link, LinkSchedule schedule)
    : sim_(sim), link_(link), schedule_(std::move(schedule)) {
  assert(sim_ != nullptr && link_ != nullptr);
  std::stable_sort(schedule_.steps.begin(), schedule_.steps.end(),
                   [](const LinkScheduleStep& a, const LinkScheduleStep& b) { return a.at < b.at; });
}

void LinkScheduler::Start() {
  for (const LinkScheduleStep& step : schedule_.steps) {
    if (step.at <= sim_->Now()) {
      Apply(step);
    } else {
      sim_->ScheduleAt(step.at, [this, step] { Apply(step); });
    }
  }
}

void LinkScheduler::Apply(const LinkScheduleStep& step) {
  if (step.bandwidth_bps.has_value()) {
    link_->set_bandwidth_bps(*step.bandwidth_bps);
  }
  if (step.propagation.has_value()) {
    link_->set_propagation(*step.propagation);
  }
  if (step.loss_probability.has_value()) {
    link_->set_loss_probability(*step.loss_probability);
  }
  ++steps_applied_;
}

}  // namespace e2e
