#include "src/testbed/faults/fault_schedule.h"

#include <algorithm>

namespace e2e {

FaultSchedule& FaultSchedule::Add(FaultKind kind, TimePoint at, Duration duration) {
  FaultEvent event;
  event.kind = kind;
  event.at = at;
  event.duration = duration;
  events_.push_back(event);
  std::stable_sort(events_.begin(), events_.end(),
                   [](const FaultEvent& a, const FaultEvent& b) { return a.at < b.at; });
  return *this;
}

FaultSchedule& FaultSchedule::Periodic(FaultKind kind, TimePoint start, TimePoint end,
                                       Duration period, Duration duration) {
  for (TimePoint at = start; at < end; at = at + period) {
    Add(kind, at, duration);
  }
  return *this;
}

uint64_t FaultSchedule::CountOf(FaultKind kind) const {
  uint64_t n = 0;
  for (const FaultEvent& event : events_) {
    if (event.kind == kind) {
      ++n;
    }
  }
  return n;
}

}  // namespace e2e
