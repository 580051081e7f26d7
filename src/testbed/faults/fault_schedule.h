// Scripted fault schedules for robustness experiments.
//
// A schedule is a deterministic list of (kind, start, duration) events built
// up-front — never sampled during the run — so the same seed always injects
// the same faults at the same virtual instants, and a collector can check
// observed fault counters against the schedule exactly. Faults here model
// *host and process* misbehavior (VM preemption stalls, process crashes,
// metadata-channel corruption); they compose freely with the packet-level
// impairments in src/net/impair, which model the *network*.

#ifndef SRC_TESTBED_FAULTS_FAULT_SCHEDULE_H_
#define SRC_TESTBED_FAULTS_FAULT_SCHEDULE_H_

#include <cstdint>
#include <vector>

#include "src/sim/time.h"

namespace e2e {

enum class FaultKind : uint8_t {
  // Freezes the client / server host (both app and softirq cores) for the
  // event's duration — a VM preemption or stop-the-world GC pause. Work in
  // flight finishes on schedule; nothing new starts until the stall lifts.
  kClientStall = 0,
  kServerStall,
  // Kills the server process at `at`: the connection and all server-side
  // estimator state vanish; a restart (fresh process, empty state) comes
  // up after `duration`. Clients see a dead transport and must reconnect.
  kServerCrash,
  // Metadata-channel faults, active for [at, at + duration): the transport
  // keeps delivering data but the piggybacked counter payloads are
  // withheld entirely, delivered twice, or replaced by a stale replay of
  // the first payload seen in the window.
  kMetaWithhold,
  kMetaDuplicate,
  kMetaStaleReplay,
};

inline constexpr int kNumFaultKinds = 6;

struct FaultEvent {
  FaultKind kind = FaultKind::kClientStall;
  TimePoint at;       // Virtual time the fault begins.
  Duration duration;  // Stall length / server downtime / fault window.
};

class FaultSchedule {
 public:
  FaultSchedule& Add(FaultKind kind, TimePoint at, Duration duration);

  // Appends one `kind` event of `duration` every `period` starting at
  // `start`, for events beginning strictly before `end`. The workhorse for
  // intensity sweeps: intensity = duration / period.
  FaultSchedule& Periodic(FaultKind kind, TimePoint start, TimePoint end, Duration period,
                          Duration duration);

  // Events sorted by start time (stable for equal times, in Add order).
  const std::vector<FaultEvent>& events() const { return events_; }
  bool empty() const { return events_.empty(); }

  // Total events of one kind — what a collector checks counters against.
  uint64_t CountOf(FaultKind kind) const;

 private:
  std::vector<FaultEvent> events_;
};

}  // namespace e2e

#endif  // SRC_TESTBED_FAULTS_FAULT_SCHEDULE_H_
