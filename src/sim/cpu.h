// A CPU core modeled as a FIFO work server.
//
// This mirrors the paper's experimental setup, where the application thread
// and the network-stack softirq context are each pinned to a dedicated core:
// every host in the simulation owns one `CpuCore` per execution context.
//
// A work item has two parts: a `StartFn` that runs when the core picks the
// item up and *returns the processing cost* (so the cost may depend on state
// observed at start time, e.g. how many requests are waiting), and an
// optional `DoneFn` that runs when that cost has elapsed (this is where
// externally visible effects — transmissions, responses — belong).
//
// Both are inline callables (src/sim/callback.h) queued in a Ring, and the
// core holds the executing item's DoneFn itself, so its completion event
// captures only {this, cost}: submitting and running work allocates nothing
// once the ring has grown to the core's working depth. A `done` may Submit
// to the same core; an idle core starts that item at once, inside Submit.

#ifndef SRC_SIM_CPU_H_
#define SRC_SIM_CPU_H_

#include <cstdint>
#include <string>

#include "src/sim/callback.h"
#include "src/sim/ring.h"
#include "src/sim/simulator.h"
#include "src/sim/time.h"

namespace e2e {

class CpuCore {
 public:
  using StartFn = BasicInlineCallback<Duration>;
  using DoneFn = InlineCallback;

  CpuCore(Simulator* sim, std::string name);
  CpuCore(const CpuCore&) = delete;
  CpuCore& operator=(const CpuCore&) = delete;

  // Enqueues a work item. Runs immediately (at the current instant) when the
  // core is idle; otherwise after all previously queued work.
  void Submit(StartFn start, DoneFn done = {});

  // Convenience for items whose cost is known at submission time.
  void SubmitFixed(Duration cost, DoneFn done = {});

  // Freezes the core for `d` (a VM preemption or GC pause): the item
  // currently executing finishes on schedule, but nothing new starts until
  // the stall ends. Work keeps queueing meanwhile — exactly the backlog a
  // real pause leaves behind. Overlapping stalls extend the freeze.
  void Stall(Duration d);
  bool stalled() const { return sim_->Now() < stalled_until_; }
  uint64_t stalls() const { return stalls_; }

  bool busy() const { return busy_; }
  size_t queue_depth() const { return queue_.size(); }
  const std::string& name() const { return name_; }

  // Cumulative busy time, including the elapsed part of the item currently
  // executing. Utilization over a window is a delta of this divided by the
  // window length.
  Duration busy_time() const;

  // Total work items completed.
  uint64_t items_done() const { return items_done_; }

 private:
  struct Work {
    StartFn start;
    DoneFn done;
  };

  void BeginNext();
  void MaybeBegin();
  // Completion of the executing item: accounts its cost, runs its done.
  void Finish(Duration cost);

  Simulator* sim_;
  std::string name_;
  Ring<Work> queue_;
  DoneFn running_done_;  // The executing item's done.
  bool busy_ = false;
  TimePoint current_started_;
  Duration busy_accum_;
  uint64_t items_done_ = 0;
  TimePoint stalled_until_;
  uint64_t stalls_ = 0;
};

}  // namespace e2e

#endif  // SRC_SIM_CPU_H_
