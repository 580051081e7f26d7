#include "src/sim/cpu.h"

#include <cassert>
#include <utility>

namespace e2e {

CpuCore::CpuCore(Simulator* sim, std::string name) : sim_(sim), name_(std::move(name)) {
  assert(sim_ != nullptr);
}

void CpuCore::Submit(StartFn start, DoneFn done) {
  assert(start);
  queue_.push_back(Work{std::move(start), std::move(done)});
  if (!busy_ && !stalled()) {
    BeginNext();
  }
}

void CpuCore::Stall(Duration d) {
  const TimePoint until = sim_->Now() + d;
  if (until > stalled_until_) {
    stalled_until_ = until;
  }
  ++stalls_;
  // Wake when the freeze lifts; stale wakes (from extended stalls) see
  // stalled() still true and do nothing.
  sim_->ScheduleAt(stalled_until_, [this] { MaybeBegin(); });
}

void CpuCore::MaybeBegin() {
  if (!busy_ && !stalled() && !queue_.empty()) {
    BeginNext();
  }
}

void CpuCore::SubmitFixed(Duration cost, DoneFn done) {
  assert(cost >= Duration::Zero());
  Submit([cost] { return cost; }, std::move(done));
}

Duration CpuCore::busy_time() const {
  Duration total = busy_accum_;
  if (busy_) {
    total += sim_->Now() - current_started_;
  }
  return total;
}

void CpuCore::BeginNext() {
  assert(!busy_ && !queue_.empty());
  busy_ = true;
  Work work = std::move(queue_.front());
  queue_.pop_front();
  current_started_ = sim_->Now();
  const Duration cost = work.start();
  assert(cost >= Duration::Zero());
  running_done_ = std::move(work.done);
  sim_->Schedule(cost, [this, cost] { Finish(cost); });
}

void CpuCore::Finish(Duration cost) {
  busy_accum_ += cost;
  busy_ = false;
  ++items_done_;
  // Move the done out first: it may Submit, which starts the next item
  // right away and refills running_done_.
  DoneFn done = std::move(running_done_);
  if (done) {
    done();
  }
  MaybeBegin();
}

}  // namespace e2e
