#include "src/sim/simulator.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <utility>

#include "src/obs/trace.h"

namespace e2e {

namespace {
// Spin iterations before falling back to a condition variable at the two
// barrier edges. Epochs are short (microseconds of real time), so a brief
// yield loop usually catches the transition without a futex round trip.
constexpr int kBarrierSpins = 1024;
}  // namespace

Simulator::Domain::Domain(uint32_t id_in) : id(id_in) {}
Simulator::Domain::~Domain() = default;

Simulator::Simulator() {
  domains_.emplace_back(0);
  root_ = &domains_[0];
}

Simulator::~Simulator() {
  assert(worker_threads_.empty());  // Workers live only inside a run.
}

uint32_t Simulator::AddDomain() {
  assert(worker_threads_.empty());
  const uint32_t id = static_cast<uint32_t>(domains_.size());
  domains_.emplace_back(id);
  root_ = &domains_[0];  // Deque: stable, but keep the invariant obvious.
  return id;
}

void Simulator::SetWorkers(int workers) { workers_ = std::max(1, workers); }

EventId Simulator::Schedule(Duration delay, Callback cb) {
  assert(delay >= Duration::Zero());
  Domain* d = CurrentDomain();
  EventId id = d->queue.Push(d->now + delay, std::move(cb));
  id.domain = d->id;
  return id;
}

EventId Simulator::ScheduleAt(TimePoint when, Callback cb) {
  Domain* d = CurrentDomain();
  assert(when >= d->now);
  EventId id = d->queue.Push(when, std::move(cb));
  id.domain = d->id;
  return id;
}

EventId Simulator::ScheduleCrossAt(uint32_t dst_domain, TimePoint when, Callback cb) {
  assert(dst_domain < domains_.size());
  sim_internal::ExecContext& ctx = sim_internal::g_exec;
  Domain* src = CurrentDomain();
  if (dst_domain == src->id) {
    assert(when >= src->now);
    EventId id = src->queue.Push(when, std::move(cb));
    id.domain = src->id;
    return id;
  }
  if (ctx.sim == this && ctx.parallel) {
    // Worker context: the destination runs concurrently. Buffer the message
    // for the barrier merge. The lookahead contract makes that safe: the
    // delivery cannot land inside the current epoch.
    assert(when >= src->now + lookahead_);
    src->outbox.push_back(CrossMsg{when, src->next_cross_seq++, src->id, dst_domain,
                                   std::move(cb)});
    return kInvalidEventId;
  }
  // Setup or global-event context: every domain is paused; push directly.
  Domain& dst = domains_[dst_domain];
  EventId id = dst.queue.Push(when, std::move(cb));
  id.domain = dst_domain;
  return id;
}

bool Simulator::Cancel(EventId id) {
  if (id == kInvalidEventId) {
    return false;
  }
  assert(id.domain < domains_.size());
  // A worker may only cancel events owned by the domain it is executing —
  // anything else would race with the owning worker.
  assert(!(sim_internal::g_exec.sim == this && sim_internal::g_exec.parallel) ||
         sim_internal::g_exec.domain_id == id.domain);
  return domains_[id.domain].queue.Cancel(id);
}

// ---------------------------------------------------------------------------
// Single-domain fast paths: bit-for-bit the pre-sharding engine.
// ---------------------------------------------------------------------------

bool Simulator::Step() {
  assert(domains_.size() == 1);
  if (root_->queue.Empty()) {
    return false;
  }
  EventQueue::Entry entry = root_->queue.Pop();
  assert(entry.when >= root_->now);
  root_->now = entry.when;
  ++root_->events_fired;
  entry.cb();
  return true;
}

uint64_t Simulator::RunLegacy() {
  uint64_t fired = 0;
  while (Step()) {
    ++fired;
  }
  return fired;
}

uint64_t Simulator::RunUntilLegacy(TimePoint deadline) {
  uint64_t fired = 0;
  Domain& d = *root_;
  while (!d.queue.Empty() && d.queue.NextTime() <= deadline) {
    EventQueue::Entry entry = d.queue.Pop();
    d.now = entry.when;
    ++d.events_fired;
    entry.cb();
    ++fired;
  }
  if (d.now < deadline) {
    d.now = deadline;
  }
  return fired;
}

uint64_t Simulator::Run() {
  if (domains_.size() == 1) {
    return RunLegacy();
  }
  return RunSharded(TimePoint::Max(), /*clamp=*/false);
}

uint64_t Simulator::RunUntil(TimePoint deadline) {
  if (domains_.size() == 1) {
    return RunUntilLegacy(deadline);
  }
  return RunSharded(deadline, /*clamp=*/true);
}

uint64_t Simulator::events_fired() const {
  uint64_t total = 0;
  for (const Domain& d : domains_) {
    total += d.events_fired;
  }
  return total;
}

size_t Simulator::pending_events() const {
  size_t total = 0;
  for (const Domain& d : domains_) {
    total += d.queue.size();
  }
  return total;
}

Simulator::QueueOccupancy Simulator::queue_occupancy() const {
  QueueOccupancy occ;
  occ.domains = domains_.size();
  uint64_t sum = 0;
  for (const Domain& d : domains_) {
    const uint64_t peak = d.queue.max_live();
    occ.peak_max = std::max(occ.peak_max, peak);
    sum += peak;
  }
  occ.peak_mean = occ.domains == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(occ.domains);
  return occ;
}

// ---------------------------------------------------------------------------
// Parallel engine.
// ---------------------------------------------------------------------------

uint64_t Simulator::RunSharded(TimePoint deadline, bool clamp) {
  assert(lookahead_ > Duration::Zero());
  assert(sim_internal::g_exec.sim != this);  // No nested runs.
  const uint64_t fired_before = events_fired();
  SetUpDomainTraces();
  StartWorkers();
  const uint32_t n = num_domains();
  worker_lanes_.resize(static_cast<size_t>(active_workers_));
  // t_dom — the earliest pending shard event — is maintained incrementally:
  // after each epoch it is the min of the per-worker minima plus the
  // earliest barrier delivery. The lane heaps are rebuilt (a full scan) only
  // on entry and after global events, which may push into any shard queue
  // directly; every other epoch touches only domains that actually have
  // work.
  bool rescan_domains = true;
  TimePoint t_dom = TimePoint::Max();
  for (;;) {
    if (rescan_domains) {
      rescan_domains = false;
      t_dom = RebuildLanes();
    }
    const TimePoint t_g = root_->queue.Empty() ? TimePoint::Max() : root_->queue.NextTime();
    if (t_g == TimePoint::Max() && t_dom == TimePoint::Max()) {
      break;  // Drained.
    }
    if (t_g > deadline && t_dom > deadline) {
      break;  // Nothing left within the deadline.
    }
    if (t_g <= t_dom) {
      // Global events: run on this thread with every domain paused and every
      // clock advanced to the event time (no domain has pending work before
      // t_g, so this is a consistent snapshot). Global events at one instant
      // all run before any domain resumes; new global events they schedule
      // for the same instant run too (FIFO).
      for (uint32_t d = 0; d < n; ++d) {
        domains_[d].now = t_g;
      }
      while (!root_->queue.Empty() && root_->queue.NextTime() == t_g) {
        EventQueue::Entry entry = root_->queue.Pop();
        ++root_->events_fired;
        entry.cb();
      }
      rescan_domains = true;  // Global events may touch any shard queue.
      continue;
    }
    // Parallel epoch: each shard runs its events in [t_dom, end_excl). The
    // bound is safe because a cross-shard message sent at time tau arrives
    // at tau + lookahead or later, and tau >= t_dom for every sender.
    TimePoint end = TimePoint::Max() - lookahead_ >= t_dom ? t_dom + lookahead_ : TimePoint::Max();
    if (t_g < end) {
      end = t_g;
    }
    if (deadline != TimePoint::Max() && deadline + Duration::Nanos(1) < end) {
      end = deadline + Duration::Nanos(1);
    }
    epoch_end_excl_ = end;
    if (active_workers_ > 1) {
      outstanding_.store(active_workers_ - 1, std::memory_order_relaxed);
      {
        std::lock_guard<std::mutex> lock(start_mu_);
        epoch_seq_.fetch_add(1, std::memory_order_release);
      }
      start_cv_.notify_all();
      RunEpochShare(0);
      int spins = 0;
      while (outstanding_.load(std::memory_order_acquire) != 0) {
        if (++spins < kBarrierSpins) {
          std::this_thread::yield();
          continue;
        }
        std::unique_lock<std::mutex> lock(done_mu_);
        done_cv_.wait_for(lock, std::chrono::microseconds(100), [this] {
          return outstanding_.load(std::memory_order_acquire) == 0;
        });
      }
    } else {
      RunEpochShare(0);
    }
    t_dom = TimePoint::Max();
    for (int w = 0; w < active_workers_; ++w) {
      t_dom = std::min(t_dom, worker_lanes_[static_cast<size_t>(w)].min_next);
    }
    t_dom = std::min(t_dom, FlushMailboxes());
  }
  StopWorkers();
  if (clamp) {
    for (uint32_t d = 0; d < n; ++d) {
      if (domains_[d].now < deadline) {
        domains_[d].now = deadline;
      }
    }
  }
  MergeDomainTraces();
  return events_fired() - fired_before;
}

void Simulator::LanePush(WorkerLane& lane, LaneEntry entry) {
  lane.heap.push_back(entry);
  std::push_heap(lane.heap.begin(), lane.heap.end(),
                 [](const LaneEntry& a, const LaneEntry& b) { return a.when > b.when; });
}

TimePoint Simulator::RebuildLanes() {
  for (WorkerLane& lane : worker_lanes_) {
    lane.heap.clear();
  }
  TimePoint t_dom = TimePoint::Max();
  const uint32_t n = num_domains();
  for (uint32_t d = 1; d < n; ++d) {
    Domain& dom = domains_[d];
    if (!dom.queue.Empty()) {
      const TimePoint next = dom.queue.NextTime();
      t_dom = std::min(t_dom, next);
      LanePush(worker_lanes_[static_cast<size_t>(LaneFor(d))], LaneEntry{next, d});
    }
  }
  return t_dom;
}

void Simulator::RunEpochShare(int worker_id) {
  const TimePoint end = epoch_end_excl_;
  sim_internal::ExecContext& ctx = sim_internal::g_exec;
  const sim_internal::ExecContext saved = ctx;
  WorkerLane& lane = worker_lanes_[static_cast<size_t>(worker_id)];
  auto later = [](const LaneEntry& a, const LaneEntry& b) { return a.when > b.when; };
  // Drain the lane heap: only domains with an entry before the epoch end are
  // touched. A popped entry is acted on only if it still matches the
  // domain's NextTime — a mismatch means the domain already ran (or was
  // re-armed) under a fresher entry that is also in the heap.
  while (!lane.heap.empty() && lane.heap.front().when < end) {
    const LaneEntry top = lane.heap.front();
    std::pop_heap(lane.heap.begin(), lane.heap.end(), later);
    lane.heap.pop_back();
    Domain& dom = domains_[top.domain];
    if (dom.queue.Empty() || dom.queue.NextTime() != top.when) {
      continue;  // Stale entry.
    }
    ctx = sim_internal::ExecContext{this, &dom, top.domain, /*parallel=*/true};
    {
      ScopedTrace bind_trace(trace_sharded_ ? dom.trace.get() : nullptr);
      while (!dom.queue.Empty()) {
        if (dom.queue.NextTime() >= end) {
          break;
        }
        EventQueue::Entry entry = dom.queue.Pop();
        assert(entry.when >= dom.now);
        dom.now = entry.when;
        ++dom.events_fired;
        entry.cb();
      }
    }
    ctx = saved;
    if (!dom.outbox.empty()) {
      // Drain into the worker lane now, while this thread still owns the
      // domain: the coordinator then merges `active_workers_` lanes, not
      // every domain's outbox.
      lane.outbox.insert(lane.outbox.end(), std::make_move_iterator(dom.outbox.begin()),
                         std::make_move_iterator(dom.outbox.end()));
      dom.outbox.clear();
    }
    if (!dom.queue.Empty()) {
      LanePush(lane, LaneEntry{dom.queue.NextTime(), top.domain});
    }
  }
  // The validated heap top is the worker's contribution to the next epoch
  // bound; stale leftovers surfacing here are discarded for good.
  lane.min_next = TimePoint::Max();
  while (!lane.heap.empty()) {
    const LaneEntry top = lane.heap.front();
    Domain& dom = domains_[top.domain];
    if (!dom.queue.Empty() && dom.queue.NextTime() == top.when) {
      lane.min_next = top.when;
      break;
    }
    std::pop_heap(lane.heap.begin(), lane.heap.end(), later);
    lane.heap.pop_back();
  }
}

TimePoint Simulator::FlushMailboxes() {
  flush_buf_.clear();
  for (WorkerLane& lane : worker_lanes_) {
    for (CrossMsg& m : lane.outbox) {
      flush_buf_.push_back(std::move(m));
    }
    lane.outbox.clear();
  }
  TimePoint flushed_min = TimePoint::Max();
  if (flush_buf_.empty()) {
    return flushed_min;
  }
  // The determinism tie-break: deliveries are pushed in (when, src domain,
  // src seq) order, so destination-queue FIFO seqs — and therefore the whole
  // downstream execution — are independent of the worker count.
  std::sort(flush_buf_.begin(), flush_buf_.end(), [](const CrossMsg& a, const CrossMsg& b) {
    if (a.when != b.when) {
      return a.when < b.when;
    }
    if (a.src_domain != b.src_domain) {
      return a.src_domain < b.src_domain;
    }
    return a.src_seq < b.src_seq;
  });
  ++flush_round_;
  for (CrossMsg& m : flush_buf_) {
    Domain& dst = domains_[m.dst_domain];
    dst.queue.Push(m.when, std::move(m.cb));
    if (m.dst_domain != 0) {
      flushed_min = std::min(flushed_min, m.when);
      // Re-arm the destination's lane entry so an idle domain wakes up. The
      // buffer is sorted by `when`, so the first delivery per destination is
      // its minimum; flush_stamp dedupes the rest of this round. The pushed
      // time may exceed the queue's true NextTime (an older event is still
      // pending) — then the older valid entry wins and this one goes stale.
      if (dst.flush_stamp != flush_round_) {
        dst.flush_stamp = flush_round_;
        LanePush(worker_lanes_[static_cast<size_t>(LaneFor(m.dst_domain))],
                 LaneEntry{m.when, m.dst_domain});
      }
    }
  }
  flush_buf_.clear();
  return flushed_min;
}

// ---------------------------------------------------------------------------
// Worker pool.
// ---------------------------------------------------------------------------

void Simulator::StartWorkers() {
  active_workers_ = std::max(1, std::min(workers_, static_cast<int>(num_domains()) - 1));
  if (active_workers_ <= 1) {
    return;
  }
  stop_workers_.store(false, std::memory_order_relaxed);
  // Capture the epoch counter before any epoch of this run starts, so a
  // worker that gets scheduled late still sees every epoch as "new".
  const uint64_t base_epoch = epoch_seq_.load(std::memory_order_relaxed);
  worker_threads_.reserve(static_cast<size_t>(active_workers_) - 1);
  for (int w = 1; w < active_workers_; ++w) {
    worker_threads_.emplace_back([this, w, base_epoch] { WorkerMain(w, base_epoch); });
  }
}

void Simulator::StopWorkers() {
  if (worker_threads_.empty()) {
    return;
  }
  {
    std::lock_guard<std::mutex> lock(start_mu_);
    stop_workers_.store(true, std::memory_order_release);
  }
  start_cv_.notify_all();
  for (std::thread& t : worker_threads_) {
    t.join();
  }
  worker_threads_.clear();
  stop_workers_.store(false, std::memory_order_relaxed);
}

void Simulator::WorkerMain(int worker_id, uint64_t seen) {
  for (;;) {
    uint64_t cur = seen;
    int spins = 0;
    for (;;) {
      cur = epoch_seq_.load(std::memory_order_acquire);
      if (cur != seen || stop_workers_.load(std::memory_order_acquire)) {
        break;
      }
      if (++spins < kBarrierSpins) {
        std::this_thread::yield();
        continue;
      }
      std::unique_lock<std::mutex> lock(start_mu_);
      start_cv_.wait(lock, [&] {
        return epoch_seq_.load(std::memory_order_acquire) != seen ||
               stop_workers_.load(std::memory_order_acquire);
      });
    }
    if (cur == seen) {
      return;  // Stop requested with no new epoch.
    }
    seen = cur;
    RunEpochShare(worker_id);
    if (outstanding_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> lock(done_mu_);
      done_cv_.notify_one();
    }
  }
}

// ---------------------------------------------------------------------------
// Sharded tracing.
// ---------------------------------------------------------------------------

void Simulator::SetUpDomainTraces() {
  run_trace_ = CurrentTrace();
  trace_sharded_ = run_trace_ != nullptr && num_domains() > 1;
  if (!trace_sharded_) {
    return;
  }
  // Memory for the per-shard rings is carved out of the caller's budget:
  // capacity / shard count (floored), so total trace memory stays within a
  // small factor of the unsharded run.
  const size_t per_domain =
      std::max<size_t>(run_trace_->capacity() / (num_domains() - 1), size_t{1} << 10);
  for (uint32_t d = 1; d < num_domains(); ++d) {
    Domain& dom = domains_[d];
    if (!dom.trace) {
      dom.trace = std::make_unique<TraceRecorder>(per_domain, run_trace_->mask());
    }
  }
}

void Simulator::MergeDomainTraces() {
  if (!trace_sharded_) {
    run_trace_ = nullptr;
    return;
  }
  // Gather (events, source) streams: source 0 is the caller's recorder
  // (setup-time and global events), source d>0 is shard d. The merged order
  // — (time, source, per-source ordinal) — depends only on the domain
  // layout, never on the worker count.
  struct MergeRef {
    TimePoint time;
    uint32_t source;
    uint64_t ordinal;
    const TraceEvent* event;
  };
  std::vector<std::vector<TraceEvent>> streams;
  streams.reserve(num_domains());
  streams.push_back(run_trace_->Events());
  for (uint32_t d = 1; d < num_domains(); ++d) {
    streams.push_back(domains_[d].trace->Events());
  }
  std::vector<MergeRef> refs;
  size_t total = 0;
  for (const auto& s : streams) {
    total += s.size();
  }
  refs.reserve(total);
  for (uint32_t s = 0; s < streams.size(); ++s) {
    for (uint64_t i = 0; i < streams[s].size(); ++i) {
      refs.push_back(MergeRef{streams[s][i].time, s, i, &streams[s][i]});
    }
  }
  std::sort(refs.begin(), refs.end(), [](const MergeRef& a, const MergeRef& b) {
    if (a.time != b.time) {
      return a.time < b.time;
    }
    if (a.source != b.source) {
      return a.source < b.source;
    }
    return a.ordinal < b.ordinal;
  });
  run_trace_->Clear();
  for (const MergeRef& r : refs) {
    TraceEvent e = *r.event;
    if (r.source > 0 && e.track != 0) {
      // Track ids are recorder-local; remap by name into the caller's table.
      e.track = run_trace_->Track(domains_[r.source].trace->track_names()[e.track - 1]);
    }
    run_trace_->Record(e);
  }
  for (uint32_t d = 1; d < num_domains(); ++d) {
    domains_[d].trace->Clear();
  }
  trace_sharded_ = false;
  run_trace_ = nullptr;
}

// ---------------------------------------------------------------------------
// DomainScope.
// ---------------------------------------------------------------------------

DomainScope::DomainScope(Simulator* sim, uint32_t domain) : saved_(sim_internal::g_exec) {
  assert(!(saved_.sim == sim && saved_.parallel));  // Not from a worker.
  sim_internal::g_exec =
      sim_internal::ExecContext{sim, &sim->DomainAt(domain), domain, /*parallel=*/false};
}

DomainScope::~DomainScope() { sim_internal::g_exec = saved_; }

}  // namespace e2e
