// The discrete-event simulation loop: a virtual clock plus an event queue.
//
// All simulated components share one `Simulator`. Scheduling a callback in
// the past is an error; scheduling at the current instant is allowed and the
// callback fires after already-pending events for that instant (FIFO order).
//
// ---- Domains: conservative-lookahead parallel DES (DESIGN.md §16) ----
//
// A simulator is partitioned into *domains*. Domain 0 — the global domain —
// always exists and is the whole simulator in the classic single-threaded
// mode; every Schedule()/Run() call behaves exactly as it always has when no
// further domains are added. Drivers that want within-cell parallelism call
// AddDomain() once per shard (one shard per host or switch), assign each
// component to its shard, and route cross-shard event handoffs (link
// arrivals) through ScheduleCrossAt().
//
// Execution then proceeds in barrier epochs: with L = SetLookahead() the
// minimum cross-domain link latency, every domain may safely run ahead to
// (earliest pending event time + L) without seeing another domain's output,
// because any cross-domain message sent at time t arrives at t + L or later.
// Worker threads execute disjoint domain sets during an epoch; cross-domain
// messages buffer in per-source outboxes and are merged at the barrier in
// (time, source domain, source sequence) order — a total order independent
// of the worker count, which makes an N-worker run bit-identical to the
// 1-worker run. Domain-0 events are *global* events (collector ticks,
// control loops): they run on the coordinator thread with all domains paused
// and every domain clock advanced to the global event's time, so they may
// read and mutate any domain's state (wrap mutations that schedule in a
// DomainScope so timers land in the touched component's domain).
//
// Determinism contract: for a fixed domain layout, results are bit-identical
// for every worker count (including 1). The *layout* is part of the cell
// definition — a domain-partitioned run orders same-instant events by
// (domain, intra-domain seq) rather than global insertion seq, so it is a
// different (equally valid) serialization than the single-domain run.

#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/sim/event_queue.h"
#include "src/sim/time.h"

namespace e2e {

class Simulator;
class TraceRecorder;

namespace sim_internal {

// Per-thread execution context: which simulator/domain the running event
// belongs to. Bound by worker threads for the duration of a domain
// activation and by DomainScope for setup-time pokes; empty (sim == nullptr)
// on threads that never entered a domain, where Schedule()/Now() fall back
// to the simulator's global domain.
struct ExecContext {
  const Simulator* sim = nullptr;
  void* domain = nullptr;  // Simulator::Domain*, opaque at this layer.
  uint32_t domain_id = 0;
  bool parallel = false;  // True only while a worker runs an epoch.
};
// Defined here, not in a .cc: every translation unit then sees the constant
// initializer and reads the variable directly, without the weak TLS-init
// call that GCC 12's UBSan null check flags.
inline thread_local ExecContext g_exec;

}  // namespace sim_internal

class Simulator {
 public:
  using Callback = EventQueue::Callback;

  Simulator();
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // ---- Domain setup (before the first Run*/Step call) ----

  // Creates a new domain and returns its id (1, 2, ...). Domain 0 (global)
  // always exists. Must not be called while a run is in progress.
  uint32_t AddDomain();

  // Total number of domains including the global domain 0.
  uint32_t num_domains() const { return static_cast<uint32_t>(domains_.size()); }

  // Worker threads used for parallel epochs (default 1; excess workers
  // beyond the domain count are not spawned). 1 keeps execution on the
  // calling thread but still runs the epoch/barrier machinery, so results
  // are identical to any higher worker count.
  void SetWorkers(int workers);
  int workers() const { return workers_; }

  // The conservative lookahead window: a lower bound on the latency of any
  // cross-domain handoff. Required (> 0) when domains exist.
  void SetLookahead(Duration lookahead) { lookahead_ = lookahead; }
  Duration lookahead() const { return lookahead_; }

  // ---- Scheduling ----

  // Current virtual time: the executing domain's clock on worker threads /
  // inside a DomainScope, the global clock otherwise.
  TimePoint Now() const {
    const sim_internal::ExecContext& ctx = sim_internal::g_exec;
    if (ctx.sim == this) {
      return static_cast<const Domain*>(ctx.domain)->now;
    }
    return root_->now;
  }

  // Schedules `cb` after `delay` (>= 0) in the current domain (the executing
  // event's domain; the global domain from outside any domain context).
  // Returns an id usable with Cancel().
  EventId Schedule(Duration delay, Callback cb);

  // Schedules `cb` at absolute time `when` (>= Now()) in the current domain.
  EventId ScheduleAt(TimePoint when, Callback cb);

  // Schedules `cb` at `when` in domain `dst_domain`. The only legal way to
  // make another domain act: from inside a parallel epoch the message is
  // buffered and delivered at the next barrier (requiring when >= sender
  // time + lookahead); from setup / global events it is a direct push. The
  // returned id is valid only for same-domain deliveries — cross-domain
  // deliveries return kInvalidEventId and cannot be canceled.
  EventId ScheduleCrossAt(uint32_t dst_domain, TimePoint when, Callback cb);

  // Cancels a pending event; returns false if it already fired/was canceled.
  // From worker context, only events of the executing domain may be
  // canceled.
  bool Cancel(EventId id);

  // ---- Running ----

  // Runs until every queue drains. Returns the number of events fired.
  uint64_t Run();

  // Runs events with time <= `deadline`, then sets the clock(s) to
  // `deadline` (even if the queues drained earlier). Returns the number of
  // events fired.
  uint64_t RunUntil(TimePoint deadline);

  // Convenience: RunUntil(Now() + d).
  uint64_t RunFor(Duration d) { return RunUntil(Now() + d); }

  // Executes exactly one event if any is pending. Single-domain only.
  bool Step();

  // Total events executed over the simulator's lifetime (all domains).
  uint64_t events_fired() const;

  // Number of currently pending events (all domains).
  size_t pending_events() const;

  // The id of the domain the calling context executes in (0 outside any
  // domain context).
  uint32_t current_domain() const {
    const sim_internal::ExecContext& ctx = sim_internal::g_exec;
    return ctx.sim == this ? ctx.domain_id : 0;
  }

  // Aggregate per-domain event-queue occupancy (lifetime high-water of live
  // events per domain): the max and mean across all domains. Reported by
  // engine_perf's fleet cell so queue pressure per shard is visible in
  // BENCH_engine.json.
  struct QueueOccupancy {
    uint64_t peak_max = 0;   // Largest per-domain high-water.
    double peak_mean = 0.0;  // Mean per-domain high-water.
    uint64_t domains = 0;    // Domains aggregated (all, including global).
  };
  QueueOccupancy queue_occupancy() const;

 private:
  friend class DomainScope;

  // A buffered cross-domain delivery, merged at the epoch barrier in
  // (when, src_domain, src_seq) order — the determinism tie-break key.
  struct CrossMsg {
    TimePoint when;
    uint64_t src_seq;
    uint32_t src_domain;
    uint32_t dst_domain;
    Callback cb;
  };

  // One shard: its own clock, event queue, outbox, and trace recorder.
  // Padded to a cache line so workers on distinct domains never false-share.
  struct alignas(64) Domain {
    explicit Domain(uint32_t id_in);  // Out of line: TraceRecorder is incomplete here.
    ~Domain();
    uint32_t id;
    TimePoint now;
    EventQueue queue;
    uint64_t events_fired = 0;
    uint64_t next_cross_seq = 0;
    // Last FlushMailboxes round that re-armed this domain's lane entry;
    // dedupes lane pushes when one barrier delivers many messages here.
    uint64_t flush_stamp = 0;
    std::vector<CrossMsg> outbox;
    std::unique_ptr<TraceRecorder> trace;
  };

  Domain& DomainAt(uint32_t id) { return domains_[id]; }
  Domain* CurrentDomain() {
    sim_internal::ExecContext& ctx = sim_internal::g_exec;
    return ctx.sim == this ? static_cast<Domain*>(ctx.domain) : root_;
  }

  // Single-domain fast paths (bit-for-bit the pre-domain engine).
  uint64_t RunLegacy();
  uint64_t RunUntilLegacy(TimePoint deadline);

  // Parallel engine: runs global events and barrier epochs up to `deadline`
  // (inclusive). When `clamp` is set, advances every clock to `deadline`
  // after the last event.
  uint64_t RunSharded(TimePoint deadline, bool clamp);

  // Runs worker `worker_id`'s share of the current epoch by draining the
  // worker's lane heap: every owned domain with a pending event before
  // `epoch_end_excl_` executes (with its trace recorder bound), and a fresh
  // lane entry is pushed for each domain that still has work. Records the
  // minimum next-event time across the worker's domains — and the
  // cross-domain messages they emitted — in worker_lanes_[worker_id]. An
  // epoch therefore costs O(active domains · log heap), never O(all
  // domains): at 100k+ mostly idle domains that is the difference between a
  // shard curve that scales and one that drowns in empty-queue scans.
  void RunEpochShare(int worker_id);

  // Merges every worker lane's outbox into the destination queues in
  // tie-break order. Returns the earliest delivery time pushed into a shard
  // (non-global) queue, TimePoint::Max() if none — the flush contribution
  // to the next epoch's t_dom.
  TimePoint FlushMailboxes();

  // Lazily creates per-domain trace recorders mirroring the caller's
  // recorder; merges them back (sorted, tracks remapped) at run end.
  void SetUpDomainTraces();
  void MergeDomainTraces();

  std::deque<Domain> domains_;  // Stable addresses; [0] is the global domain.
  Domain* root_;                // == &domains_[0].
  Duration lookahead_ = Duration::Zero();
  int workers_ = 1;

  // Epoch coordination. The coordinator publishes epoch_end_excl_ and bumps
  // epoch_seq_ (under start_mu_, release); workers acquire it, run their
  // share, and decrement outstanding_ (release) — the coordinator acquires
  // outstanding_ == 0 before touching outboxes. Spin-then-wait on both
  // sides keeps epoch turnaround cheap without burning a core per worker.
  std::vector<std::thread> worker_threads_;
  std::atomic<uint64_t> epoch_seq_{0};
  std::atomic<int> outstanding_{0};
  std::atomic<bool> stop_workers_{false};
  TimePoint epoch_end_excl_;
  std::mutex start_mu_;
  std::condition_variable start_cv_;
  std::mutex done_mu_;
  std::condition_variable done_cv_;
  int active_workers_ = 1;  // min(workers_, shard domains) for this run.
  // Per-worker epoch state (padded so lanes never false-share): the minimum
  // next-event time over the worker's domains, the cross-domain messages
  // those domains emitted, and the worker's lane heap — a lazy min-heap of
  // (next event time, domain) entries for the domains this worker owns. An
  // entry is valid iff its time equals the domain's current NextTime();
  // anything else is a leftover from an earlier push and is discarded when
  // it surfaces. New entries are pushed by the owning worker after a domain
  // runs, and by the coordinator (between epochs, so never concurrently)
  // when a barrier flush delivers into a domain or a global event forces a
  // full rebuild. The invariant — every non-empty domain has an entry at its
  // exact NextTime — holds because every path that can lower a domain's
  // NextTime ends in one of those pushes.
  struct LaneEntry {
    TimePoint when;
    uint32_t domain;
  };
  struct alignas(64) WorkerLane {
    TimePoint min_next;
    std::vector<CrossMsg> outbox;
    std::vector<LaneEntry> heap;  // Binary min-heap by `when`, lazy entries.
  };
  std::vector<WorkerLane> worker_lanes_;
  // Which worker owns domain `d` (> 0): the round-robin striping shared by
  // the lane heaps and the epoch workers.
  int LaneFor(uint32_t domain) const {
    return static_cast<int>((domain - 1) % static_cast<uint32_t>(active_workers_));
  }
  static void LanePush(WorkerLane& lane, LaneEntry entry);
  // Rebuilds every lane heap from scratch and returns the earliest pending
  // shard event time. Used on run entry and after global events, which may
  // touch any queue directly.
  TimePoint RebuildLanes();
  uint64_t flush_round_ = 0;  // Monotone id for Domain::flush_stamp dedupe.
  bool trace_sharded_ = false;
  TraceRecorder* run_trace_ = nullptr;  // Caller's recorder during a run.
  std::vector<CrossMsg> flush_buf_;

  void StartWorkers();
  void StopWorkers();
  void WorkerMain(int worker_id, uint64_t seen_epoch);
};

// Binds the calling thread to `domain` for the scope: Now() reads that
// domain's clock and Schedule()/timer arms land in its queue. For setup-time
// construction of components that live in a shard, and for global events
// that poke a shard's component (e.g. a control loop toggling an endpoint
// option). Must not be used inside a parallel epoch.
class DomainScope {
 public:
  DomainScope(Simulator* sim, uint32_t domain);
  ~DomainScope();
  DomainScope(const DomainScope&) = delete;
  DomainScope& operator=(const DomainScope&) = delete;

 private:
  sim_internal::ExecContext saved_;
};

}  // namespace e2e

#endif  // SRC_SIM_SIMULATOR_H_
