// Tests for the domain-partitioned (sharded) simulator engine: worker-count
// bit-identity, cross-domain delivery order, global-event semantics,
// DomainScope, and clock clamping. DESIGN.md §16.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/sim/simulator.h"
#include "src/sim/time.h"

namespace e2e {
namespace {

std::string Entry(const std::string& tag, TimePoint at) {
  return tag + "@" + std::to_string(at.nanos());
}

// `prefix` followed by `n`, appended piece by piece: the equivalent
// `"t" + std::to_string(n)` trips a false-positive -Wrestrict in GCC 12.
std::string Tag(const char* prefix, int n) {
  std::string tag = prefix;
  tag += std::to_string(n);
  return tag;
}

// A fixed 4-shard workload: each shard runs a self-rescheduling ticker with a
// shard-specific period, and every third tick sends a cross-shard message to
// the next shard at +lookahead. Per-domain logs have a single writer (the
// owning domain), so appends are race-free under any worker count.
struct ShardWorkload {
  static constexpr int kShards = 4;
  static constexpr int kTicks = 30;

  Simulator sim;
  Duration lookahead = Duration::Micros(5);
  std::vector<uint32_t> ids;
  std::vector<std::vector<std::string>> logs;  // [0] global, [i+1] shard i.

  explicit ShardWorkload(int workers) : logs(kShards + 1) {
    sim.SetLookahead(lookahead);
    for (int i = 0; i < kShards; ++i) {
      ids.push_back(sim.AddDomain());
    }
    sim.SetWorkers(workers);
    for (int i = 0; i < kShards; ++i) {
      DomainScope scope(&sim, ids[i]);
      sim.Schedule(Duration::Micros(1), [this, i] { Tick(i, 1); });
    }
  }

  void Tick(int shard, int n) {
    logs[shard + 1].push_back(Entry(Tag("t", n), sim.Now()));
    if (n % 3 == 0) {
      const int dst = (shard + 1) % kShards;
      std::string tag = Tag("x", shard);
      tag += '-';
      tag += std::to_string(n);
      sim.ScheduleCrossAt(ids[dst], sim.Now() + lookahead,
                          [this, dst, tag] { logs[dst + 1].push_back(Entry(tag, sim.Now())); });
    }
    if (n < kTicks) {
      sim.Schedule(Duration::Micros(1 + shard), [this, shard, n] { Tick(shard, n + 1); });
    }
  }
};

TEST(DomainTest, BitIdenticalAcrossWorkerCounts) {
  ShardWorkload one(1);
  const uint64_t events_one = one.sim.Run();
  ASSERT_GT(events_one, 0u);
  for (int workers : {2, 4, 8}) {
    ShardWorkload many(workers);
    const uint64_t events_many = many.sim.Run();
    EXPECT_EQ(events_one, events_many) << "workers=" << workers;
    EXPECT_EQ(one.logs, many.logs) << "workers=" << workers;
  }
}

TEST(DomainTest, CrossDeliveriesMergeInSourceDomainSeqOrder) {
  for (int workers : {1, 3}) {
    Simulator sim;
    sim.SetLookahead(Duration::Micros(1));
    const uint32_t a = sim.AddDomain();
    const uint32_t b = sim.AddDomain();
    const uint32_t c = sim.AddDomain();
    sim.SetWorkers(workers);
    std::vector<std::string> log;
    const TimePoint when = TimePoint::Zero() + Duration::Micros(10);
    // All three sends fire at the same instant (one epoch), so all three
    // deliveries merge at one barrier. B is scheduled first and could be
    // executed by another worker first, but A is the lower source domain:
    // the barrier must order same-instant deliveries by (src_domain,
    // src_seq), a key no worker interleaving can perturb.
    {
      DomainScope scope(&sim, b);
      sim.Schedule(Duration::Micros(1), [&sim, &log, c, when] {
        sim.ScheduleCrossAt(c, when, [&log] { log.push_back("b0"); });
        sim.ScheduleCrossAt(c, when, [&log] { log.push_back("b1"); });
      });
    }
    {
      DomainScope scope(&sim, a);
      sim.Schedule(Duration::Micros(1), [&sim, &log, c, when] {
        sim.ScheduleCrossAt(c, when, [&log] { log.push_back("a0"); });
      });
    }
    sim.Run();
    EXPECT_EQ(log, (std::vector<std::string>{"a0", "b0", "b1"})) << "workers=" << workers;
  }
}

TEST(DomainTest, GlobalEventRunsAtItsTimeAndCanPokeShards) {
  Simulator sim;
  sim.SetLookahead(Duration::Micros(1));
  const uint32_t shard = sim.AddDomain();
  sim.SetWorkers(2);
  std::vector<std::string> log;
  {
    DomainScope scope(&sim, shard);
    for (int n = 1; n <= 10; ++n) {
      sim.Schedule(Duration::Micros(n), [&sim, &log, shard, n] {
        EXPECT_EQ(sim.current_domain(), shard);
        log.push_back(Entry(Tag("s", n), sim.Now()));
      });
    }
  }
  // Scheduled from outside any domain context: a global (domain 0) event. It
  // observes its own fire time and schedules into the shard via DomainScope.
  sim.Schedule(Duration::MicrosF(5.5), [&sim, &log, shard] {
    EXPECT_EQ(sim.current_domain(), 0u);
    EXPECT_EQ(sim.Now(), TimePoint::Zero() + Duration::MicrosF(5.5));
    log.push_back(Entry("g", sim.Now()));
    DomainScope scope(&sim, shard);
    sim.Schedule(Duration::Micros(2), [&sim, &log] { log.push_back(Entry("poke", sim.Now())); });
  });
  sim.Run();
  // The shard log interleaves with the global event and the poke lands at
  // 5.5 + 2 = 7.5 us, between the shard's own 7 and 8 us ticks.
  const std::vector<std::string> expected = {
      Entry("s1", TimePoint::Zero() + Duration::Micros(1)),
      Entry("s2", TimePoint::Zero() + Duration::Micros(2)),
      Entry("s3", TimePoint::Zero() + Duration::Micros(3)),
      Entry("s4", TimePoint::Zero() + Duration::Micros(4)),
      Entry("s5", TimePoint::Zero() + Duration::Micros(5)),
      Entry("g", TimePoint::Zero() + Duration::MicrosF(5.5)),
      Entry("s6", TimePoint::Zero() + Duration::Micros(6)),
      Entry("s7", TimePoint::Zero() + Duration::Micros(7)),
      Entry("poke", TimePoint::Zero() + Duration::MicrosF(7.5)),
      Entry("s8", TimePoint::Zero() + Duration::Micros(8)),
      Entry("s9", TimePoint::Zero() + Duration::Micros(9)),
      Entry("s10", TimePoint::Zero() + Duration::Micros(10)),
  };
  EXPECT_EQ(log, expected);
}

TEST(DomainTest, CancelWorksWithinADomain) {
  Simulator sim;
  sim.SetLookahead(Duration::Micros(1));
  const uint32_t shard = sim.AddDomain();
  sim.SetWorkers(2);
  bool doomed_fired = false;
  bool survivor_fired = false;
  {
    DomainScope scope(&sim, shard);
    const EventId doomed = sim.Schedule(Duration::Micros(5), [&] { doomed_fired = true; });
    sim.Schedule(Duration::Micros(6), [&] { survivor_fired = true; });
    EXPECT_TRUE(sim.Cancel(doomed));
    EXPECT_FALSE(sim.Cancel(doomed));  // Already canceled.
  }
  sim.Run();
  EXPECT_FALSE(doomed_fired);
  EXPECT_TRUE(survivor_fired);
}

TEST(DomainTest, RunUntilClampsEveryDomainClock) {
  Simulator sim;
  sim.SetLookahead(Duration::Micros(1));
  const uint32_t d1 = sim.AddDomain();
  const uint32_t d2 = sim.AddDomain();
  sim.SetWorkers(2);
  {
    DomainScope scope(&sim, d1);
    sim.Schedule(Duration::Micros(2), [] {});
  }
  const TimePoint deadline = TimePoint::Zero() + Duration::Millis(1);
  sim.RunUntil(deadline);
  EXPECT_EQ(sim.Now(), deadline);  // Global clock.
  {
    DomainScope scope(&sim, d1);
    EXPECT_EQ(sim.Now(), deadline);
  }
  {
    DomainScope scope(&sim, d2);  // Never had an event; still clamped.
    EXPECT_EQ(sim.Now(), deadline);
  }
}

TEST(DomainTest, IdleDomainReactivatesOnCrossMessageAndGlobalPoke) {
  // Lane-heap stress: a domain that drains to empty leaves the per-worker
  // lane heaps, and must re-enter them when (a) a cross message lands in
  // it and (b) a global event schedules into it. Identical logs across
  // worker counts prove the reactivation path is deterministic.
  auto run = [](int workers) {
    Simulator sim;
    sim.SetLookahead(Duration::Micros(1));
    const uint32_t busy = sim.AddDomain();
    const uint32_t idle = sim.AddDomain();
    sim.SetWorkers(workers);
    std::vector<std::string> busy_log;
    std::vector<std::string> idle_log;
    // Ticker, plus one cross message into the empty domain mid-run. Lives
    // at this scope so the by-reference captures outlive sim.Run().
    std::function<void(int)> tick = [&](int n) {
      busy_log.push_back(Entry(Tag("t", n), sim.Now()));
      if (n == 5) {
        sim.ScheduleCrossAt(idle, sim.Now() + Duration::Micros(1),
                            [&] { idle_log.push_back(Entry("cross", sim.Now())); });
      }
      if (n < 12) {
        sim.Schedule(Duration::Micros(2), [&tick, n] { tick(n + 1); });
      }
    };
    {
      DomainScope scope(&sim, busy);
      sim.Schedule(Duration::Micros(1), [&tick] { tick(1); });
    }
    // Global event after the cross delivery has long drained: the idle
    // domain is empty again and must wake a second time.
    sim.Schedule(Duration::Micros(20), [&sim, &idle_log, idle] {
      DomainScope scope(&sim, idle);
      sim.Schedule(Duration::Micros(1), [&] { idle_log.push_back(Entry("poke", sim.Now())); });
    });
    sim.Run();
    EXPECT_EQ(idle_log.size(), 2u) << "workers=" << workers;
    busy_log.insert(busy_log.end(), idle_log.begin(), idle_log.end());
    return busy_log;
  };
  const std::vector<std::string> one = run(1);
  ASSERT_EQ(one.size(), 14u);
  for (int workers : {2, 4, 8}) {
    EXPECT_EQ(run(workers), one) << "workers=" << workers;
  }
}

TEST(DomainTest, CancelingADomainHeadFromAGlobalEventRescans) {
  // A global event cancels the earliest pending event of a shard. The lane
  // entry for that event goes stale; the engine must rescan and still fire
  // the shard's later event at its exact time (not stall, not fire the
  // canceled one).
  for (int workers : {1, 2, 4}) {
    Simulator sim;
    sim.SetLookahead(Duration::Micros(1));
    const uint32_t shard = sim.AddDomain();
    sim.SetWorkers(workers);
    bool doomed_fired = false;
    std::vector<std::string> log;
    EventId doomed;
    {
      DomainScope scope(&sim, shard);
      doomed = sim.Schedule(Duration::Micros(10), [&] { doomed_fired = true; });
      sim.Schedule(Duration::Micros(12), [&] { log.push_back(Entry("later", sim.Now())); });
    }
    sim.Schedule(Duration::Micros(5), [&] {
      DomainScope scope(&sim, shard);
      EXPECT_TRUE(sim.Cancel(doomed));
    });
    sim.Run();
    EXPECT_FALSE(doomed_fired) << "workers=" << workers;
    EXPECT_EQ(log, (std::vector<std::string>{Entry("later", TimePoint::Zero() +
                                                               Duration::Micros(12))}))
        << "workers=" << workers;
  }
}

TEST(DomainTest, EventsFiredAndPendingAggregateAllDomains) {
  Simulator sim;
  sim.SetLookahead(Duration::Micros(1));
  const uint32_t d1 = sim.AddDomain();
  const uint32_t d2 = sim.AddDomain();
  sim.SetWorkers(2);
  {
    DomainScope scope(&sim, d1);
    sim.Schedule(Duration::Micros(1), [] {});
    sim.Schedule(Duration::Micros(2), [] {});
  }
  {
    DomainScope scope(&sim, d2);
    sim.Schedule(Duration::Micros(1), [] {});
  }
  sim.Schedule(Duration::Micros(3), [] {});  // Global.
  EXPECT_EQ(sim.pending_events(), 4u);
  EXPECT_EQ(sim.Run(), 4u);
  EXPECT_EQ(sim.events_fired(), 4u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

}  // namespace
}  // namespace e2e
