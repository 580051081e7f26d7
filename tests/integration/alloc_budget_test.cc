// Steady-state heap-allocation budget of the paper's operating points.
//
// The event loop, the CPU model and the TCP push path are meant to run
// without touching the allocator; what still allocates per request (segment
// payloads, request/response objects, receive batches) is bounded here so
// allocations cannot creep back unnoticed. This binary replaces the global
// operator new to count, which is why it is not folded into another suite.
//
// Each cell runs twice, with a 200 ms and a 600 ms measurement window; the
// difference cancels set-up, warm-up and drain, leaving the allocations of
// 400 ms of steady-state traffic per measured request.
//
// Bytes are counted too, for what a fleet holds per idle connection: most
// of a fleet cell's connections carry no request at a given moment, so
// whatever their apps allocate up front is paid once per connection.
//
// Below all of it, the event queue itself: an event whose capture fits
// InlineCallback's buffer is scheduled, canceled and popped without
// touching the allocator.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>

#include "src/apps/lancet.h"
#include "src/apps/redis_server.h"
#include "src/sim/event_queue.h"
#include "src/sim/stats.h"
#include "src/testbed/experiment.h"
#include "src/testbed/fleet.h"

namespace {
std::atomic<uint64_t> g_allocations{0};
std::atomic<uint64_t> g_bytes{0};

void* CountedAlloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* CountedAlignedAlloc(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
  // aligned_alloc wants a nonzero size that is a multiple of the alignment.
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = size == 0 ? a : (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded)) {
    return p;
  }
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace e2e {
namespace {

// Allocations per measured request in steady state. With every event,
// CPU work item and planned packet held inline, what remains per request
// is roughly a dozen segment and message objects on each side.
constexpr double kMaxAllocationsPerRequest = 40;

struct Cell {
  const char* name;
  BatchMode mode;
  double rate_rps;
};

// Figure 4's operating points: Nagle off, Nagle on, and dynamic toggling.
constexpr Cell kCells[] = {
    {"nodelay_37.5k", BatchMode::kStaticOff, 37500},
    {"nagle_72.5k", BatchMode::kStaticOn, 72500},
    {"dynamic_50k", BatchMode::kDynamic, 50000},
};

struct Count {
  uint64_t allocations = 0;
  uint64_t requests = 0;
};

Count RunCell(const Cell& cell, Duration measure) {
  RedisExperimentConfig config;
  config.batch_mode = cell.mode;
  config.rate_rps = cell.rate_rps;
  config.measure = measure;
  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  const RedisExperimentResult result = RunRedisExperiment(config);
  Count count;
  count.allocations = g_allocations.load(std::memory_order_relaxed) - before;
  count.requests = result.requests_completed;
  return count;
}

TEST(AllocBudgetTest, PaperCellsStayUnderPerRequestBudget) {
  for (const Cell& cell : kCells) {
    SCOPED_TRACE(cell.name);
    const Count short_run = RunCell(cell, Duration::Millis(200));
    const Count long_run = RunCell(cell, Duration::Millis(600));
    ASSERT_GT(long_run.requests, short_run.requests);
    ASSERT_GE(long_run.allocations, short_run.allocations);
    const double per_request =
        static_cast<double>(long_run.allocations - short_run.allocations) /
        static_cast<double>(long_run.requests - short_run.requests);
    std::printf("%-14s %8.1f allocations/request (%llu requests in 400 ms)\n", cell.name,
                per_request,
                static_cast<unsigned long long>(long_run.requests - short_run.requests));
    EXPECT_LE(per_request, kMaxAllocationsPerRequest);
  }
}

// Bytes allocated to construct one fleet connection's two apps, the app
// objects included. A latency histogram that assigned its 1,002 buckets
// up front would add 8,016 B per client.
constexpr uint64_t kMaxIdleAppBytes = 1536;

TEST(AllocBudgetTest, IdleFleetConnectionAppsStayUnderByteBudget) {
  // The apps as RunFleetExperiment builds them, on a connected fabric pair.
  const FleetExperimentConfig fleet;
  FabricTopology topo(FleetExperimentConfig::DefaultFleetFabric(1));
  const ConnectedPair conn = topo.Connect(0, 0, 1, RedisExperimentConfig::DefaultClientTcp(),
                                          RedisExperimentConfig::DefaultServerTcp());
  RedisServerApp::Config server_config;
  server_config.costs = fleet.server_costs;
  LancetClient::Config client_config;
  client_config.rate_rps = fleet.total_rate_rps / fleet.fabric.num_clients;
  client_config.mix = fleet.mix;
  client_config.costs = fleet.client_profiles.front();

  const uint64_t before = g_bytes.load(std::memory_order_relaxed);
  const auto server = std::make_unique<RedisServerApp>(&topo.sim(), conn.b, server_config);
  const auto client = std::make_unique<LancetClient>(&topo.sim(), conn.a, client_config);
  const uint64_t bytes = g_bytes.load(std::memory_order_relaxed) - before;
  std::printf("idle fleet connection apps: %llu bytes\n", static_cast<unsigned long long>(bytes));
  EXPECT_LE(bytes, kMaxIdleAppBytes);
}

// Allocations per 1,000 pushes over `iterations` steady-state
// schedule/cancel/pop iterations at a depth of 1,024 pending events, each
// event capturing a pointer and `kBallast` bytes.
template <size_t kBallast>
double QueueAllocationsPerThousandPushes(size_t iterations) {
  constexpr size_t kDepth = 1024;
  EventQueue queue;
  uint64_t fired = 0;
  std::array<unsigned char, kBallast> ballast{};
  ballast[0] = 1;
  const auto callback = [&fired, ballast] { fired += ballast[0]; };
  int64_t t = 0;
  for (size_t i = 0; i < kDepth; ++i) {
    queue.Push(TimePoint::FromNanos(++t), callback);
  }
  // Two pushes, the later one canceled (a timer re-arm), and one pop.
  const auto iterate = [&] {
    t += 2;
    queue.Push(TimePoint::FromNanos(t), callback);
    queue.Cancel(queue.Push(TimePoint::FromNanos(t + 1), callback));
    queue.Pop().cb();
  };
  for (size_t i = 0; i < 8 * kDepth; ++i) {
    iterate();  // Grows the slot store and heap to their steady size.
  }
  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (size_t i = 0; i < iterations; ++i) {
    iterate();
  }
  const uint64_t allocations = g_allocations.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(fired, 8 * kDepth + iterations);
  return 1000.0 * static_cast<double>(allocations) / static_cast<double>(2 * iterations);
}

// A Packet-sized capture (64 bytes beside a pointer: the event loop's
// dominant closure, `this` plus a moved-in Packet) stays inline in the
// queue's slot.
TEST(AllocBudgetTest, QueuedEventWithPacketSizedCaptureAllocatesNothing) {
  const double per_thousand = QueueAllocationsPerThousandPushes<64>(1000000);
  std::printf("64-byte capture: %.1f allocations per 1,000 pushes\n", per_thousand);
  EXPECT_EQ(per_thousand, 0.0);
}

// The counter sees the queue: a capture past InlineCallback's buffer
// costs one allocation per push.
TEST(AllocBudgetTest, OversizedCaptureAllocatesOncePerPush) {
  const double per_thousand = QueueAllocationsPerThousandPushes<128>(1000000);
  std::printf("128-byte capture: %.1f allocations per 1,000 pushes\n", per_thousand);
  EXPECT_EQ(per_thousand, 1000.0);
}

TEST(AllocBudgetTest, EmptyHistogramAllocatesNothing) {
  const uint64_t allocations = g_allocations.load(std::memory_order_relaxed);
  const uint64_t bytes = g_bytes.load(std::memory_order_relaxed);
  const LogHistogram hist{0.1, 1e9, 100};
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed), allocations);
  EXPECT_EQ(g_bytes.load(std::memory_order_relaxed), bytes);
  EXPECT_EQ(hist.count(), 0);
}

}  // namespace
}  // namespace e2e
