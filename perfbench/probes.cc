#include "perfbench/probes.h"

#include <array>
#include <cstdint>
#include <cstdlib>
#include <cstdio>
#include <vector>

#include "perfbench/harness.h"
#include "src/core/queue_state.h"
#include "src/net/fabric/switch.h"
#include "src/net/link.h"
#include "src/sim/event_queue.h"
#include "src/sim/random.h"
#include "src/sim/simulator.h"
#include "src/tcp/segment_codec.h"
#include "src/testbed/fabric_topology.h"

namespace perfbench {

using e2e::Duration;
using e2e::TimePoint;

namespace {

constexpr int kRepeats = 5;

// Keeps results observable so the timed loops are not optimized away.
volatile uint64_t g_sink = 0;

// Median over kRepeats of `once()`, which returns ns per operation.
template <typename F>
double MedianOf(F once) {
  std::vector<double> samples;
  for (int i = 0; i < kRepeats; ++i) {
    samples.push_back(once());
  }
  return Median(samples);
}

[[noreturn]] void ProbeFailed(const char* what) {
  std::fprintf(stderr, "perfbench: probe failed: %s\n", what);
  std::exit(1);
}

// The event loop's dominant closure carries a `this` pointer plus a moved-in
// Packet (~72 bytes); the ballast gives the timed callbacks the same size.
struct Ballast {
  std::array<unsigned char, 64> bytes{};
};

}  // namespace

double QueuePushPopNs(size_t depth) {
  constexpr size_t kOps = 400000;
  return MedianOf([depth] {
    e2e::EventQueue q;
    uint64_t fired = 0;
    Ballast ballast;
    ballast.bytes[0] = 1;
    for (size_t i = 0; i < depth; ++i) {
      q.Push(TimePoint::FromNanos(static_cast<int64_t>(i) + 1),
             [&fired, ballast] { fired += ballast.bytes[0]; });
    }
    const double start = NowSeconds();
    for (size_t i = 0; i < kOps; ++i) {
      q.NextTime();
      e2e::EventQueue::Entry entry = q.Pop();
      entry.cb();
      q.Push(entry.when + Duration::Nanos(static_cast<int64_t>(depth)),
             [&fired, ballast] { fired += ballast.bytes[0]; });
    }
    const double elapsed = NowSeconds() - start;
    if (fired != kOps) {
      ProbeFailed("queue push/pop fired a wrong number of events");
    }
    g_sink = fired;
    return elapsed / kOps * 1e9;
  });
}

double QueueCancelNs(size_t depth) {
  constexpr size_t kOps = 400000;
  return MedianOf([depth] {
    e2e::EventQueue q;
    uint64_t fired = 0;
    Ballast ballast;
    ballast.bytes[0] = 1;
    int64_t t = 0;
    for (size_t i = 0; i < depth; ++i) {
      q.Push(TimePoint::FromNanos(++t), [&fired, ballast] { fired += ballast.bytes[0]; });
    }
    const double start = NowSeconds();
    for (size_t i = 0; i < kOps; ++i) {
      t += 2;
      q.Push(TimePoint::FromNanos(t), [&fired, ballast] { fired += ballast.bytes[0]; });
      const e2e::EventId doomed =
          q.Push(TimePoint::FromNanos(t + 1), [&fired, ballast] { fired += ballast.bytes[0]; });
      q.Cancel(doomed);
      q.NextTime();
      q.Pop().cb();
    }
    const double elapsed = NowSeconds() - start;
    if (q.size() != depth) {
      ProbeFailed("queue cancel left a wrong number of events");
    }
    g_sink = fired;
    return elapsed / kOps * 1e9;
  });
}

namespace {

// Chains of events that hop between two domains, one ScheduleCrossAt per
// hop, each landing exactly one lookahead later.
struct PingPong {
  e2e::Simulator* sim;
  uint32_t domains[2];
  Duration lookahead;
  uint64_t hops_left;
};

void Hop(PingPong* pp, int here) {
  if (pp->hops_left == 0) {
    return;
  }
  --pp->hops_left;
  const int there = 1 - here;
  pp->sim->ScheduleCrossAt(pp->domains[there], pp->sim->Now() + pp->lookahead,
                           [pp, there] { Hop(pp, there); });
}

}  // namespace

double CrossMessageNs() {
  constexpr uint64_t kHops = 200000;
  constexpr int kChains = 16;
  return MedianOf([] {
    e2e::Simulator sim;
    PingPong pp{&sim, {sim.AddDomain(), sim.AddDomain()}, Duration::Micros(1), kHops};
    sim.SetLookahead(pp.lookahead);
    sim.SetWorkers(1);
    for (int c = 0; c < kChains; ++c) {
      e2e::DomainScope scope(&sim, pp.domains[c % 2]);
      sim.Schedule(Duration::Zero(), [&pp, c] { Hop(&pp, c % 2); });
    }
    const double start = NowSeconds();
    sim.Run();
    const double elapsed = NowSeconds() - start;
    if (pp.hops_left != 0) {
      ProbeFailed("cross-domain chains stopped early");
    }
    return elapsed / kHops * 1e9;
  });
}

double EcmpRouteNs() {
  constexpr uint64_t kOps = 1000000;
  constexpr uint32_t kClients = 16384;
  e2e::Simulator sim;
  e2e::Link::Config link_config;
  link_config.bandwidth_bps = 100e9;
  e2e::Link up0(&sim, link_config, e2e::Rng(1), "up0");
  e2e::Link up1(&sim, link_config, e2e::Rng(2), "up1");
  e2e::Switch leaf(&sim, "leaf0");
  const size_t p0 = leaf.AddPort(&up0, e2e::SwitchPortConfig{}, "leaf0.spine0");
  const size_t p1 = leaf.AddPort(&up1, e2e::SwitchPortConfig{}, "leaf0.spine1");
  leaf.AddEcmpMember(p0, e2e::DeriveSeed(1, e2e::kFabricSeedEcmp, 0));
  leaf.AddEcmpMember(p1, e2e::DeriveSeed(1, e2e::kFabricSeedEcmp, 1));
  const e2e::SwitchPort* first = &leaf.port(p0);
  return MedianOf([&] {
    uint64_t on_first = 0;
    const double start = NowSeconds();
    for (uint64_t i = 0; i < kOps; ++i) {
      const uint32_t src = 1 + static_cast<uint32_t>(i % kClients);
      const uint32_t dst = kClients + 1 + static_cast<uint32_t>(i % 4);
      on_first += leaf.EcmpRouteFor(src, dst) == first ? 1 : 0;
    }
    const double elapsed = NowSeconds() - start;
    if (on_first == 0 || on_first == kOps) {
      ProbeFailed("ECMP pinned every flow to one uplink");
    }
    g_sink = on_first;
    return elapsed / kOps * 1e9;
  });
}

double CodecNs() {
  constexpr uint64_t kOps = 300000;
  std::array<e2e::TcpSegment, 3> segments;
  for (size_t i = 0; i < segments.size(); ++i) {
    e2e::TcpSegment& seg = segments[i];
    seg.conn_id = 7;
    seg.seq = 1000000 + static_cast<uint32_t>(i) * 1448;
    seg.ack = 5000;
    seg.len = 1448;
    seg.flags = e2e::kFlagAck;
    seg.window = 65535;
  }
  // Timestamps + three SACK blocks: exactly the 40-byte option space.
  segments[0].ts = e2e::TsOption{123456, 654321};
  segments[0].sack = {{2000, 3448}, {4896, 6344}, {7792, 9240}};
  // The e2e exchange alone (its 40-byte TLV).
  e2e::WirePayload payload;
  payload.unacked = {1000, 20, 3000};
  payload.unread = {1000, 21, 3100};
  payload.ackdelay = {1000, 22, 3200};
  segments[1].e2e_option = payload;
  // Timestamps + one SACK block, the common lossy-path ack.
  segments[2].ts = e2e::TsOption{123457, 654322};
  segments[2].sack = {{2000, 3448}};
  for (const e2e::TcpSegment& seg : segments) {
    const auto encoded = e2e::EncodeSegmentHeader(seg);
    if (!encoded.has_value() ||
        !e2e::DecodeSegmentHeader(encoded->header.data(), encoded->header.size(),
                                  encoded->payload_len)
             .has_value()) {
      ProbeFailed("segment codec rejected a probe segment");
    }
  }
  return MedianOf([&] {
    uint64_t sum = 0;
    const double start = NowSeconds();
    for (uint64_t i = 0; i < kOps; ++i) {
      const e2e::TcpSegment& seg = segments[i % segments.size()];
      const auto encoded = e2e::EncodeSegmentHeader(seg);
      const auto decoded = e2e::DecodeSegmentHeader(encoded->header.data(),
                                                    encoded->header.size(), encoded->payload_len);
      sum += decoded->seq + decoded->sack.size();
    }
    const double elapsed = NowSeconds() - start;
    g_sink = sum;
    return elapsed / kOps * 1e9;
  });
}

double TrackNs() {
  constexpr uint64_t kOps = 4000000;
  return MedianOf([] {
    e2e::QueueState q;
    int64_t t = 0;
    const double start = NowSeconds();
    for (uint64_t i = 0; i < kOps; ++i) {
      t += 97;
      q.Track(TimePoint::FromNanos(t), (i & 1) == 0 ? 1448 : -1448);
    }
    const double elapsed = NowSeconds() - start;
    if (q.size_violations() != 0 || q.time_violations() != 0) {
      ProbeFailed("QueueState::Track clamped a probe update");
    }
    g_sink = static_cast<uint64_t>(q.integral());
    return elapsed / kOps * 1e9;
  });
}

}  // namespace perfbench
