// The paper's prototype methodology (§3.4): queue states are exported like
// ethtool counters and analyzed offline. The collector periodically
// snapshots all queue states (every kernel unit mode) at both endpoints,
// plus the client's hint queue; `EstimateWindow` then applies GETAVGS and
// the combination formula over any [from, to] interval after the fact.

#ifndef SRC_TESTBED_COLLECTOR_H_
#define SRC_TESTBED_COLLECTOR_H_

#include <array>
#include <optional>
#include <vector>

#include "src/core/endpoint_queues.h"
#include "src/core/hints.h"
#include "src/core/latency_combiner.h"
#include "src/core/units.h"
#include "src/net/impair/impairment.h"
#include "src/sim/simulator.h"
#include "src/tcp/endpoint.h"
#include "src/obs/registry.h"

namespace e2e {

class CounterCollector {
 public:
  // Snapshots endpoints `a` and `b` every `interval`. `hints` may be null.
  CounterCollector(Simulator* sim, TcpEndpoint* a, TcpEndpoint* b, HintTracker* hints,
                   Duration interval);

  // Optionally snapshots the per-direction impairment chains alongside the
  // queue states (either pointer may be null). Call before Start().
  void AttachImpairments(const ImpairmentChain* c2s, const ImpairmentChain* s2c);

  // Optionally samples every entity of `registry` (NICs, links, switch
  // ports — whatever the topology exported) alongside the queue states, so
  // fabric-wide counters come from one registration point instead of
  // hard-coded client/server fields. Call before Start(); the registry must
  // outlive the collector.
  void AttachRegistry(const CounterRegistry* registry);

  // Begins sampling now; stops after `until` (absolute virtual time).
  void Start(TimePoint until);

  struct Sample {
    TimePoint time;
    std::array<EndpointSnapshot, kNumKernelUnitModes> a;
    std::array<EndpointSnapshot, kNumKernelUnitModes> b;
    std::optional<QueueSnapshot> hint;
    // Per-stage counters at sample time (empty when unattached).
    ImpairmentSnapshot impair_c2s;
    ImpairmentSnapshot impair_s2c;
    // Registry entity values at sample time (empty when unattached).
    CounterRegistry::Values registry;
  };
  const std::vector<Sample>& samples() const { return samples_; }

  // Offline end-to-end estimate over the closest sampled sub-interval of
  // [from, to], in kernel unit mode `mode`. Invalid when fewer than two
  // samples fall inside.
  E2eEstimate EstimateWindow(UnitMode mode, TimePoint from, TimePoint to) const;

  // Hint-queue Little's-law estimate over the same kind of window: the
  // create->complete delay and completion rate.
  QueueAverages HintWindow(TimePoint from, TimePoint to) const;

  // Per-queue Algorithm-2 averages for one endpoint over the window — the
  // individual terms of the combination formula (Figure 3). `side_a` picks
  // endpoint a, else b. Zeroes when the window has under two samples.
  EndpointAverages WindowAverages(bool side_a, UnitMode mode, TimePoint from, TimePoint to) const;

  // Per-interval estimate series (consecutive sample pairs), e.g. to drive
  // an offline would-have-been controller analysis.
  std::vector<std::pair<TimePoint, E2eEstimate>> EstimateSeries(UnitMode mode) const;

  // Per-stage impairment counter deltas over the closest sampled
  // sub-interval of [from, to] for one direction (`c2s` picks the
  // client->server chain). Empty when unattached or the window is invalid.
  ImpairmentSnapshot ImpairmentWindow(bool c2s, TimePoint from, TimePoint to) const;

  // Registry counter deltas over the closest sampled sub-interval of
  // [from, to] (same schema/order as the attached registry). Empty when
  // unattached or the window is invalid. Gauge-like counters (high-water
  // marks) subtract like any other; read them from the raw samples instead.
  CounterRegistry::Values RegistryWindow(TimePoint from, TimePoint to) const;
  const CounterRegistry* registry() const { return registry_; }

 private:
  void TakeSample();
  // Indices of the first sample >= from and the last sample <= to.
  std::optional<std::pair<size_t, size_t>> WindowIndices(TimePoint from, TimePoint to) const;

  Simulator* sim_;
  TcpEndpoint* a_;
  TcpEndpoint* b_;
  HintTracker* hints_;
  const ImpairmentChain* impair_c2s_ = nullptr;
  const ImpairmentChain* impair_s2c_ = nullptr;
  const CounterRegistry* registry_ = nullptr;
  Duration interval_;
  TimePoint until_;
  std::vector<Sample> samples_;
};

}  // namespace e2e

#endif  // SRC_TESTBED_COLLECTOR_H_
