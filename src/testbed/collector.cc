#include "src/testbed/collector.h"

#include <cassert>

namespace e2e {
namespace {

size_t ModeIndex(UnitMode mode) { return static_cast<size_t>(mode); }

EndpointAverages AvgsBetween(const EndpointSnapshot& prev, const EndpointSnapshot& cur) {
  return GetEndpointAvgs(prev, cur);
}

}  // namespace

CounterCollector::CounterCollector(Simulator* sim, TcpEndpoint* a, TcpEndpoint* b,
                                   HintTracker* hints, Duration interval)
    : sim_(sim), a_(a), b_(b), hints_(hints), interval_(interval) {
  assert(sim_ != nullptr && a_ != nullptr && b_ != nullptr);
  assert(interval_ > Duration::Zero());
}

void CounterCollector::AttachImpairments(const ImpairmentChain* c2s, const ImpairmentChain* s2c) {
  impair_c2s_ = c2s;
  impair_s2c_ = s2c;
}

void CounterCollector::AttachRegistry(const CounterRegistry* registry) { registry_ = registry; }

void CounterCollector::Start(TimePoint until) {
  until_ = until;
  TakeSample();
}

void CounterCollector::TakeSample() {
  Sample sample;
  sample.time = sim_->Now();
  for (UnitMode mode : kKernelUnitModes) {
    sample.a[ModeIndex(mode)] = a_->queues().SnapshotAll(mode, sample.time);
    sample.b[ModeIndex(mode)] = b_->queues().SnapshotAll(mode, sample.time);
  }
  if (hints_ != nullptr) {
    sample.hint = hints_->Snapshot(sample.time);
  }
  if (impair_c2s_ != nullptr) {
    sample.impair_c2s = impair_c2s_->Snapshot();
  }
  if (impair_s2c_ != nullptr) {
    sample.impair_s2c = impair_s2c_->Snapshot();
  }
  if (registry_ != nullptr) {
    sample.registry = registry_->Sample();
  }
  samples_.push_back(std::move(sample));
  if (sim_->Now() + interval_ <= until_) {
    sim_->Schedule(interval_, [this] { TakeSample(); });
  }
}

std::optional<std::pair<size_t, size_t>> CounterCollector::WindowIndices(TimePoint from,
                                                                         TimePoint to) const {
  std::optional<size_t> first;
  std::optional<size_t> last;
  for (size_t i = 0; i < samples_.size(); ++i) {
    if (!first.has_value() && samples_[i].time >= from) {
      first = i;
    }
    if (samples_[i].time <= to) {
      last = i;
    }
  }
  if (!first.has_value() || !last.has_value() || *last <= *first) {
    return std::nullopt;
  }
  return std::make_pair(*first, *last);
}

E2eEstimate CounterCollector::EstimateWindow(UnitMode mode, TimePoint from, TimePoint to) const {
  const auto window = WindowIndices(from, to);
  if (!window.has_value()) {
    return E2eEstimate{};
  }
  const Sample& prev = samples_[window->first];
  const Sample& cur = samples_[window->second];
  const size_t m = ModeIndex(mode);
  return EstimateEndToEnd(AvgsBetween(prev.a[m], cur.a[m]), AvgsBetween(prev.b[m], cur.b[m]));
}

EndpointAverages CounterCollector::WindowAverages(bool side_a, UnitMode mode, TimePoint from,
                                                  TimePoint to) const {
  const auto window = WindowIndices(from, to);
  if (!window.has_value()) {
    return EndpointAverages{};
  }
  const Sample& prev = samples_[window->first];
  const Sample& cur = samples_[window->second];
  const size_t m = ModeIndex(mode);
  return side_a ? AvgsBetween(prev.a[m], cur.a[m]) : AvgsBetween(prev.b[m], cur.b[m]);
}

QueueAverages CounterCollector::HintWindow(TimePoint from, TimePoint to) const {
  const auto window = WindowIndices(from, to);
  if (!window.has_value()) {
    return QueueAverages{};
  }
  const Sample& prev = samples_[window->first];
  const Sample& cur = samples_[window->second];
  if (!prev.hint.has_value() || !cur.hint.has_value()) {
    return QueueAverages{};
  }
  return GetAvgs(*prev.hint, *cur.hint);
}

ImpairmentSnapshot CounterCollector::ImpairmentWindow(bool c2s, TimePoint from,
                                                      TimePoint to) const {
  const auto window = WindowIndices(from, to);
  if (!window.has_value()) {
    return {};
  }
  const ImpairmentSnapshot& prev =
      c2s ? samples_[window->first].impair_c2s : samples_[window->first].impair_s2c;
  const ImpairmentSnapshot& cur =
      c2s ? samples_[window->second].impair_c2s : samples_[window->second].impair_s2c;
  assert(prev.size() == cur.size());  // The chain's stage list is fixed.
  ImpairmentSnapshot delta;
  delta.reserve(cur.size());
  for (size_t i = 0; i < cur.size(); ++i) {
    delta.emplace_back(cur[i].first, cur[i].second - prev[i].second);
  }
  return delta;
}

CounterRegistry::Values CounterCollector::RegistryWindow(TimePoint from, TimePoint to) const {
  if (registry_ == nullptr) {
    return {};
  }
  const auto window = WindowIndices(from, to);
  if (!window.has_value()) {
    return {};
  }
  return CounterRegistry::Delta(samples_[window->first].registry,
                                samples_[window->second].registry);
}

std::vector<std::pair<TimePoint, E2eEstimate>> CounterCollector::EstimateSeries(
    UnitMode mode) const {
  std::vector<std::pair<TimePoint, E2eEstimate>> series;
  const size_t m = ModeIndex(mode);
  for (size_t i = 1; i < samples_.size(); ++i) {
    series.emplace_back(samples_[i].time,
                        EstimateEndToEnd(AvgsBetween(samples_[i - 1].a[m], samples_[i].a[m]),
                                         AvgsBetween(samples_[i - 1].b[m], samples_[i].b[m])));
  }
  return series;
}

}  // namespace e2e
