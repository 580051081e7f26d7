#include "src/testbed/faults/injector.h"

#include <cassert>
#include <utility>

namespace e2e {

FaultInjector::FaultInjector(Simulator* sim, FaultSchedule schedule, FaultTargets targets)
    : sim_(sim), schedule_(std::move(schedule)), targets_(std::move(targets)) {
  assert(sim_ != nullptr);
  for (TimePoint& until : meta_until_) {
    until = TimePoint::Zero();
  }
}

void FaultInjector::Arm() {
  assert(!armed_);
  armed_ = true;
  for (const FaultEvent& event : schedule_.events()) {
    if (event.at < sim_->Now()) {
      continue;
    }
    sim_->ScheduleAt(event.at, [this, event] { Fire(event); });
  }
}

void FaultInjector::Fire(const FaultEvent& event) {
  switch (event.kind) {
    case FaultKind::kClientStall:
      if (targets_.client_host != nullptr) {
        targets_.client_host->app_core().Stall(event.duration);
        targets_.client_host->softirq_core().Stall(event.duration);
        ++counters_.client_stalls;
      }
      break;
    case FaultKind::kServerStall:
      if (targets_.server_host != nullptr) {
        targets_.server_host->app_core().Stall(event.duration);
        targets_.server_host->softirq_core().Stall(event.duration);
        ++counters_.server_stalls;
      }
      break;
    case FaultKind::kServerCrash:
      assert(targets_.crash_server && targets_.restart_server);
      if (server_down_) {
        break;  // Crashing a dead process is a no-op; skip the restart too.
      }
      server_down_ = true;
      ++counters_.crashes;
      targets_.crash_server();
      sim_->Schedule(event.duration, [this] {
        server_down_ = false;
        ++counters_.restarts;
        targets_.restart_server();
      });
      break;
    case FaultKind::kMetaWithhold:
    case FaultKind::kMetaDuplicate:
    case FaultKind::kMetaStaleReplay:
      OpenMetaWindow(event.kind, event.duration);
      break;
  }
}

void FaultInjector::OpenMetaWindow(FaultKind kind, Duration duration) {
  const TimePoint until = sim_->Now() + duration;
  TimePoint& slot = meta_until_[static_cast<int>(kind)];
  if (slot < until) {
    slot = until;
  }
  ++counters_.meta_windows;
  if (kind == FaultKind::kMetaStaleReplay && !replay_cache_.has_value()) {
    replay_window_opened_ = sim_->Now();
  }
}

TcpEndpoint::MetadataFilterFn FaultInjector::MakeMetadataFilter() {
  return [this](const WirePayload& payload) -> std::vector<WirePayload> {
    const TimePoint now = sim_->Now();
    const auto active = [&](FaultKind kind) {
      return now < meta_until_[static_cast<int>(kind)];
    };
    // An expired stale-replay window drops its cache so the next window
    // starts fresh.
    if (!active(FaultKind::kMetaStaleReplay)) {
      replay_cache_.reset();
    }
    if (active(FaultKind::kMetaWithhold)) {
      ++counters_.payloads_withheld;
      return {};
    }
    if (active(FaultKind::kMetaStaleReplay)) {
      if (!replay_cache_.has_value()) {
        // First payload of the window passes through and becomes the
        // replayed stale state for the rest of the window.
        replay_cache_ = payload;
        return {payload};
      }
      ++counters_.payloads_replayed;
      return {*replay_cache_};
    }
    if (active(FaultKind::kMetaDuplicate)) {
      ++counters_.payloads_duplicated;
      return {payload, payload};
    }
    return {payload};
  };
}

void FaultInjector::RegisterCounters(CounterRegistry* registry, const std::string& name) {
  assert(registry != nullptr);
  registry->Register(
      name,
      {"client_stalls", "server_stalls", "crashes", "restarts", "meta_windows",
       "payloads_withheld", "payloads_duplicated", "payloads_replayed"},
      [this]() -> std::vector<uint64_t> {
        return {counters_.client_stalls,    counters_.server_stalls,
                counters_.crashes,          counters_.restarts,
                counters_.meta_windows,     counters_.payloads_withheld,
                counters_.payloads_duplicated, counters_.payloads_replayed};
      });
}

}  // namespace e2e
