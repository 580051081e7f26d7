#include "src/testbed/robustness.h"

#include <cassert>
#include <cmath>
#include <memory>
#include <vector>

#include "src/apps/redis_server.h"
#include "src/core/aggregator.h"
#include "src/core/policy.h"
#include "src/sim/stats.h"

namespace e2e {

namespace {

// One connection incarnation: endpoints + the server process bound to them.
// Crashed incarnations are parked (endpoints become stack-graveyard
// zombies; the app object is kept here) — never destroyed mid-run.
struct Incarnation {
  uint64_t conn_id = 0;
  ConnectedPair conn;
  std::unique_ptr<RedisServerApp> server;
};

}  // namespace

RobustnessResult RunRobustnessExperiment(const RobustnessConfig& config) {
  TwoHostTopology topo(config.topology);
  Simulator& sim = topo.sim();

  TcpConfig client_tcp = RedisExperimentConfig::DefaultClientTcp();
  TcpConfig server_tcp = RedisExperimentConfig::DefaultServerTcp();
  client_tcp.e2e_exchange_interval = config.exchange_interval;
  server_tcp.e2e_exchange_interval = config.exchange_interval;

  const TimePoint start = sim.Now();
  const TimePoint measure_start = start + config.warmup;
  const TimePoint measure_end = measure_start + config.measure;
  const TimePoint run_end = measure_end + config.drain;

  // Fault timeline landmarks (known up-front: the schedule is scripted).
  std::optional<TimePoint> first_fault_at;
  TimePoint last_fault_end = start;
  for (const FaultEvent& event : config.faults.events()) {
    if (!first_fault_at.has_value() || event.at < *first_fault_at) {
      first_fault_at = event.at;
    }
    if (event.at + event.duration > last_fault_end) {
      last_fault_end = event.at + event.duration;
    }
  }

  EstimateAggregator aggregator;
  aggregator.SetStalenessBound(config.aggregator_staleness);
  EstimatorHealth health(config.health, sim.Now());

  // Phase-bucketed ground truth and online estimates.
  RunningStats pre_truth_us, post_truth_us;
  RunningStats online_all_us, online_pre_us, online_post_us;
  std::optional<TimePoint> recovered_at;
  uint64_t rejected_payloads_total = 0;

  // Latest-value trackers for the time-series gauges. Plain shadows of
  // values the run computes anyway — updating them cannot alter the run.
  double last_online_est_us = 0;
  double last_measured_us = 0;

  std::vector<std::unique_ptr<Incarnation>> incarnations;
  TcpEndpoint* server_ep = nullptr;  // Current incarnation's side B.
  FaultInjector* injector_ptr = nullptr;
  std::unique_ptr<LancetClient> client;

  const auto in_window = [&](TimePoint t) { return t >= measure_start && t < measure_end; };
  const auto bucket = [&](TimePoint t, double value, RunningStats* pre, RunningStats* post) {
    if (!in_window(t)) {
      return;
    }
    if (!first_fault_at.has_value() || t < *first_fault_at) {
      pre->Add(value);
    } else if (recovered_at.has_value() && t >= *recovered_at) {
      post->Add(value);
    }
  };

  // Builds a fresh connection incarnation (initial connect and every
  // reconnect): new conn_id — stale in-flight segments of a dead
  // incarnation must keep missing — fresh server process, fresh estimator.
  const auto build_incarnation = [&]() -> TcpEndpoint* {
    auto inc = std::make_unique<Incarnation>();
    inc->conn_id = incarnations.size() + 1;
    inc->conn = topo.Connect(inc->conn_id, client_tcp, server_tcp);

    RedisServerApp::Config server_config;
    server_config.costs = config.server_costs;
    inc->server = std::make_unique<RedisServerApp>(&sim, inc->conn.b, server_config);
    if (config.prefill_store) {
      for (uint64_t key = 0; key < config.mix.key_space; ++key) {
        inc->server->mutable_store().Set(key, config.mix.get_value_len);
      }
    }

    server_ep = inc->conn.b;
    if (injector_ptr != nullptr) {
      server_ep->SetMetadataFilter(injector_ptr->MakeMetadataFilter());
    }
    server_ep->SetEstimateCallback([&](const ConnectionEstimator& est) {
      health.OnExchange(sim.Now(), est.last_verdict());
      if (est.has_estimate() && est.estimate().latency.has_value()) {
        last_online_est_us = est.estimate().latency->ToMicros();
        if (in_window(sim.Now())) {
          online_all_us.Add(last_online_est_us);
          bucket(sim.Now(), last_online_est_us, &online_pre_us, &online_post_us);
        }
      }
    });
    aggregator.AddSource(&server_ep->estimator());
    TcpEndpoint* client_side = inc->conn.a;
    incarnations.push_back(std::move(inc));
    return client_side;
  };

  // ---- Fault injection wiring ----
  FaultTargets targets;
  targets.client_host = &topo.client_host();
  targets.server_host = &topo.server_host();
  std::optional<TimePoint> last_restart_at;
  targets.crash_server = [&] {
    Incarnation& cur = *incarnations.back();
    rejected_payloads_total += cur.conn.b->estimator().rejected_payloads();
    // The server process dies: both endpoints of its connection are gone.
    // With the fallback chain enabled the dead estimator leaves the
    // aggregate; the legacy configuration keeps it registered, so its
    // frozen last estimate silently feeds the controller — the exact
    // failure mode the A/B quantifies.
    if (config.fallback_enabled) {
      aggregator.RemoveSource(&cur.conn.b->estimator());
    }
    topo.server_stack().CloseEndpoint(cur.conn_id, /*is_a=*/false);
    topo.client_stack().CloseEndpoint(cur.conn_id, /*is_a=*/true);
    server_ep = nullptr;
    health.OnConnectionLost(sim.Now());
    client->OnConnectionLost();
  };
  targets.restart_server = [&] { last_restart_at = sim.Now(); };

  FaultInjector injector(&sim, config.faults, targets);
  injector_ptr = &injector;

  // ---- Client ----
  TcpEndpoint* first_socket = build_incarnation();
  LancetClient::Config client_config;
  client_config.rate_rps = config.rate_rps;
  client_config.mix = config.mix;
  client_config.costs = config.client_costs;
  client_config.warmup = config.warmup;
  client_config.measure = config.measure;
  client_config.seed = config.seed;
  client_config.use_hints = config.client_hints;
  client_config.reconnect = config.reconnect;
  client = std::make_unique<LancetClient>(&sim, first_socket, client_config);
  client->SetConnectFn([&]() -> TcpEndpoint* {
    if (!injector.server_up()) {
      return nullptr;
    }
    TcpEndpoint* fresh = build_incarnation();
    health.OnReconnect(sim.Now());
    return fresh;
  });
  client->SetLatencyObserver([&](TimePoint t, double latency_us) {
    last_measured_us = latency_us;
    bucket(t, latency_us, &pre_truth_us, &post_truth_us);
  });

  // ---- Controller + fallback chain ----
  SloThroughputPolicy policy(config.slo);
  ToggleController toggle(config.controller, &policy, Rng(config.seed + 7),
                          /*initial_on=*/false);
  RobustnessResult result;
  uint64_t ticks_on = 0;
  std::function<void()> control_tick = [&] {
    const TimePoint now = sim.Now();
    // Between a crash and the reconnect nothing can arrive.
    health.Tick(now, server_ep != nullptr ? server_ep->last_rx() : TimePoint::Zero());

    std::optional<PerfSample> sample;
    bool force_static = false;
    if (!config.fallback_enabled) {
      // Legacy path: staleness-blind average of every estimator ever
      // registered, stale or dead.
      const E2eEstimate aggregate = aggregator.Aggregate();
      if (aggregate.valid()) {
        sample = PerfSample{*aggregate.latency, aggregate.a_send_throughput};
      }
    } else {
      switch (health.state()) {
        case HealthState::kFull: {
          const E2eEstimate aggregate = aggregator.Aggregate(now);
          if (aggregate.valid()) {
            sample = PerfSample{*aggregate.latency, aggregate.a_send_throughput};
          }
          break;
        }
        case HealthState::kLocalOnly:
        case HealthState::kDiagAssisted: {
          // Peer counters untrusted: estimate from the server's own queues
          // only. Under response batching the local unacked delay inflates,
          // so this keeps the controller honest about the damage even
          // without the remote legs of the combination formula.
          // kDiagAssisted consumes the same local estimate: the in-network
          // diagnosis vouches the transport is alive, so freezing would
          // throw away a usable signal (unreachable here without a diag
          // provider — the two-host robustness runs never install one).
          if (server_ep != nullptr) {
            const E2eEstimate local =
                server_ep->estimator().LocalOnlyEstimate(server_ep->queues(), now);
            if (local.valid()) {
              sample = PerfSample{*local.latency, local.a_send_throughput};
            }
          }
          break;
        }
        case HealthState::kStatic:
          force_static = true;
          break;
      }
    }

    if (sample.has_value() &&
        (!std::isfinite(sample->latency.ToMicros()) || !std::isfinite(sample->throughput))) {
      ++result.non_finite_samples;  // Would trip BatchPolicy's assert.
      sample.reset();
    }

    const bool was_frozen = toggle.frozen();
    if (config.fallback_enabled) {
      if (force_static && !was_frozen) {
        toggle.SetFrozen(true, now);
      } else if (!force_static && was_frozen) {
        toggle.SetFrozen(false, now);
      }
    }

    const bool on = toggle.OnTick(now, sample);
    if (server_ep != nullptr && !server_ep->dead()) {
      // kStatic pins the known-good static policy (TCP_NODELAY, the
      // shipped Redis default) instead of whatever arm the controller
      // froze on.
      server_ep->SetNoDelay(force_static ? true : !on);
    }

    if (in_window(now)) {
      ++result.ticks;
      ticks_on += (on && !force_static) ? 1 : 0;
      result.frozen_ticks += toggle.frozen() ? 1 : 0;
    }

    // Recovery landmark: all scheduled faults are over, the client is
    // connected, and health has climbed back to full confidence.
    if (!recovered_at.has_value() && first_fault_at.has_value() && now >= last_fault_end &&
        client->connected() && health.state() == HealthState::kFull) {
      recovered_at = now;
    }

    if (now + config.controller.tick < run_end) {
      sim.Schedule(config.controller.tick, control_tick);
    }
  };
  sim.Schedule(config.controller.tick, control_tick);

  uint64_t switches_at_end = 0;
  sim.ScheduleAt(measure_end, [&] { switches_at_end = toggle.switches(); });

  // ---- Optional aligned time-series (DESIGN.md §11) ----
  // Every gauge is a pure read of state the run maintains anyway, so the
  // sampler observes without perturbing: a same-seed run with the sampler
  // on computes byte-identical results.
  std::optional<TimeSeriesSampler> sampler;
  const auto server_queue_bytes = [&](QueueKind kind) -> double {
    if (server_ep == nullptr || server_ep->dead()) {
      return 0;  // Between crash and reconnect there is no server queue.
    }
    return static_cast<double>(server_ep->queues().Get(kind, UnitMode::kBytes).size());
  };
  const auto arm_latency_us = [&](bool on) -> double {
    const std::optional<PerfSample> est = toggle.ArmEstimate(on);
    return est.has_value() ? est->latency.ToMicros() : 0;
  };
  if (config.series_interval > Duration::Zero()) {
    sampler.emplace(&sim, config.series_interval);
    sampler->AddGauge("server_unacked_bytes",
                      [&] { return server_queue_bytes(QueueKind::kUnacked); });
    sampler->AddGauge("server_unread_bytes",
                      [&] { return server_queue_bytes(QueueKind::kUnread); });
    sampler->AddGauge("server_ackdelay_bytes",
                      [&] { return server_queue_bytes(QueueKind::kAckDelay); });
    sampler->AddGauge("online_est_latency_us", [&] { return last_online_est_us; });
    sampler->AddGauge("measured_latency_us", [&] { return last_measured_us; });
    sampler->AddGauge("arm_on_ewma_latency_us", [&] { return arm_latency_us(true); });
    sampler->AddGauge("arm_off_ewma_latency_us", [&] { return arm_latency_us(false); });
    sampler->AddGauge("health_state",
                      [&] { return static_cast<double>(health.state()); });
    sampler->AddGauge("controller_on", [&] { return toggle.batching_on() ? 1.0 : 0.0; });
    sampler->AddGauge("controller_frozen", [&] { return toggle.frozen() ? 1.0 : 0.0; });
    sampler->Start(run_end);
  }

  injector.Arm();
  client->Start();
  sim.RunUntil(run_end);

  // ---- Results ----
  result.offered_krps = config.rate_rps / 1e3;
  const LancetClient::Results& lancet = client->results();
  result.achieved_krps = lancet.achieved_rps / 1e3;
  result.measured_mean_us = lancet.latency_us.mean();
  result.measured_p99_us = lancet.latency_hist.Percentile(99);
  result.requests_completed = lancet.measured;
  result.reconnect_attempts = lancet.reconnect_attempts;
  result.reconnects = lancet.reconnects;
  result.failed_disconnected = lancet.failed_disconnected;
  result.abandoned_on_crash = lancet.abandoned_on_crash;

  result.pre_fault_mean_us = pre_truth_us.mean();
  result.pre_fault_count = pre_truth_us.count();
  result.post_recovery_mean_us = post_truth_us.mean();
  result.post_recovery_count = post_truth_us.count();
  if (online_all_us.count() > 0) {
    result.online_est_us = online_all_us.mean();
  }
  if (online_pre_us.count() > 0) {
    result.online_est_pre_us = online_pre_us.mean();
    if (pre_truth_us.count() > 0 && pre_truth_us.mean() > 0) {
      result.est_err_pre_pct =
          (online_pre_us.mean() - pre_truth_us.mean()) / pre_truth_us.mean() * 100.0;
    }
  }
  if (online_post_us.count() > 0) {
    result.online_est_post_us = online_post_us.mean();
    if (post_truth_us.count() > 0 && post_truth_us.mean() > 0) {
      result.est_err_post_pct =
          (online_post_us.mean() - post_truth_us.mean()) / post_truth_us.mean() * 100.0;
    }
  }

  result.controller_switches = switches_at_end;
  if (result.ticks > 0) {
    result.duty_cycle_on = static_cast<double>(ticks_on) / static_cast<double>(result.ticks);
  }

  result.health = health.counters();
  result.health_transitions = health.transitions();
  result.time_in_full_ms = health.TimeIn(HealthState::kFull, sim.Now()).ToMicros() / 1e3;
  result.time_in_local_ms = health.TimeIn(HealthState::kLocalOnly, sim.Now()).ToMicros() / 1e3;
  result.time_in_diag_ms =
      health.TimeIn(HealthState::kDiagAssisted, sim.Now()).ToMicros() / 1e3;
  result.time_in_static_ms = health.TimeIn(HealthState::kStatic, sim.Now()).ToMicros() / 1e3;

  if (first_fault_at.has_value()) {
    HealthState prev = result.health_transitions.empty() ? HealthState::kStatic
                                                         : result.health_transitions.front().second;
    for (const auto& [t, s] : result.health_transitions) {
      if (t >= *first_fault_at && static_cast<int>(s) > static_cast<int>(prev) &&
          !result.time_to_detect_ms.has_value()) {
        result.time_to_detect_ms = (t - *first_fault_at).ToMicros() / 1e3;
      }
      prev = s;
    }
    const TimePoint recover_from = last_restart_at.value_or(*first_fault_at);
    for (const auto& [t, s] : result.health_transitions) {
      if (t >= recover_from && s == HealthState::kFull) {
        result.time_to_recover_ms = (t - recover_from).ToMicros() / 1e3;
        break;
      }
    }
  }

  result.faults = injector.counters();
  result.estimator_rejected_payloads = rejected_payloads_total;
  if (!incarnations.empty()) {
    const Incarnation& cur = *incarnations.back();
    if (!cur.conn.b->dead()) {
      result.estimator_rejected_payloads += cur.conn.b->estimator().rejected_payloads();
    }
  }
  result.aggregator_stale_skips = aggregator.stale_connections();
  result.endpoints_closed = topo.server_stack().endpoints_closed();
  if (sampler.has_value()) {
    result.series = std::make_shared<const TimeSeries>(sampler->TakeSeries());
  }
  return result;
}

}  // namespace e2e
