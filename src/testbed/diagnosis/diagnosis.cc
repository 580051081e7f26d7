#include "src/testbed/diagnosis/diagnosis.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <functional>
#include <memory>

#include "src/apps/lancet.h"
#include "src/apps/redis_server.h"
#include "src/core/policy.h"
#include "src/sim/stats.h"
#include "src/tcp/tcp_config.h"
#include "src/testbed/experiment.h"
#include "src/testbed/fleet.h"

namespace e2e {

namespace {

// The engineered bottleneck: the trunk port on a dumbbell, the server's
// downlink port on a star (same convention as buffer_sizing.cc).
SwitchPort* FindBottleneck(FabricTopology* topo) {
  Switch* client_sw = topo->client_switch();
  if (client_sw != nullptr) {
    for (size_t p = 0; p < client_sw->num_ports(); ++p) {
      if (client_sw->port(p).name().find("trunk") != std::string::npos) {
        return &client_sw->port(p);
      }
    }
  }
  return topo->server_switch()->RouteFor(topo->server_host(0).id());
}

// Ground-truth label from the sender endpoint's real state — the oracle the
// diagnoser never sees. Receiver first: a flow pinned against the peer's
// advertised window is receiver-limited even while cwnd idles just above
// it (cwnd stops growing once rwnd binds, so a cwnd-vs-rwnd comparison
// would mislabel the steady state). Then congestion: recovery, or the
// window is the binding constraint. Else the app isn't filling the pipe.
FlowLimit TruthLabel(const TcpEndpoint& sender, uint32_t mss) {
  const uint64_t flight = sender.flight_bytes();
  const uint64_t rwnd = sender.peer_rwnd();
  const uint64_t cwnd = sender.congestion().cwnd_bytes();
  if (!sender.in_recovery() && flight + mss > rwnd) {
    return FlowLimit::kReceiver;
  }
  if (sender.in_recovery() || flight + mss > cwnd) {
    return FlowLimit::kNetwork;
  }
  return FlowLimit::kSender;
}

// Majority label over one epoch's truth samples; ties break toward the
// stronger claim (network > receiver > sender) so a half-congested epoch
// reads as congested.
FlowLimit MajorityLabel(const uint64_t counts[kNumFlowLimits]) {
  static constexpr FlowLimit kPriority[] = {FlowLimit::kNetwork, FlowLimit::kReceiver,
                                            FlowLimit::kSender};
  FlowLimit best = FlowLimit::kNetwork;
  uint64_t best_count = 0;
  for (const FlowLimit limit : kPriority) {
    const uint64_t c = counts[static_cast<size_t>(limit)];
    if (c > best_count) {
      best = limit;
      best_count = c;
    }
  }
  return best;
}

}  // namespace

const char* DiagScenarioName(DiagScenario scenario) {
  switch (scenario) {
    case DiagScenario::kNetworkBound:
      return "network_bound";
    case DiagScenario::kReceiverBound:
      return "receiver_bound";
    case DiagScenario::kSenderPaced:
      return "sender_paced";
  }
  return "?";
}

DiagnosisValidationConfig DiagnosisValidationConfig::For(DiagScenario scenario,
                                                         FabricShape shape,
                                                         CcAlgorithm algorithm) {
  DiagnosisValidationConfig config;
  config.scenario = scenario;
  config.shape = shape;
  config.algorithm = algorithm;
  config.ecn = algorithm == CcAlgorithm::kDctcp;
  // Evidence-or-not should track the scenario, not queue noise: a low
  // backpressure knee keeps sawtooth troughs (network-bound) above it
  // while staying far over the tiny queues of the benign scenarios.
  config.diag.backpressure_frac = 0.15;

  switch (scenario) {
    case DiagScenario::kNetworkBound:
      if (shape == FabricShape::kDumbbell) {
        // 10G trunk, ~106 us RTT -> BDP ~132 KB; a 256 KB (~2x BDP) buffer
        // keeps the queue off the floor across multiplicative decreases,
        // so troughs stay above the backpressure knee.
        config.num_flows = 4;
        config.buffer_bytes = 256 * 1024;
        if (config.ecn) {
          config.ecn_threshold_bytes = 64 * 1024;
        }
      } else {
        // Incast: 8 bulk senders into one server downlink port. DCTCP gets
        // the classic shallow-buffer 100G regime (marks do the
        // signalling). The loss-based algorithms get 10G edges and a
        // deeper buffer: at 100G/64 KB a tail-drop incast lives in
        // RTO-storm slow start and even the *ground truth* flaps between
        // network- and sender-limited; at 8:1 over 10G the queue dominates
        // the RTT, per-flow windows are big enough for fast recovery, and
        // the scenario is network-bound by any reading.
        config.num_flows = 8;
        if (config.ecn) {
          config.buffer_bytes = 64 * 1024;
          config.ecn_threshold_bytes = 32 * 1024;
        } else {
          config.edge_bps = 10e9;
          config.buffer_bytes = 256 * 1024;
        }
      }
      break;
    case DiagScenario::kReceiverBound:
      // A 16 KB receive window caps each flow at ~rwnd/RTT, far below the
      // bottleneck; the oversized buffer keeps congestion out of the
      // picture entirely (no drops, no marks, no backpressure).
      config.num_flows = 2;
      config.rcvbuf_bytes = 16 * 1024;
      config.buffer_bytes = 2 * 1024 * 1024;
      break;
    case DiagScenario::kSenderPaced:
      // 4 KB every 200 us per flow: ~160 Mb/s offered against a >=10G
      // path. Every epoch sees data but nothing ever queues.
      config.num_flows = 4;
      config.buffer_bytes = 256 * 1024;
      break;
  }
  return config;
}

DiagnosisValidationResult RunDiagnosisValidation(const DiagnosisValidationConfig& config) {
  const int n = config.num_flows;
  assert(n >= 1);

  FabricConfig fabric;
  if (config.shape == FabricShape::kDumbbell) {
    fabric = FabricConfig::Dumbbell(n, 1, config.bottleneck_bps);
    fabric.trunk_link.propagation = config.trunk_propagation;
    fabric.trunk_port.buffer_bytes = config.buffer_bytes;
    fabric.trunk_port.ecn_threshold_bytes = config.ecn_threshold_bytes;
  } else {
    fabric = FabricConfig::Star(n, 1);
    fabric.edge_link.bandwidth_bps = config.edge_bps;
    fabric.server_port.buffer_bytes = config.buffer_bytes;
    fabric.server_port.ecn_threshold_bytes = config.ecn_threshold_bytes;
  }
  fabric.seed = config.seed;

  FabricTopology topo(fabric);
  Simulator& sim = topo.sim();

  TcpConfig client_tcp;
  client_tcp.nodelay = true;
  client_tcp.sndbuf_bytes = config.sndbuf_bytes;
  client_tcp.rcvbuf_bytes = config.rcvbuf_bytes;
  client_tcp.e2e_exchange_interval = Duration::Zero();  // Pure transport.
  client_tcp.cc.algorithm = config.algorithm;
  client_tcp.cc.ecn = config.ecn;
  client_tcp.rtt.initial_rto = Duration::Millis(10);  // Datacenter RTO floor.
  client_tcp.rtt.min_rto = Duration::Millis(1);
  const TcpConfig server_tcp = client_tcp;
  const uint32_t mss = client_tcp.mss;

  // The observer under test, tapping the switch the bottleneck port lives
  // on (left switch on a dumbbell sees data before the trunk queue; the
  // single star switch sees everything).
  FlowDiagnoser diag(&sim, config.diag);
  topo.client_switch()->SetTap(&diag);

  std::vector<ConnectedPair> conns(static_cast<size_t>(n));
  std::vector<uint64_t> rx_bytes(static_cast<size_t>(n), 0);
  // Sender-paced pacers, owned here so their scheduled trampolines can
  // refer to them (reserved: the trampolines hold references).
  std::vector<std::function<void()>> pacers;
  pacers.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    conns[i] = topo.Connect(i, 0, static_cast<uint64_t>(i + 1), client_tcp, server_tcp);
    TcpEndpoint* src = conns[i].a;
    TcpEndpoint* dst = conns[i].b;
    dst->SetReadableCallback([dst, &rx_bytes, i] { rx_bytes[i] += dst->Recv().bytes; });
    if (config.scenario == DiagScenario::kSenderPaced) {
      std::function<void()>& tick = pacers.emplace_back();
      tick = [&sim, &tick, src, chunk = config.paced_chunk_bytes,
              interval = config.paced_interval] {
        src->Send(chunk, MessageRecord{});
        sim.Schedule(interval, [&tick] { tick(); });
      };
      sim.Schedule(config.paced_interval, [&tick] { tick(); });
    } else {
      auto pump = [src, chunk = config.chunk_bytes] {
        while (src->Send(chunk, MessageRecord{})) {
        }
      };
      src->SetWritableCallback(pump);
      sim.Schedule(Duration::Zero(), pump);
    }
  }

  SwitchPort* bottleneck = FindBottleneck(&topo);
  assert(bottleneck != nullptr);

  const TimePoint measure_start = sim.Now() + config.warmup;
  const TimePoint measure_end = measure_start + config.measure;
  const int64_t epoch_ns = config.diag.epoch.nanos();

  DiagnosisValidationResult result;

  // ---- Ground-truth sampling ----
  // Offset by half a sample so truth ticks never collide with epoch-poll
  // ticks: a sample at an exact boundary would belong to the *next* epoch
  // and same-timestamp execution order would decide which bucket it lands
  // in. The half-step offset makes bucketing order-independent.
  std::vector<std::array<uint64_t, kNumFlowLimits>> truth_counts(
      static_cast<size_t>(n), std::array<uint64_t, kNumFlowLimits>{});
  RunningStats true_cwnd, inferred_cwnd, cwnd_err, true_rtt, inferred_rtt, rtt_err;
  std::function<void()> truth_tick = [&] {
    for (int i = 0; i < n; ++i) {
      const TcpEndpoint& src = *conns[i].a;
      const FlowLimit label = TruthLabel(src, mss);
      ++truth_counts[i][static_cast<size_t>(label)];

      const FlowDiagnoser::FlowSnapshot snap =
          diag.Peek(static_cast<uint64_t>(i + 1), /*from_a=*/true);
      const double tc = static_cast<double>(src.congestion().cwnd_bytes());
      true_cwnd.Add(tc);
      if (snap.inferred_cwnd_bytes > 0) {
        const double ic = static_cast<double>(snap.inferred_cwnd_bytes);
        inferred_cwnd.Add(ic);
        if (tc > 0) {
          cwnd_err.Add(std::abs(ic - tc) / tc * 100.0);
        }
      }
      const std::optional<Duration> srtt = src.rtt().srtt();
      if (srtt.has_value()) {
        true_rtt.Add(srtt->ToMicros());
        if (snap.srtt_us > 0) {
          inferred_rtt.Add(snap.srtt_us);
          rtt_err.Add(std::abs(snap.srtt_us - srtt->ToMicros()) / srtt->ToMicros() * 100.0);
        }
      }
    }
    if (sim.Now() + config.truth_sample < measure_end) {
      sim.Schedule(config.truth_sample, truth_tick);
    }
  };
  sim.ScheduleAt(measure_start + Duration::Nanos(config.truth_sample.nanos() / 2), truth_tick);

  // ---- Epoch-boundary polls ----
  // The first scored epoch is the first one starting at/after
  // measure_start; a poll at its exclusive end closes it (flow_diag.h).
  const int64_t first_closed_epoch =
      (measure_start.nanos() + epoch_ns - 1) / epoch_ns;  // ceil
  uint64_t correct_by_limit[kNumFlowLimits] = {};
  uint64_t truth_by_limit[kNumFlowLimits] = {};
  uint64_t inferred_by_limit[kNumFlowLimits] = {};
  std::function<void()> poll_tick = [&] {
    const TimePoint now = sim.Now();
    for (int i = 0; i < n; ++i) {
      uint64_t samples = 0;
      for (const uint64_t c : truth_counts[i]) {
        samples += c;
      }
      const FlowVerdict verdict =
          diag.ClosedVerdict(static_cast<uint64_t>(i + 1), /*from_a=*/true, now);
      if (verdict.epoch_end == now && samples > 0) {
        if (verdict.limit == FlowLimit::kIdle) {
          ++result.epochs_idle_skipped;
        } else {
          const FlowLimit truth = MajorityLabel(truth_counts[i].data());
          ++result.epochs_compared;
          ++result.confusion[static_cast<size_t>(truth)][static_cast<size_t>(verdict.limit)];
          ++truth_by_limit[static_cast<size_t>(truth)];
          ++inferred_by_limit[static_cast<size_t>(verdict.limit)];
          if (truth == verdict.limit) {
            ++result.epochs_correct;
            ++correct_by_limit[static_cast<size_t>(truth)];
          }
        }
      }
      truth_counts[i] = {};
    }
    if (now + config.diag.epoch <= measure_end) {
      sim.Schedule(config.diag.epoch, poll_tick);
    }
  };
  sim.ScheduleAt(TimePoint::FromNanos((first_closed_epoch + 1) * epoch_ns), poll_tick);

  // ---- Optional aligned inferred-vs-true series for flow 0 ----
  std::optional<TimeSeriesSampler> sampler;
  if (config.series_interval > Duration::Zero()) {
    sampler.emplace(&sim, config.series_interval);
    sampler->AddGauge("true_cwnd_bytes", [&] {
      return static_cast<double>(conns[0].a->congestion().cwnd_bytes());
    });
    sampler->AddGauge("inferred_cwnd_bytes", [&] {
      return static_cast<double>(diag.Peek(1, true).inferred_cwnd_bytes);
    });
    sampler->AddGauge("true_flight_bytes",
                      [&] { return static_cast<double>(conns[0].a->flight_bytes()); });
    sampler->AddGauge("inferred_flight_bytes", [&] {
      return static_cast<double>(diag.Peek(1, true).current_flight_bytes);
    });
    sampler->AddGauge("true_srtt_us", [&] {
      const std::optional<Duration> srtt = conns[0].a->rtt().srtt();
      return srtt.has_value() ? srtt->ToMicros() : 0.0;
    });
    sampler->AddGauge("inferred_srtt_us", [&] { return diag.Peek(1, true).srtt_us; });
    sampler->AddGauge("diag_verdict",
                      [&] { return static_cast<double>(diag.Peek(1, true).last_limit); });
    sampler->AddGauge("bottleneck_queue_bytes",
                      [&] { return static_cast<double>(bottleneck->queue_bytes()); });
    sampler->Start(measure_end);
  }

  std::vector<uint64_t> rx_at_start(static_cast<size_t>(n), 0);
  sim.ScheduleAt(measure_start, [&] { rx_at_start = rx_bytes; });

  sim.RunUntil(measure_end);

  // ---- Score ----
  if (result.epochs_compared > 0) {
    result.accuracy = static_cast<double>(result.epochs_correct) /
                      static_cast<double>(result.epochs_compared);
    for (size_t l = 0; l < kNumFlowLimits; ++l) {
      result.inferred_dwell[l] = static_cast<double>(inferred_by_limit[l]) /
                                 static_cast<double>(result.epochs_compared);
      result.truth_dwell[l] = static_cast<double>(truth_by_limit[l]) /
                              static_cast<double>(result.epochs_compared);
    }
  }
  result.mean_true_cwnd_bytes = true_cwnd.mean();
  result.mean_inferred_cwnd_bytes = inferred_cwnd.mean();
  result.cwnd_err_pct = cwnd_err.mean();
  result.mean_true_srtt_us = true_rtt.mean();
  result.mean_inferred_srtt_us = inferred_rtt.mean();
  result.rtt_err_pct = rtt_err.mean();

  for (int i = 0; i < n; ++i) {
    if (const FlowDiagCounters* c = diag.CountersFor(static_cast<uint64_t>(i + 1), true)) {
      result.rtt_samples += c->rtt_samples;
      result.diag_retransmits += c->retransmits;
      result.diag_drops += c->drops;
      result.diag_ce_marked += c->ce_marked;
      result.diag_ece_acks += c->ece_acks;
      result.diag_zero_window_acks += c->zero_window_acks;
    }
    result.true_retransmits += conns[i].a->stats().retransmits;
    result.aggregate_goodput_bps +=
        static_cast<double>(rx_bytes[i] - rx_at_start[i]) * 8.0 / config.measure.ToSeconds();
  }
  result.non_tcp_packets = diag.non_tcp_packets();
  result.untracked_packets = diag.untracked_packets();
  for (const auto& [port, tally] : diag.port_tallies()) {
    result.port_tallies.emplace_back(port, tally);
  }
  if (sampler.has_value()) {
    result.series = std::make_shared<const TimeSeries>(sampler->TakeSeries());
  }
  return result;
}

DiagnosisFallbackResult RunDiagnosisFallback(const DiagnosisFallbackConfig& config) {
  // One client, one server, one switch: the smallest fabric with an
  // in-network vantage point.
  FabricConfig fabric = FleetExperimentConfig::DefaultFleetFabric(1);
  fabric.seed = config.seed;
  FabricTopology topo(fabric);
  Simulator& sim = topo.sim();

  TcpConfig client_tcp = RedisExperimentConfig::DefaultClientTcp();
  TcpConfig server_tcp = RedisExperimentConfig::DefaultServerTcp();
  client_tcp.e2e_exchange_interval = config.exchange_interval;
  server_tcp.e2e_exchange_interval = config.exchange_interval;

  const uint64_t conn_id = 1;
  ConnectedPair conn = topo.Connect(0, 0, conn_id, client_tcp, server_tcp);
  TcpEndpoint* server_ep = conn.b;

  RedisServerApp::Config server_config;
  server_config.costs = config.server_costs;
  RedisServerApp server(&sim, conn.b, server_config);
  if (config.prefill_store) {
    for (uint64_t key = 0; key < config.mix.key_space; ++key) {
      server.mutable_store().Set(key, config.mix.get_value_len);
    }
  }

  // ---- Scripted metadata-withhold windows ----
  const TimePoint start = sim.Now();
  FaultSchedule schedule;
  std::vector<std::pair<TimePoint, TimePoint>> windows;
  for (int k = 0; k < config.withhold_count; ++k) {
    const TimePoint at = start + config.withhold_start + config.withhold_period * k;
    schedule.Add(FaultKind::kMetaWithhold, at, config.withhold_duration);
    windows.emplace_back(at, at + config.withhold_duration);
  }
  FaultTargets targets;
  targets.client_host = &topo.client_host(0);
  targets.server_host = &topo.server_host(0);
  FaultInjector injector(&sim, schedule, targets);
  server_ep->SetMetadataFilter(injector.MakeMetadataFilter());

  EstimatorHealth health(config.health, sim.Now());
  server_ep->SetEstimateCallback([&](const ConnectionEstimator& est) {
    health.OnExchange(sim.Now(), est.last_verdict());
  });

  // ---- The diagnoser: attached in both arms (passive either way, so the
  // A and B runs see byte-identical traffic); only the signal wiring
  // differs. Fresh in either direction counts — a request-quiet flow whose
  // responses still transit is just as alive.
  FlowDiagnoser diag(&sim, config.diag);
  topo.server_switch()->SetTap(&diag);
  if (config.use_diag) {
    health.SetDiagSignal([&diag, conn_id](TimePoint now) {
      return diag.Fresh(conn_id, true, now) || diag.Fresh(conn_id, false, now);
    });
  }

  // ---- Client ----
  LancetClient::Config client_config;
  client_config.rate_rps = config.rate_rps;
  client_config.mix = config.mix;
  client_config.costs = config.client_costs;
  client_config.warmup = config.warmup;
  client_config.measure = config.measure;
  client_config.seed = config.seed;
  client_config.use_hints = config.client_hints;
  LancetClient client(&sim, conn.a, client_config);

  const TimePoint measure_start = start + config.warmup;
  const TimePoint measure_end = measure_start + config.measure;
  const TimePoint run_end = measure_end + config.drain;

  // ---- Controller + fallback chain (robustness.cc's ladder, minus the
  // crash/reconnect machinery: withholds never kill the transport) ----
  SloThroughputPolicy policy(config.slo);
  ToggleController toggle(config.controller, &policy, Rng(config.seed + 7),
                          /*initial_on=*/false);
  DiagnosisFallbackResult result;
  std::function<void()> control_tick = [&] {
    const TimePoint now = sim.Now();
    health.Tick(now, server_ep->last_rx());

    std::optional<PerfSample> sample;
    bool force_static = false;
    switch (health.state()) {
      case HealthState::kFull: {
        // Single connection: the estimator's own aggregate is the fleet
        // aggregate; consume it directly.
        if (server_ep->estimator().has_estimate()) {
          const E2eEstimate est = server_ep->estimator().estimate();
          if (est.valid()) {
            sample = PerfSample{*est.latency, est.a_send_throughput};
          }
        }
        break;
      }
      case HealthState::kLocalOnly:
      case HealthState::kDiagAssisted: {
        // Peer counters untrusted (kLocalOnly) or dead-but-vouched-for
        // (kDiagAssisted): estimate from the server's own queues only.
        const E2eEstimate local =
            server_ep->estimator().LocalOnlyEstimate(server_ep->queues(), now);
        if (local.valid()) {
          sample = PerfSample{*local.latency, local.a_send_throughput};
        }
        break;
      }
      case HealthState::kStatic:
        force_static = true;
        break;
    }

    if (sample.has_value() &&
        (!std::isfinite(sample->latency.ToMicros()) || !std::isfinite(sample->throughput))) {
      ++result.non_finite_samples;
      sample.reset();
    }

    const bool was_frozen = toggle.frozen();
    if (force_static && !was_frozen) {
      toggle.SetFrozen(true, now);
    } else if (!force_static && was_frozen) {
      toggle.SetFrozen(false, now);
    }
    const bool on = toggle.OnTick(now, sample);
    server_ep->SetNoDelay(force_static ? true : !on);

    if (now >= measure_start && now < measure_end) {
      ++result.ticks;
      result.frozen_ticks += toggle.frozen() ? 1 : 0;
    }
    if (now + config.controller.tick < run_end) {
      sim.Schedule(config.controller.tick, control_tick);
    }
  };
  sim.Schedule(config.controller.tick, control_tick);

  // ---- Optional gauges ----
  std::optional<TimeSeriesSampler> sampler;
  if (config.series_interval > Duration::Zero()) {
    sampler.emplace(&sim, config.series_interval);
    sampler->AddGauge("health_state", [&] { return static_cast<double>(health.state()); });
    sampler->AddGauge("controller_frozen", [&] { return toggle.frozen() ? 1.0 : 0.0; });
    sampler->AddGauge("diag_fresh", [&] {
      return (diag.Fresh(conn_id, true, sim.Now()) || diag.Fresh(conn_id, false, sim.Now()))
                 ? 1.0
                 : 0.0;
    });
    sampler->AddGauge("diag_flight_bytes", [&] {
      return static_cast<double>(diag.Peek(conn_id, true).current_flight_bytes);
    });
    sampler->Start(run_end);
  }

  injector.Arm();
  client.Start();
  sim.RunUntil(run_end);

  // ---- Results ----
  result.offered_krps = config.rate_rps / 1e3;
  const LancetClient::Results& lancet = client.results();
  result.achieved_krps = lancet.achieved_rps / 1e3;
  result.measured_mean_us = lancet.latency_us.mean();
  result.measured_p99_us = lancet.latency_hist.Percentile(99);
  result.requests_completed = lancet.measured;

  result.time_in_full_ms = health.TimeIn(HealthState::kFull, sim.Now()).ToMicros() / 1e3;
  result.time_in_local_ms = health.TimeIn(HealthState::kLocalOnly, sim.Now()).ToMicros() / 1e3;
  result.time_in_diag_ms =
      health.TimeIn(HealthState::kDiagAssisted, sim.Now()).ToMicros() / 1e3;
  result.time_in_static_ms = health.TimeIn(HealthState::kStatic, sim.Now()).ToMicros() / 1e3;

  // Dwell intersected with the scheduled withhold windows, from the
  // transition log (append a sentinel closing the final open span).
  std::vector<std::pair<TimePoint, HealthState>> spans = health.transitions();
  spans.emplace_back(sim.Now(), health.state());
  for (const auto& [wstart, wend] : windows) {
    result.withhold_total_ms += (wend - wstart).ToMicros() / 1e3;
    for (size_t i = 0; i + 1 < spans.size(); ++i) {
      const TimePoint s0 = std::max(spans[i].first, wstart);
      const TimePoint s1 = std::min(spans[i + 1].first, wend);
      if (s1 <= s0) {
        continue;
      }
      const double overlap_ms = (s1 - s0).ToMicros() / 1e3;
      if (spans[i].second == HealthState::kStatic) {
        result.static_in_withhold_ms += overlap_ms;
      } else if (spans[i].second == HealthState::kDiagAssisted) {
        result.diag_in_withhold_ms += overlap_ms;
      }
    }
  }

  result.health = health.counters();
  result.faults = injector.counters();
  for (const bool dir : {true, false}) {
    if (const FlowDiagCounters* c = diag.CountersFor(conn_id, dir)) {
      result.diag_data_packets += c->data_packets;
      result.diag_rtt_samples += c->rtt_samples;
    }
  }
  if (sampler.has_value()) {
    result.series = std::make_shared<const TimeSeries>(sampler->TakeSeries());
  }
  return result;
}

}  // namespace e2e
