// Robustness sweep: fault scenario x fallback chain on/off.
//
// Each cell runs the Redis/Lancet dynamic-toggle experiment under a
// scripted fault schedule (src/testbed/faults) twice — once with the
// estimator-health fallback chain (src/core/health.h) enabled, once with
// the legacy staleness-blind pipeline — and reports estimator error,
// controller behavior, health-state dwell times, time-to-detect /
// time-to-recover, and the controller's *regret* vs. the same-seed
// no-fault baseline (SLO-throughput policy score difference; positive =
// the faults cost performance).
//
// Hard checks (abort on violation):
//   * no non-finite sample ever reaches BatchPolicy::Score,
//   * fault counters match the injected schedule exactly,
//   * under the metadata-withhold scenario the fallback-enabled run's
//     regret is strictly lower than the fallback-disabled run's,
//   * the ack_storm cell (reverse-path blackouts) completes requests with a
//     p99 at least 2x the no-fault baseline (the storm visibly bites) while
//     causing zero health demotions (the health chain's metadata feed rides
//     the clean forward path and must not be shaken by reverse-only loss).
//
// Usage: robustness_sweep [--smoke] [--jobs=N] [--trace=trace.json] [--series=out.csv]
//                         [out.json]
//   --smoke   short windows (CI); also runs the first cell twice and aborts
//             on any divergence.
//   --jobs=N  run the independent cells on N worker threads (0 = all cores).
//             Results commit in cell order, so stdout and out.json are
//             byte-identical to --jobs=1 (DESIGN.md §12; CI compares them).
//   --trace=  record the meta_withhold/fallback-on cell with the sim-time
//             tracer and write Chrome trace-event JSON there (DESIGN.md §11).
//   --series= sample that same cell's gauges every 1 ms and write the
//             aligned series there (CSV, or JSON with a .json suffix).
//
// Observation is passive: the sweep's stdout and out.json are byte-identical
// with and without --trace/--series (CI compares them). Tracing binds the
// recorder thread-locally inside the traced cell's body, so it composes
// with --jobs > 1.
//
// JSON uses fixed-width formatting only: two same-seed runs are
// byte-identical (the determinism contract; see DESIGN.md §9).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "src/core/policy.h"
#include "src/testbed/report.h"
#include "src/testbed/robustness.h"
#include "src/testbed/sweep/executor.h"
#include "src/testbed/sweep/harness.h"

namespace e2e {
namespace {

constexpr uint64_t kSeed = 1709;

enum class Scenario {
  kNone = 0,       // No faults: the regret baseline.
  kMetaWithhold,   // Metadata withheld ~20% of the run (two long windows).
  kMetaReplay,     // Stale-replay windows of the same shape.
  kServerStall,    // Periodic 5 ms server freezes (VM preemption / GC).
  kCrash,          // One server crash + restart mid-measurement.
  kMixed,          // Withhold + stalls + crash together.
  kAckStorm,       // Server->client blackouts (20 ms on / 20 ms off): acks,
                   // responses, and the server's outbound metadata all share
                   // the storm; the forward path stays clean.
};

const char* ScenarioName(Scenario s) {
  switch (s) {
    case Scenario::kNone:
      return "none";
    case Scenario::kMetaWithhold:
      return "meta_withhold";
    case Scenario::kMetaReplay:
      return "meta_replay";
    case Scenario::kServerStall:
      return "server_stall";
    case Scenario::kCrash:
      return "crash";
    case Scenario::kMixed:
      return "mixed";
    case Scenario::kAckStorm:
      return "ack_storm";
  }
  return "?";
}

RobustnessConfig MakeConfig(Scenario scenario, bool fallback, bool smoke) {
  RobustnessConfig config;
  config.seed = kSeed;
  config.fallback_enabled = fallback;
  config.rate_rps = 20000;
  if (smoke) {
    config.warmup = Duration::Millis(50);
    config.measure = Duration::Millis(150);
  }
  // Controller tuned for regime changes: a short veto memory plus eager
  // staleness re-exploration means the batching arm is re-trialed every
  // ~30 ms instead of being write-protected by a 200 ms-old bad
  // observation. That is the honest operating point for the fault A/B —
  // a controller that never re-explores is trivially immune to estimate
  // poisoning and trivially unable to adapt.
  config.controller.veto_memory = Duration::Millis(25);
  config.controller.stale_after = Duration::Millis(30);

  const TimePoint ms = TimePoint::Zero() + config.warmup;  // Measure start.
  const Duration measure = config.measure;

  // Metadata fault window: one contiguous blackout of 20% of the measure
  // span (120 ms full / 30 ms smoke) — long enough to exceed the health
  // freshness bound, walk the fallback chain, and cover at least one
  // staleness-forced re-exploration of the batching arm.
  const Duration meta_window = Duration::MicrosF(measure.ToMicros() * 0.20);
  const TimePoint meta1 = ms + Duration::MicrosF(measure.ToMicros() * 0.40);

  switch (scenario) {
    case Scenario::kNone:
      break;
    case Scenario::kMetaWithhold:
      config.faults.Add(FaultKind::kMetaWithhold, meta1, meta_window);
      break;
    case Scenario::kMetaReplay:
      config.faults.Add(FaultKind::kMetaStaleReplay, meta1, meta_window);
      break;
    case Scenario::kServerStall:
      config.faults.Periodic(FaultKind::kServerStall, ms + Duration::Millis(10), ms + measure,
                             Duration::Millis(50), Duration::Millis(5));
      break;
    case Scenario::kCrash:
      config.faults.Add(FaultKind::kServerCrash,
                        ms + Duration::MicrosF(measure.ToMicros() * 0.33),
                        Duration::Millis(20));
      break;
    case Scenario::kMixed:
      config.faults.Add(FaultKind::kMetaWithhold, meta1, meta_window);
      config.faults.Periodic(FaultKind::kServerStall, ms + Duration::Millis(10), ms + measure,
                             Duration::Millis(50), Duration::Millis(5));
      config.faults.Add(FaultKind::kServerCrash,
                        ms + Duration::MicrosF(measure.ToMicros() * 0.10),
                        Duration::Millis(20));
      break;
    case Scenario::kAckStorm: {
      // Not a scripted fault: a link schedule on the reverse direction
      // only. Wall-clock 20 ms blackouts every 40 ms — deliberately
      // time-based, not per-packet (a packet-counted burst never ends once
      // the storm collapses the packet rate). Acks, responses, and the
      // server's outbound metadata all share the storm while the forward
      // path stays clean — so the server-side estimator the health chain
      // monitors keeps receiving the client's payloads (on data, or on
      // exchange pure acks while the blackout holds requests unacked and
      // the client's queues keep moving). The cell's verdict checks both
      // halves: the storm must hammer tail latency, and must NOT shake the
      // health chain (DESIGN.md §15).
      LinkScheduleStep storm;
      storm.loss_probability = 0.999999;  // The loss model requires p < 1.
      LinkScheduleStep clear;
      clear.loss_probability = 0.0;
      int half_cycles = static_cast<int>(measure.ToMicros() / 20000);
      half_cycles += half_cycles % 2;  // End on a `clear` step.
      config.topology.s2c_impairment.schedule =
          LinkSchedule::SquareWave(ms + Duration::Millis(10), Duration::Millis(20),
                                   half_cycles, storm, clear);
      break;
    }
  }
  return config;
}

struct Cell {
  Scenario scenario;
  bool fallback;
  RobustnessResult result;
  double score = 0;   // SLO-throughput policy score of the run.
  double regret = 0;  // Baseline (same fallback, no faults) score - score.
};

double ScoreOf(const RobustnessResult& r, const Duration slo) {
  SloThroughputPolicy policy(slo);
  PerfSample sample;
  sample.latency = Duration::MicrosF(r.measured_mean_us);
  sample.throughput = r.achieved_krps * 1e3;
  return policy.Score(sample);
}

// Every injected event must be visible in the counters, exactly.
void CheckCountersMatchSchedule(const RobustnessConfig& config, const RobustnessResult& r) {
  const FaultSchedule& s = config.faults;
  bool ok = true;
  ok &= r.faults.client_stalls == s.CountOf(FaultKind::kClientStall);
  ok &= r.faults.server_stalls == s.CountOf(FaultKind::kServerStall);
  ok &= r.faults.crashes == s.CountOf(FaultKind::kServerCrash);
  ok &= r.faults.restarts == s.CountOf(FaultKind::kServerCrash);
  ok &= r.faults.meta_windows == s.CountOf(FaultKind::kMetaWithhold) +
                                     s.CountOf(FaultKind::kMetaDuplicate) +
                                     s.CountOf(FaultKind::kMetaStaleReplay);
  // A crash must close exactly one endpoint incarnation per crash, and the
  // client must come back for each restart.
  ok &= r.endpoints_closed == s.CountOf(FaultKind::kServerCrash);
  ok &= r.reconnects == s.CountOf(FaultKind::kServerCrash);
  if (!ok) {
    std::fprintf(stderr, "FATAL: fault counters do not match the injected schedule\n");
    std::abort();
  }
}

bool SameRobustnessRun(const RobustnessResult& a, const RobustnessResult& b) {
  return a.measured_mean_us == b.measured_mean_us && a.measured_p99_us == b.measured_p99_us &&
         a.requests_completed == b.requests_completed &&
         a.controller_switches == b.controller_switches &&
         a.health.demotions == b.health.demotions && a.health.promotions == b.health.promotions &&
         a.faults.payloads_withheld == b.faults.payloads_withheld &&
         a.reconnect_attempts == b.reconnect_attempts && a.frozen_ticks == b.frozen_ticks;
}

int Main(int argc, char** argv) {
  SweepArgs args;
  if (!ParseSweepArgs(argc, argv, kSweepSmoke | kSweepJobs | kSweepTrace | kSweepSeries, &args) ||
      !ProbeJsonOutput(args.json_path)) {
    return 1;
  }
  const bool smoke = args.smoke;

  PrintBanner("Robustness sweep: fault scenario x fallback chain");

  const std::vector<Scenario> scenarios =
      smoke ? std::vector<Scenario>{Scenario::kNone, Scenario::kMetaWithhold, Scenario::kCrash,
                                    Scenario::kAckStorm}
            : std::vector<Scenario>{Scenario::kNone, Scenario::kMetaWithhold,
                                    Scenario::kMetaReplay, Scenario::kServerStall,
                                    Scenario::kCrash, Scenario::kMixed, Scenario::kAckStorm};

  if (smoke) {
    CheckSameSeed(MakeConfig(Scenario::kMetaWithhold, /*fallback=*/true, smoke),
                  RunRobustnessExperiment, SameRobustnessRun, "robustness runs");
  }

  // Build the cell grid up front: each cell is an independent deterministic
  // simulation, so the executor can run them on a worker pool. Bodies only
  // fill their own cell slot; every check, score, and output byte happens in
  // the in-order commit, so --jobs=N output is byte-identical to --jobs=1.
  std::vector<Cell> cells;
  for (Scenario scenario : scenarios) {
    for (bool fallback : {true, false}) {
      Cell cell;
      cell.scenario = scenario;
      cell.fallback = fallback;
      cells.push_back(std::move(cell));
    }
  }
  std::vector<RobustnessConfig> configs(cells.size());

  Table table({"scenario", "fallback", "kRPS", "meas_us", "p99_us", "est_us", "switches",
               "frozen%", "full_ms", "static_ms", "detect_ms", "recover_ms", "regret"});
  double baseline_score[2] = {0, 0};
  double baseline_p99[2] = {0, 0};
  SweepTrace trace(args.trace_path);

  // The meta_withhold/fallback-on cell is the observability showcase: it
  // walks the whole fallback chain (exchange verdicts, demotions, freezes,
  // recovery), so --trace/--series capture that cell.
  const auto is_observed = [](const Cell& cell) {
    return cell.scenario == Scenario::kMetaWithhold && cell.fallback;
  };

  SweepExecutor executor(args.jobs);
  executor.Run(
      cells.size(),
      [&](size_t i) {
        Cell& cell = cells[i];
        RobustnessConfig config = MakeConfig(cell.scenario, cell.fallback, smoke);
        const bool observed_cell = is_observed(cell);
        if (observed_cell && args.series_path != nullptr) {
          config.series_interval = Duration::Millis(1);
        }
        configs[i] = config;
        // The trace binding is thread-local, so binding it here records
        // exactly this cell even when other cells run concurrently.
        ScopedTrace bind(trace.For(observed_cell));
        cell.result = RunRobustnessExperiment(config);
      },
      [&](size_t i) {
        Cell& cell = cells[i];
        const RobustnessResult& r = cell.result;
        if (r.non_finite_samples != 0) {
          std::fprintf(stderr, "FATAL: %llu non-finite samples reached the policy\n",
                       static_cast<unsigned long long>(r.non_finite_samples));
          std::abort();
        }
        CheckCountersMatchSchedule(configs[i], r);

        cell.score = ScoreOf(r, configs[i].slo);
        if (cell.scenario == Scenario::kNone) {
          baseline_score[cell.fallback ? 1 : 0] = cell.score;
          baseline_p99[cell.fallback ? 1 : 0] = r.measured_p99_us;
        }
        cell.regret = baseline_score[cell.fallback ? 1 : 0] - cell.score;

        const double frozen_pct =
            r.ticks > 0 ? 100.0 * static_cast<double>(r.frozen_ticks) / r.ticks : 0.0;
        table.Row()
            .Cell(ScenarioName(cell.scenario))
            .Cell(cell.fallback ? "on" : "off")
            .Num(r.achieved_krps, 1)
            .Num(r.measured_mean_us, 1)
            .Num(r.measured_p99_us, 1)
            .Num(r.online_est_us.value_or(0), 1)
            .Int(static_cast<int64_t>(r.controller_switches))
            .Num(frozen_pct, 1)
            .Num(r.time_in_full_ms, 1)
            .Num(r.time_in_static_ms, 1)
            .Num(r.time_to_detect_ms.value_or(0), 2)
            .Num(r.time_to_recover_ms.value_or(0), 2)
            .Num(cell.regret, 4);
      });
  const Cell& observed = *std::find_if(cells.begin(), cells.end(), is_observed);
  if (args.series_path != nullptr && !WriteSeriesFile(observed.result.series, args.series_path)) {
    return 1;
  }
  table.Print();

  // The headline A/B: with the metadata channel withheld 20% of the run,
  // the fallback chain must strictly reduce regret vs. flying blind.
  std::optional<double> regret_on, regret_off;
  for (const Cell& cell : cells) {
    if (cell.scenario == Scenario::kMetaWithhold) {
      (cell.fallback ? regret_on : regret_off) = cell.regret;
    }
  }
  if (regret_on.has_value() && regret_off.has_value()) {
    std::printf("\nmeta_withhold regret: fallback on %.4f vs off %.4f\n", *regret_on,
                *regret_off);
    if (!(*regret_on < *regret_off)) {
      std::fprintf(stderr, "FATAL: fallback chain did not reduce regret under withhold\n");
      std::abort();
    }
  }
  // The ack-storm verdict has two halves. (1) Survival with visible damage:
  // 20 ms blackouts must hammer the tail (each stalled response waits out a
  // blackout, so p99 lands at storm scale, far above baseline) yet never
  // deadlock the run. (2) Health isolation: the chain it watches is the
  // server-side estimator, whose inbound metadata rides the *clean* forward
  // path — the client keeps exchanging while anything it sent is unacked,
  // and once both sides fall quiet in the drain no segment arrives, which
  // health reads as idle, not stale — so a reverse-path-only storm must
  // NOT shake it into demotion.
  for (const Cell& cell : cells) {
    if (cell.scenario != Scenario::kAckStorm) {
      continue;
    }
    if (cell.result.requests_completed == 0 || cell.result.achieved_krps <= 0) {
      std::fprintf(stderr, "FATAL: ack_storm (fallback %s) made no progress\n",
                   cell.fallback ? "on" : "off");
      std::abort();
    }
    const double base_p99 = baseline_p99[cell.fallback ? 1 : 0];
    if (base_p99 > 0 && cell.result.measured_p99_us < 2.0 * base_p99) {
      std::fprintf(stderr,
                   "FATAL: ack_storm (fallback %s) p99 %.1fus did not degrade vs "
                   "baseline %.1fus — the storm schedule is not biting\n",
                   cell.fallback ? "on" : "off", cell.result.measured_p99_us, base_p99);
      std::abort();
    }
    if (cell.fallback && cell.result.health.demotions != 0) {
      std::fprintf(stderr,
                   "FATAL: reverse-only storm demoted health %llu times; the "
                   "forward-path metadata feed should have been untouched\n",
                   static_cast<unsigned long long>(cell.result.health.demotions));
      std::abort();
    }
  }

  std::printf(
      "\nWith the chain enabled the controller rides local-only estimates through\n"
      "metadata outages and freezes on the known-good static policy once health\n"
      "degrades fully; disabled, stale estimates keep feeding exploration.\n\n");

  if (!trace.Write()) {
    return 1;
  }

  const JsonOutputFile json_out(args.json_path);
  if (json_out.get() == nullptr) {
    return 1;
  }
  JsonWriter json(json_out.get());
  json.BeginObject();
  json.KV("bench", std::string("robustness_sweep"));
  json.KV("seed", kSeed);
  json.KV("smoke", static_cast<uint64_t>(smoke ? 1 : 0));
  json.Key("cells").BeginArray();
  for (const Cell& cell : cells) {
    const RobustnessResult& r = cell.result;
    json.BeginObject();
    json.KV("scenario", std::string(ScenarioName(cell.scenario)));
    json.KV("fallback", static_cast<uint64_t>(cell.fallback ? 1 : 0));
    json.KV("offered_krps", r.offered_krps, 2);
    json.KV("achieved_krps", r.achieved_krps, 2);
    json.KV("measured_mean_us", r.measured_mean_us, 2);
    json.KV("measured_p99_us", r.measured_p99_us, 2);
    json.KV("pre_fault_mean_us", r.pre_fault_mean_us, 2);
    json.KV("post_recovery_mean_us", r.post_recovery_mean_us, 2);
    json.KV("online_est_us", r.online_est_us, 2);
    json.KV("est_err_pre_pct", r.est_err_pre_pct, 2);
    json.KV("est_err_post_pct", r.est_err_post_pct, 2);
    json.KV("requests_completed", r.requests_completed);
    json.KV("controller_switches", r.controller_switches);
    json.KV("duty_cycle_on", r.duty_cycle_on, 4);
    json.KV("frozen_ticks", r.frozen_ticks);
    json.KV("non_finite_samples", r.non_finite_samples);
    json.KV("score", cell.score, 4);
    json.KV("regret", cell.regret, 4);
    json.KV("healthy_exchanges", r.health.healthy_exchanges);
    json.KV("rejected_exchanges", r.health.rejected_total());
    json.KV("health_demotions", r.health.demotions);
    json.KV("health_promotions", r.health.promotions);
    json.KV("connection_losses", r.health.connection_losses);
    json.KV("time_in_full_ms", r.time_in_full_ms, 2);
    json.KV("time_in_local_ms", r.time_in_local_ms, 2);
    json.KV("time_in_diag_ms", r.time_in_diag_ms, 2);
    json.KV("time_in_static_ms", r.time_in_static_ms, 2);
    json.KV("time_to_detect_ms", r.time_to_detect_ms, 3);
    json.KV("time_to_recover_ms", r.time_to_recover_ms, 3);
    json.KV("fault_client_stalls", r.faults.client_stalls);
    json.KV("fault_server_stalls", r.faults.server_stalls);
    json.KV("fault_crashes", r.faults.crashes);
    json.KV("fault_restarts", r.faults.restarts);
    json.KV("fault_meta_windows", r.faults.meta_windows);
    json.KV("payloads_withheld", r.faults.payloads_withheld);
    json.KV("payloads_duplicated", r.faults.payloads_duplicated);
    json.KV("payloads_replayed", r.faults.payloads_replayed);
    json.KV("estimator_rejected_payloads", r.estimator_rejected_payloads);
    json.KV("aggregator_stale_skips", r.aggregator_stale_skips);
    json.KV("endpoints_closed", r.endpoints_closed);
    json.KV("reconnect_attempts", r.reconnect_attempts);
    json.KV("reconnects", r.reconnects);
    json.KV("failed_disconnected", r.failed_disconnected);
    json.KV("abandoned_on_crash", r.abandoned_on_crash);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  json.Finish();
  return 0;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) { return e2e::Main(argc, argv); }
