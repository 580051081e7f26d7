// Diagnosis sweep: in-switch flow classification vs ground truth, plus the
// health-chain A/B that the diag signal exists to win.
//
// Validation cells run {network_bound, receiver_bound, sender_paced}
// scenarios over {dumbbell, incast-star} fabrics under {reno, cubic,
// dctcp}, scoring the FlowDiagnoser's per-epoch verdicts against a
// ground-truth labeler that reads the senders' real cwnd/rwnd/flight/
// recovery state in-sim (src/testbed/diagnosis). A/B cells run the Lancet/
// Redis fallback experiment under scripted metadata-withhold schedules,
// once with FlowDiagnoser::Fresh wired into the health chain and once
// without.
//
// Hard checks (abort on violation):
//   * every validation cell's classification accuracy >= 0.90,
//   * every validation cell compared a non-trivial number of epochs,
//   * no non-finite sample ever reaches BatchPolicy::Score,
//   * A/B fault counters match the injected schedule exactly,
//   * per schedule, the diag arm's frozen (kStatic) dwell inside the
//     withhold windows is strictly below the no-diag arm's, the diag arm
//     actually dwelt in kDiagAssisted, and the no-diag arm never did.
//
// Usage: diagnosis_sweep [--smoke] [--jobs=N] [--trace=trace.json]
//                        [--series=out.csv] [out.json]
//   --smoke   short windows + reduced grid (CI); also runs the first
//             validation cell and the first A/B cell twice and aborts on
//             divergence.
//   --jobs=N  run cells on N worker threads; results commit in cell order,
//             so output is byte-identical to --jobs=1 (CI compares them).
//   --trace=  record the network_bound/dumbbell/reno cell (diag verdict
//             events per epoch) as Chrome trace-event JSON.
//   --series= sample that cell's inferred-vs-true gauges every 1 ms.
//
// Observation is passive: stdout and out.json are byte-identical with and
// without --trace/--series, and --jobs=N equals --jobs=1 (CI compares).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/testbed/diagnosis/diagnosis.h"
#include "src/testbed/report.h"
#include "src/testbed/sweep/executor.h"
#include "src/testbed/sweep/harness.h"

namespace e2e {
namespace {

constexpr uint64_t kSeed = 4021;

const char* ShapeName(FabricShape shape) {
  return shape == FabricShape::kDumbbell ? "dumbbell" : "incast";
}

// ---- Validation grid ----

struct ValidationCell {
  DiagScenario scenario{};
  FabricShape shape{};
  CcAlgorithm cc{};
  DiagnosisValidationResult result;
};

DiagnosisValidationConfig MakeValidationConfig(const ValidationCell& cell, bool smoke) {
  DiagnosisValidationConfig config =
      DiagnosisValidationConfig::For(cell.scenario, cell.shape, cell.cc);
  config.seed = kSeed;
  if (smoke) {
    config.warmup = Duration::Millis(10);
    config.measure = Duration::Millis(60);
  }
  return config;
}

// ---- A/B grid ----

enum class WithholdSchedule {
  kTwoWindows = 0,  // Two 100 ms blackouts.
  kSingleLong,      // One 200 ms blackout.
  kFrequent,        // Four 70 ms blackouts, back to back-ish.
};

const char* ScheduleName(WithholdSchedule schedule) {
  switch (schedule) {
    case WithholdSchedule::kTwoWindows:
      return "two_windows";
    case WithholdSchedule::kSingleLong:
      return "single_long";
    case WithholdSchedule::kFrequent:
      return "frequent";
  }
  return "?";
}

struct AbCell {
  WithholdSchedule schedule{};
  bool use_diag = false;
  DiagnosisFallbackResult result;
};

DiagnosisFallbackConfig MakeAbConfig(const AbCell& cell, bool smoke) {
  DiagnosisFallbackConfig config;
  config.seed = kSeed;
  config.use_diag = cell.use_diag;
  if (smoke) {
    // Shorter run, one window sized so the no-diag arm still crosses
    // static_after with dwell to spare.
    config.warmup = Duration::Millis(60);
    config.measure = Duration::Millis(200);
    config.withhold_start = Duration::Millis(100);
    config.withhold_duration = Duration::Millis(90);
    config.withhold_period = Duration::Millis(120);
    config.withhold_count = 1;
    return config;
  }
  switch (cell.schedule) {
    case WithholdSchedule::kTwoWindows:
      break;  // The config defaults: 2 x 100 ms at 150/350 ms.
    case WithholdSchedule::kSingleLong:
      config.withhold_start = Duration::Millis(150);
      config.withhold_duration = Duration::Millis(200);
      config.withhold_count = 1;
      break;
    case WithholdSchedule::kFrequent:
      config.withhold_start = Duration::Millis(120);
      config.withhold_duration = Duration::Millis(70);
      config.withhold_period = Duration::Millis(90);
      config.withhold_count = 4;
      break;
  }
  return config;
}

bool SameValidationRun(const DiagnosisValidationResult& a, const DiagnosisValidationResult& b) {
  return a.epochs_compared == b.epochs_compared && a.epochs_correct == b.epochs_correct &&
         a.aggregate_goodput_bps == b.aggregate_goodput_bps && a.rtt_samples == b.rtt_samples &&
         a.diag_retransmits == b.diag_retransmits && a.diag_ce_marked == b.diag_ce_marked;
}

bool SameFallbackRun(const DiagnosisFallbackResult& a, const DiagnosisFallbackResult& b) {
  return a.requests_completed == b.requests_completed &&
         a.measured_mean_us == b.measured_mean_us && a.frozen_ticks == b.frozen_ticks &&
         a.static_in_withhold_ms == b.static_in_withhold_ms &&
         a.diag_in_withhold_ms == b.diag_in_withhold_ms &&
         a.health.demotions == b.health.demotions;
}

int Main(int argc, char** argv) {
  SweepArgs args;
  if (!ParseSweepArgs(argc, argv, kSweepSmoke | kSweepJobs | kSweepTrace | kSweepSeries, &args)) {
    return 1;
  }
  const bool smoke = args.smoke;

  PrintBanner("Diagnosis sweep: in-switch classification vs ground truth + health A/B");

  // Build both grids up front; each cell is an independent deterministic
  // simulation, so the executor can fan them out. Checks and output bytes
  // happen only in the in-order commit.
  std::vector<ValidationCell> vcells;
  const std::vector<CcAlgorithm> all_cc = {CcAlgorithm::kReno, CcAlgorithm::kCubic,
                                           CcAlgorithm::kDctcp};
  for (const DiagScenario scenario : {DiagScenario::kNetworkBound,
                                      DiagScenario::kReceiverBound,
                                      DiagScenario::kSenderPaced}) {
    for (const FabricShape shape : {FabricShape::kDumbbell, FabricShape::kStar}) {
      for (const CcAlgorithm cc : all_cc) {
        // Smoke keeps every scenario x shape, with the full CC list only
        // where CC actually shapes the verdict (network_bound).
        if (smoke && scenario != DiagScenario::kNetworkBound && cc != CcAlgorithm::kReno) {
          continue;
        }
        vcells.push_back(ValidationCell{scenario, shape, cc, {}});
      }
    }
  }
  std::vector<AbCell> abcells;
  const std::vector<WithholdSchedule> schedules =
      smoke ? std::vector<WithholdSchedule>{WithholdSchedule::kTwoWindows}
            : std::vector<WithholdSchedule>{WithholdSchedule::kTwoWindows,
                                            WithholdSchedule::kSingleLong,
                                            WithholdSchedule::kFrequent};
  for (const WithholdSchedule schedule : schedules) {
    for (const bool use_diag : {true, false}) {
      abcells.push_back(AbCell{schedule, use_diag, {}});
    }
  }

  if (smoke) {
    CheckSameSeed(MakeValidationConfig(vcells.front(), smoke), RunDiagnosisValidation,
                  SameValidationRun, "validation runs", "validation runs");
    CheckSameSeed(MakeAbConfig(abcells.front(), smoke), RunDiagnosisFallback, SameFallbackRun,
                  "fallback runs", "fallback runs");
  }

  // The network_bound/dumbbell/reno cell is the observability showcase: a
  // classic sawtooth whose inferred-vs-true cwnd/RTT series and per-epoch
  // verdict trace are worth looking at.
  const auto is_observed = [](const ValidationCell& cell) {
    return cell.scenario == DiagScenario::kNetworkBound &&
           cell.shape == FabricShape::kDumbbell && cell.cc == CcAlgorithm::kReno;
  };
  SweepTrace trace(args.trace_path);

  Table vtable({"scenario", "fabric", "cc", "flows", "acc%", "epochs", "idle", "net%", "rcv%",
                "snd%", "cwnd_err%", "rtt_err%", "rtt_n", "gbps"});
  Table abtable({"schedule", "diag", "kRPS", "meas_us", "frozen_ticks", "static_wh_ms",
                 "diag_wh_ms", "full_ms", "static_ms", "rescues", "dropouts"});

  const size_t total = vcells.size() + abcells.size();
  SweepExecutor executor(args.jobs);
  executor.Run(
      total,
      [&](size_t i) {
        if (i < vcells.size()) {
          ValidationCell& cell = vcells[i];
          DiagnosisValidationConfig config = MakeValidationConfig(cell, smoke);
          const bool observed_cell = is_observed(cell);
          if (observed_cell && args.series_path != nullptr) {
            config.series_interval = Duration::Millis(1);
          }
          ScopedTrace bind(trace.For(observed_cell));
          cell.result = RunDiagnosisValidation(config);
        } else {
          AbCell& cell = abcells[i - vcells.size()];
          cell.result = RunDiagnosisFallback(MakeAbConfig(cell, smoke));
        }
      },
      [&](size_t i) {
        if (i < vcells.size()) {
          ValidationCell& cell = vcells[i];
          const DiagnosisValidationResult& r = cell.result;
          if (r.epochs_compared < 20) {
            std::fprintf(stderr, "FATAL: %s/%s/%s compared only %llu epochs\n",
                         DiagScenarioName(cell.scenario), ShapeName(cell.shape),
                         CcAlgorithmName(cell.cc),
                         static_cast<unsigned long long>(r.epochs_compared));
            std::abort();
          }
          if (!(r.accuracy >= 0.90)) {
            std::fprintf(stderr, "FATAL: %s/%s/%s classification accuracy %.4f < 0.90\n",
                         DiagScenarioName(cell.scenario), ShapeName(cell.shape),
                         CcAlgorithmName(cell.cc), r.accuracy);
            std::abort();
          }
          vtable.Row()
              .Cell(DiagScenarioName(cell.scenario))
              .Cell(ShapeName(cell.shape))
              .Cell(CcAlgorithmName(cell.cc))
              .Int(static_cast<int64_t>(MakeValidationConfig(cell, smoke).num_flows))
              .Num(r.accuracy * 100.0, 1)
              .Int(static_cast<int64_t>(r.epochs_compared))
              .Int(static_cast<int64_t>(r.epochs_idle_skipped))
              .Num(r.inferred_dwell[static_cast<size_t>(FlowLimit::kNetwork)] * 100.0, 1)
              .Num(r.inferred_dwell[static_cast<size_t>(FlowLimit::kReceiver)] * 100.0, 1)
              .Num(r.inferred_dwell[static_cast<size_t>(FlowLimit::kSender)] * 100.0, 1)
              .Num(r.cwnd_err_pct, 1)
              .Num(r.rtt_err_pct, 1)
              .Int(static_cast<int64_t>(r.rtt_samples))
              .Num(r.aggregate_goodput_bps / 1e9, 2);
        } else {
          AbCell& cell = abcells[i - vcells.size()];
          const DiagnosisFallbackResult& r = cell.result;
          if (r.non_finite_samples != 0) {
            std::fprintf(stderr, "FATAL: %llu non-finite samples reached the policy\n",
                         static_cast<unsigned long long>(r.non_finite_samples));
            std::abort();
          }
          const DiagnosisFallbackConfig config = MakeAbConfig(cell, smoke);
          if (r.faults.meta_windows != static_cast<uint64_t>(config.withhold_count) ||
              r.faults.payloads_withheld == 0) {
            std::fprintf(stderr, "FATAL: withhold schedule not fully injected\n");
            std::abort();
          }
          abtable.Row()
              .Cell(ScheduleName(cell.schedule))
              .Cell(cell.use_diag ? "on" : "off")
              .Num(r.achieved_krps, 1)
              .Num(r.measured_mean_us, 1)
              .Int(static_cast<int64_t>(r.frozen_ticks))
              .Num(r.static_in_withhold_ms, 2)
              .Num(r.diag_in_withhold_ms, 2)
              .Num(r.time_in_full_ms, 1)
              .Num(r.time_in_static_ms, 1)
              .Int(static_cast<int64_t>(r.health.diag_rescues))
              .Int(static_cast<int64_t>(r.health.diag_dropouts));
        }
      });
  const ValidationCell& observed = *std::find_if(vcells.begin(), vcells.end(), is_observed);
  if (args.series_path != nullptr && !WriteSeriesFile(observed.result.series, args.series_path)) {
    return 1;
  }
  std::printf("\nvalidation: per-epoch diagnosis vs in-sim ground truth\n");
  vtable.Print();
  std::printf("\nfallback A/B: metadata withheld, diag signal on vs off\n");
  abtable.Print();

  // The headline: per schedule, wiring the diag signal must strictly
  // reduce frozen dwell inside the withhold windows, by actually parking
  // the chain in kDiagAssisted — and without the signal that state must be
  // unreachable.
  for (const WithholdSchedule schedule : schedules) {
    const AbCell* on = nullptr;
    const AbCell* off = nullptr;
    for (const AbCell& cell : abcells) {
      if (cell.schedule == schedule) {
        (cell.use_diag ? on : off) = &cell;
      }
    }
    std::printf("\n%s: static-in-withhold %.2f ms (diag) vs %.2f ms (no diag)\n",
                ScheduleName(schedule), on->result.static_in_withhold_ms,
                off->result.static_in_withhold_ms);
    if (!(on->result.static_in_withhold_ms < off->result.static_in_withhold_ms)) {
      std::fprintf(stderr, "FATAL: diag signal did not reduce frozen dwell (%s)\n",
                   ScheduleName(schedule));
      std::abort();
    }
    if (on->result.time_in_diag_ms <= 0 || off->result.time_in_diag_ms != 0) {
      std::fprintf(stderr, "FATAL: kDiagAssisted dwell inconsistent with signal wiring (%s)\n",
                   ScheduleName(schedule));
      std::abort();
    }
  }
  std::printf(
      "\nWith the in-switch diagnosis wired in, metadata blackouts bottom out in\n"
      "diag-assisted mode (local-only estimates keep flowing); without it the\n"
      "chain freezes on the static policy for the rest of each blackout.\n\n");

  if (!trace.Write()) {
    return 1;
  }

  const JsonOutputFile json_out(args.json_path);
  if (json_out.get() == nullptr) {
    return 1;
  }
  JsonWriter json(json_out.get());
  json.BeginObject();
  json.KV("bench", std::string("diagnosis_sweep"));
  json.KV("seed", kSeed);
  json.KV("smoke", static_cast<uint64_t>(smoke ? 1 : 0));
  json.Key("validation").BeginArray();
  for (const ValidationCell& cell : vcells) {
    const DiagnosisValidationResult& r = cell.result;
    json.BeginObject();
    json.KV("scenario", std::string(DiagScenarioName(cell.scenario)));
    json.KV("fabric", std::string(ShapeName(cell.shape)));
    json.KV("cc", std::string(CcAlgorithmName(cell.cc)));
    json.KV("accuracy", r.accuracy, 4);
    json.KV("epochs_compared", r.epochs_compared);
    json.KV("epochs_correct", r.epochs_correct);
    json.KV("epochs_idle_skipped", r.epochs_idle_skipped);
    json.Key("confusion").BeginArray();
    for (size_t t = 0; t < kNumFlowLimits; ++t) {
      json.BeginArray();
      for (size_t d = 0; d < kNumFlowLimits; ++d) {
        json.Uint(r.confusion[t][d]);
      }
      json.EndArray();
    }
    json.EndArray();
    json.Key("inferred_dwell").BeginArray();
    for (size_t l = 0; l < kNumFlowLimits; ++l) {
      json.Double(r.inferred_dwell[l], 4);
    }
    json.EndArray();
    json.Key("truth_dwell").BeginArray();
    for (size_t l = 0; l < kNumFlowLimits; ++l) {
      json.Double(r.truth_dwell[l], 4);
    }
    json.EndArray();
    json.KV("mean_true_cwnd_bytes", r.mean_true_cwnd_bytes, 1);
    json.KV("mean_inferred_cwnd_bytes", r.mean_inferred_cwnd_bytes, 1);
    json.KV("cwnd_err_pct", r.cwnd_err_pct, 2);
    json.KV("mean_true_srtt_us", r.mean_true_srtt_us, 2);
    json.KV("mean_inferred_srtt_us", r.mean_inferred_srtt_us, 2);
    json.KV("rtt_err_pct", r.rtt_err_pct, 2);
    json.KV("rtt_samples", r.rtt_samples);
    json.KV("diag_retransmits", r.diag_retransmits);
    json.KV("true_retransmits", r.true_retransmits);
    json.KV("diag_drops", r.diag_drops);
    json.KV("diag_ce_marked", r.diag_ce_marked);
    json.KV("diag_ece_acks", r.diag_ece_acks);
    json.KV("diag_zero_window_acks", r.diag_zero_window_acks);
    json.KV("non_tcp_packets", r.non_tcp_packets);
    json.KV("untracked_packets", r.untracked_packets);
    json.KV("goodput_gbps", r.aggregate_goodput_bps / 1e9, 3);
    json.Key("port_epochs").BeginArray();
    for (const auto& [port, tally] : r.port_tallies) {
      json.BeginObject();
      json.KV("port", port);
      json.Key("epochs_by_limit").BeginArray();
      for (size_t l = 0; l < kNumFlowLimits; ++l) {
        json.Uint(tally.epochs_by_limit[l]);
      }
      json.EndArray();
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();
  }
  json.EndArray();
  json.Key("ab").BeginArray();
  for (const AbCell& cell : abcells) {
    const DiagnosisFallbackResult& r = cell.result;
    json.BeginObject();
    json.KV("schedule", std::string(ScheduleName(cell.schedule)));
    json.KV("use_diag", static_cast<uint64_t>(cell.use_diag ? 1 : 0));
    json.KV("offered_krps", r.offered_krps, 2);
    json.KV("achieved_krps", r.achieved_krps, 2);
    json.KV("measured_mean_us", r.measured_mean_us, 2);
    json.KV("measured_p99_us", r.measured_p99_us, 2);
    json.KV("requests_completed", r.requests_completed);
    json.KV("ticks", r.ticks);
    json.KV("frozen_ticks", r.frozen_ticks);
    json.KV("non_finite_samples", r.non_finite_samples);
    json.KV("time_in_full_ms", r.time_in_full_ms, 2);
    json.KV("time_in_local_ms", r.time_in_local_ms, 2);
    json.KV("time_in_diag_ms", r.time_in_diag_ms, 2);
    json.KV("time_in_static_ms", r.time_in_static_ms, 2);
    json.KV("static_in_withhold_ms", r.static_in_withhold_ms, 2);
    json.KV("diag_in_withhold_ms", r.diag_in_withhold_ms, 2);
    json.KV("withhold_total_ms", r.withhold_total_ms, 2);
    json.KV("health_demotions", r.health.demotions);
    json.KV("health_promotions", r.health.promotions);
    json.KV("diag_rescues", r.health.diag_rescues);
    json.KV("diag_dropouts", r.health.diag_dropouts);
    json.KV("meta_windows", r.faults.meta_windows);
    json.KV("payloads_withheld", r.faults.payloads_withheld);
    json.KV("diag_data_packets", r.diag_data_packets);
    json.KV("diag_rtt_samples", r.diag_rtt_samples);
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
