// Recovery sweep: loss-recovery feature set x path impairment x congestion
// control, grading goodput, recovery latency, spurious retransmissions,
// RTT-estimation quality, and estimator-health dwell times (DESIGN.md §15).
//
// Modes:
//   cumack     the seed stack: cumulative acks, dup-ack==3 fast retransmit,
//              RTO go-back-N rewind.
//   sack       RFC 2018/6675: receiver SACK generation + sender scoreboard,
//              hole-by-hole repair, no RTO rewind.
//   sack_rack  sack + RFC 7323 timestamps + RACK/TLP time-based recovery.
//
// Paths: clean | fwd (Gilbert-Elliott burst loss on the data path) | rev
// (i.i.d. ack loss) | both. Two extra cells run the paced delayed-ack
// workload with mild data loss and grade SRTT error with timestamps on vs
// off (the Karn-starvation A/B).
//
// Hard checks (abort on violation):
//   * every data-loss cell: sack_rack goodput >= cumack goodput (same cc),
//   * every clean cell: zero sender retransmits and zero receiver
//     duplicate-data arrivals (no spurious recovery),
//   * the timestamps-on RTT cell's SRTT error is strictly below the
//     timestamps-off cell's,
//   * impaired directions actually dropped packets (the cell measured what
//     it claims to measure).
//
// Usage: recovery_sweep [--smoke] [--jobs=N] [out.json]
//   --smoke   short windows + reno only (CI); also runs the first cell
//             twice and aborts on any divergence.
//   --jobs=N  run cells on N worker threads (0 = all cores). Results commit
//             in cell order, so stdout and out.json are byte-identical to
//             --jobs=1 (DESIGN.md §12; CI compares them).
//
// JSON uses fixed-width formatting only: two same-seed runs are
// byte-identical (the determinism contract; see DESIGN.md §9).

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/testbed/recovery.h"
#include "src/testbed/report.h"
#include "src/testbed/sweep/executor.h"
#include "src/testbed/sweep/harness.h"

namespace e2e {
namespace {

constexpr uint64_t kSeed = 2117;

enum class Mode { kCumAck = 0, kSack = 1, kSackRack = 2 };
enum class Path { kClean = 0, kFwd = 1, kRev = 2, kBoth = 3 };

const char* ModeName(Mode m) {
  switch (m) {
    case Mode::kCumAck:
      return "cumack";
    case Mode::kSack:
      return "sack";
    case Mode::kSackRack:
      return "sack_rack";
  }
  return "?";
}

const char* PathName(Path p) {
  switch (p) {
    case Path::kClean:
      return "clean";
    case Path::kFwd:
      return "fwd";
    case Path::kRev:
      return "rev";
    case Path::kBoth:
      return "both";
  }
  return "?";
}

TcpFeatureConfig FeaturesOf(Mode mode) {
  TcpFeatureConfig f;
  switch (mode) {
    case Mode::kCumAck:
      break;
    case Mode::kSack:
      f.sack = true;
      break;
    case Mode::kSackRack:
      f.sack = true;
      f.rack = true;
      f.timestamps = true;
      break;
  }
  return f;
}

// Data-path loss storm: ~1.5% loss arriving in bursts of ~3 packets —
// exactly the shape dup-ack counting handles worst (a burst rarely leaves
// three duplicate acks behind it).
ImpairmentConfig FwdImpairment() {
  ImpairmentConfig imp;
  GilbertElliottConfig ge;
  ge.p_good_to_bad = 0.005;
  ge.p_bad_to_good = 0.33;
  ge.loss_bad = 1.0;
  imp.gilbert_elliott = ge;
  return imp;
}

// Ack-path thinning: cumulative acks are redundant, so this mostly stresses
// exchange freshness and window-update delivery.
ImpairmentConfig RevImpairment() {
  ImpairmentConfig imp;
  imp.iid_loss = 0.05;
  return imp;
}

struct Cell {
  Mode mode = Mode::kCumAck;
  Path path = Path::kClean;
  CcAlgorithm cc = CcAlgorithm::kReno;
  bool rtt_cell = false;  // Paced delayed-ack RTT A/B cell.
  bool rtt_ts_on = false;
  RecoveryResult result;
};

RecoveryConfig MakeConfig(const Cell& cell, bool smoke) {
  RecoveryConfig config;
  config.seed = kSeed;
  config.cc = cell.cc;
  if (smoke) {
    config.run = Duration::Millis(150);
  }
  if (cell.rtt_cell) {
    // Paced sub-MSS sends engage delayed acks; mild data loss gives the
    // timestamp path its Karn-safe in-recovery samples while starving the
    // seq-matching sampler. The exchange is off so pure-ack traffic does
    // not defeat the delayed-ack timer.
    config.workload = RecoveryWorkload::kPacedSmall;
    config.paced_interval = Duration::Millis(2);
    config.paced_bytes = 600;
    config.exchange_interval = Duration::Zero();
    config.features.sack = true;
    config.features.rack = true;
    config.features.timestamps = cell.rtt_ts_on;
    ImpairmentConfig imp;
    imp.iid_loss = 0.05;
    config.c2s_impairment = imp;
    config.run = smoke ? Duration::Millis(300) : Duration::Millis(500);
    return config;
  }
  config.features = FeaturesOf(cell.mode);
  if (cell.path == Path::kFwd || cell.path == Path::kBoth) {
    config.c2s_impairment = FwdImpairment();
  }
  if (cell.path == Path::kRev || cell.path == Path::kBoth) {
    config.s2c_impairment = RevImpairment();
  }
  return config;
}

bool SameRecoveryRun(const RecoveryResult& a, const RecoveryResult& b) {
  return a.bytes_delivered == b.bytes_delivered && a.retransmits == b.retransmits &&
         a.sack_retransmits == b.sack_retransmits && a.rack_marked_lost == b.rack_marked_lost &&
         a.tlp_probes == b.tlp_probes && a.rto_fires == b.rto_fires &&
         a.recovery_events == b.recovery_events &&
         a.dup_segments_received == b.dup_segments_received && a.srtt_us == b.srtt_us &&
         a.rtt_samples == b.rtt_samples && a.exchanges_received == b.exchanges_received &&
         a.c2s_dropped == b.c2s_dropped && a.s2c_dropped == b.s2c_dropped;
}

int Main(int argc, char** argv) {
  SweepArgs args;
  if (!ParseSweepArgs(argc, argv, kSweepSmoke | kSweepJobs, &args)) {
    return 1;
  }
  const bool smoke = args.smoke;

  PrintBanner("Recovery sweep: feature set x path impairment x congestion control");

  const std::vector<CcAlgorithm> ccs =
      smoke ? std::vector<CcAlgorithm>{CcAlgorithm::kReno}
            : std::vector<CcAlgorithm>{CcAlgorithm::kReno, CcAlgorithm::kCubic,
                                       CcAlgorithm::kDctcp};

  std::vector<Cell> cells;
  for (CcAlgorithm cc : ccs) {
    for (Path path : {Path::kClean, Path::kFwd, Path::kRev, Path::kBoth}) {
      for (Mode mode : {Mode::kCumAck, Mode::kSack, Mode::kSackRack}) {
        Cell cell;
        cell.mode = mode;
        cell.path = path;
        cell.cc = cc;
        cells.push_back(cell);
      }
    }
  }
  for (bool ts_on : {false, true}) {
    Cell cell;
    cell.rtt_cell = true;
    cell.rtt_ts_on = ts_on;
    cells.push_back(cell);
  }

  if (smoke) {
    CheckSameSeed(MakeConfig(cells.front(), smoke), RunRecoveryExperiment, SameRecoveryRun,
                  "recovery runs");
  }

  Table table({"mode", "path", "cc", "goodput_mbps", "retx", "sack_rtx", "rack_lost", "tlp",
               "rto", "recov", "recov_us", "dup_rx", "full_ms", "shed"});
  int failures = 0;
  // goodput[path][cc index] per mode, for the loss-cell gate.
  double cumack_goodput[4][3] = {};
  double rtt_err[2] = {-1, -1};  // [ts_off, ts_on]
  double rtt_base = -1;          // min(min_rtt) across the two RTT cells.

  SweepExecutor executor(args.jobs);
  executor.Run(
      cells.size(),
      [&](size_t i) { cells[i].result = RunRecoveryExperiment(MakeConfig(cells[i], smoke)); },
      [&](size_t i) {
        Cell& cell = cells[i];
        const RecoveryResult& r = cell.result;
        const size_t cc_idx = static_cast<size_t>(cell.cc);
        const uint64_t shed = r.sack_blocks_trimmed + r.exchange_deferrals + r.ts_omitted;

        table.Row()
            .Cell(cell.rtt_cell ? (cell.rtt_ts_on ? "rtt_ts_on" : "rtt_ts_off")
                                : ModeName(cell.mode))
            .Cell(cell.rtt_cell ? "fwd" : PathName(cell.path))
            .Cell(CcAlgorithmName(cell.cc))
            .Num(r.goodput_mbps, 2)
            .Int(static_cast<int64_t>(r.retransmits))
            .Int(static_cast<int64_t>(r.sack_retransmits))
            .Int(static_cast<int64_t>(r.rack_marked_lost))
            .Int(static_cast<int64_t>(r.tlp_probes))
            .Int(static_cast<int64_t>(r.rto_fires))
            .Int(static_cast<int64_t>(r.recovery_events))
            .Num(r.recovery_mean_us, 0)
            .Int(static_cast<int64_t>(r.dup_segments_received))
            .Num(r.time_in_full_ms, 1)
            .Int(static_cast<int64_t>(shed));

        if (cell.rtt_cell) {
          const double base = r.min_rtt_us;
          if (rtt_base < 0 || (base > 0 && base < rtt_base)) {
            rtt_base = base;
          }
          rtt_err[cell.rtt_ts_on ? 1 : 0] = r.srtt_us;
          return;
        }

        // Impairment sanity: an impaired direction must have dropped.
        const bool fwd_lossy = cell.path == Path::kFwd || cell.path == Path::kBoth;
        const bool rev_lossy = cell.path == Path::kRev || cell.path == Path::kBoth;
        if (fwd_lossy && r.c2s_dropped == 0) {
          std::fprintf(stderr, "FATAL: %s/%s/%s data path dropped nothing\n",
                       ModeName(cell.mode), PathName(cell.path), CcAlgorithmName(cell.cc));
          ++failures;
        }
        if (rev_lossy && r.s2c_dropped == 0) {
          std::fprintf(stderr, "FATAL: %s/%s/%s ack path dropped nothing\n",
                       ModeName(cell.mode), PathName(cell.path), CcAlgorithmName(cell.cc));
          ++failures;
        }

        // Clean path: nothing may look like recovery.
        if (cell.path == Path::kClean &&
            (r.retransmits != 0 || r.dup_segments_received != 0)) {
          std::fprintf(stderr, "FATAL: spurious recovery on clean path (%s/%s): retx=%llu dup_rx=%llu\n",
                       ModeName(cell.mode), CcAlgorithmName(cell.cc),
                       static_cast<unsigned long long>(r.retransmits),
                       static_cast<unsigned long long>(r.dup_segments_received));
          ++failures;
        }

        // Data-loss goodput gate: SACK+RACK must not lose to the seed stack.
        if (cell.mode == Mode::kCumAck) {
          cumack_goodput[static_cast<size_t>(cell.path)][cc_idx] = r.goodput_mbps;
        }
        if (cell.mode == Mode::kSackRack && fwd_lossy) {
          const double base = cumack_goodput[static_cast<size_t>(cell.path)][cc_idx];
          if (r.goodput_mbps < base) {
            std::fprintf(stderr,
                         "FATAL: sack_rack goodput %.2f < cumack %.2f on %s/%s\n",
                         r.goodput_mbps, base, PathName(cell.path), CcAlgorithmName(cell.cc));
            ++failures;
          }
        }
      });
  table.Print();

  // Timestamps A/B: the delayed-ack-inflated, Karn-starved sampler must
  // have strictly larger SRTT error than the per-ack timestamp sampler.
  if (rtt_err[0] >= 0 && rtt_err[1] >= 0 && rtt_base >= 0) {
    const double err_off = rtt_err[0] - rtt_base;
    const double err_on = rtt_err[1] - rtt_base;
    std::printf("\nSRTT error vs %.1f us path floor: timestamps off %.1f us, on %.1f us\n",
                rtt_base, err_off, err_on);
    if (!(err_on < err_off)) {
      std::fprintf(stderr, "FATAL: timestamps did not reduce SRTT error (%.1f vs %.1f)\n",
                   err_on, err_off);
      ++failures;
    }
  }
  if (failures != 0) {
    std::abort();
  }
  std::printf(
      "\nBurst loss rarely leaves three duplicate acks behind, so the seed stack\n"
      "waits out backed-off RTOs and rewinds; the scoreboard repairs holes\n"
      "individually and RACK converts reordering tolerance into time, not counts.\n\n");

  const JsonOutputFile json_out(args.json_path);
  if (json_out.get() == nullptr) {
    return 1;
  }
  JsonWriter json(json_out.get());
  json.BeginObject();
  json.KV("bench", std::string("recovery_sweep"));
  json.KV("seed", kSeed);
  json.KV("smoke", static_cast<uint64_t>(smoke ? 1 : 0));
  json.Key("cells").BeginArray();
  for (const Cell& cell : cells) {
    const RecoveryResult& r = cell.result;
    json.BeginObject();
    json.KV("mode", std::string(cell.rtt_cell ? (cell.rtt_ts_on ? "rtt_ts_on" : "rtt_ts_off")
                                              : ModeName(cell.mode)));
    json.KV("path", std::string(cell.rtt_cell ? "fwd" : PathName(cell.path)));
    json.KV("cc", std::string(CcAlgorithmName(cell.cc)));
    json.KV("goodput_mbps", r.goodput_mbps, 3);
    json.KV("bytes_delivered", r.bytes_delivered);
    json.KV("retransmits", r.retransmits);
    json.KV("sack_retransmits", r.sack_retransmits);
    json.KV("rack_marked_lost", r.rack_marked_lost);
    json.KV("spurious_loss_reverts", r.spurious_loss_reverts);
    json.KV("tlp_probes", r.tlp_probes);
    json.KV("rto_fires", r.rto_fires);
    json.KV("recovery_events", r.recovery_events);
    json.KV("recovery_mean_us", r.recovery_mean_us, 1);
    json.KV("dup_segments_received", r.dup_segments_received);
    json.KV("srtt_us", r.srtt_us, 1);
    json.KV("min_rtt_us", r.min_rtt_us, 1);
    json.KV("rtt_samples", static_cast<uint64_t>(r.rtt_samples));
    json.KV("rtt_ts_samples", r.rtt_ts_samples);
    json.KV("sack_blocks_sent", r.sack_blocks_sent);
    json.KV("sack_blocks_trimmed", r.sack_blocks_trimmed);
    json.KV("exchange_deferrals", r.exchange_deferrals);
    json.KV("ts_omitted", r.ts_omitted);
    json.KV("exchanges_sent", r.exchanges_sent);
    json.KV("exchanges_received", r.exchanges_received);
    json.KV("c2s_dropped", r.c2s_dropped);
    json.KV("s2c_dropped", r.s2c_dropped);
    json.KV("time_in_full_ms", r.time_in_full_ms, 2);
    json.KV("time_in_local_ms", r.time_in_local_ms, 2);
    json.KV("time_in_diag_ms", r.time_in_diag_ms, 2);
    json.KV("time_in_static_ms", r.time_in_static_ms, 2);
    json.KV("health_demotions", r.health_demotions);
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
