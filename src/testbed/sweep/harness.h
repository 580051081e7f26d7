// Sweep harness (DESIGN.md §12): the arguments, output files and same-seed
// check every sweep binary shares. Each binary keeps its own grid, commits,
// gates and JSON fields. Trace and series summaries go to stderr, so a
// sweep's stdout and JSON are byte-identical with and without them.

#ifndef SRC_TESTBED_SWEEP_HARNESS_H_
#define SRC_TESTBED_SWEEP_HARNESS_H_

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>

#include "src/obs/timeseries.h"
#include "src/obs/trace.h"

namespace e2e {

// The flags a sweep binary may accept; OR them into ParseSweepArgs's
// `accepted` mask.
enum SweepFlag : unsigned {
  kSweepSmoke = 1u << 0,      // --smoke
  kSweepJobs = 1u << 1,       // --jobs=N (0 = all cores)
  kSweepShards = 1u << 2,     // --shards=N
  kSweepTrace = 1u << 3,      // --trace=path
  kSweepSeries = 1u << 4,     // --series=path
  kSweepLeafSpine = 1u << 5,  // --leafspine
};

// Parsed arguments. The caller sets its defaults before parsing; a flag
// that is not given leaves its field untouched.
struct SweepArgs {
  bool smoke = false;
  bool leafspine = false;
  int jobs = 1;
  int shards = 0;
  int min_shards = 0;  // --shards= below this is invalid.
  const char* json_path = nullptr;  // Positional; the last one wins.
  const char* trace_path = nullptr;
  const char* series_path = nullptr;
};

// Parses argv[1..argc). Returns false after printing "invalid <arg>" to
// stderr for the first argument that is a flag outside `accepted`, an
// unknown "--" argument, or a --jobs=/--shards= value that is malformed,
// negative, too large for an int or below `min_shards`; the caller exits
// 1. Any other argument, "-" included, is the JSON output path.
bool ParseSweepArgs(int argc, const char* const* argv, unsigned accepted, SweepArgs* args);

// The JSON report's stream: stdout when `path` is null, else the file,
// closed on destruction. get() is null when the file cannot be opened;
// the constructor has then printed "cannot open <path>".
class JsonOutputFile {
 public:
  explicit JsonOutputFile(const char* path);
  ~JsonOutputFile();
  JsonOutputFile(const JsonOutputFile&) = delete;
  JsonOutputFile& operator=(const JsonOutputFile&) = delete;

  FILE* get() const { return file_; }

 private:
  FILE* file_;
};

// Owns the --trace= recorder: present iff a trace path was given.
class SweepTrace {
 public:
  explicit SweepTrace(const char* path);

  // What the traced cell's body binds with ScopedTrace: the recorder for
  // that one cell, null for every other cell or when tracing is off. The
  // binding is thread-local, so this composes with --jobs > 1.
  TraceRecorder* For(bool traced_cell) {
    return traced_cell && recorder_.has_value() ? &*recorder_ : nullptr;
  }

  // Writes the Chrome trace-event file and a one-line summary to stderr.
  // Returns false after printing "cannot write <path>"; true when tracing
  // is off.
  bool Write() const;

 private:
  const char* path_;
  std::optional<TraceRecorder> recorder_;
};

// Writes a --series= file and a one-line summary to stderr. Returns false
// after printing "cannot write <path>" when `series` is null or the write
// fails.
bool WriteSeriesFile(const std::shared_ptr<const TimeSeries>& series, const char* path);

// Runs `config` twice and compares the two results with `same`, the
// sweep's own equality predicate. Same-seed runs must agree bit for bit;
// drift means a component broke the keyed-seed contract
// (fabric_topology.h) or read a wall clock. Divergence prints "FATAL:
// same-seed <what> diverged" and aborts; agreement prints "determinism
// check: two same-seed <shown> identical" to stdout.
template <typename Config, typename Run, typename Same>
void CheckSameSeed(const Config& config, Run run, Same same, const char* what,
                   const char* shown = "runs") {
  const auto first = run(config);
  if (!same(first, run(config))) {
    std::fprintf(stderr, "FATAL: same-seed %s diverged\n", what);
    std::abort();
  }
  std::printf("determinism check: two same-seed %s identical\n", shown);
}

}  // namespace e2e

#endif  // SRC_TESTBED_SWEEP_HARNESS_H_
