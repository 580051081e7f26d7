// Deterministic sim-time tracing (DESIGN.md §11).
//
// A `TraceRecorder` collects typed instants and spans — packet tx/rx/drop,
// send/recv syscalls, queue Track deltas, estimator snapshot exchanges with
// the computed end-to-end latency L, health transitions, and controller
// decisions — into a bounded ring buffer and exports them as Chrome
// trace-event JSON (loadable in chrome://tracing and Perfetto), one track
// per host/connection/component.
//
// Instrumentation contract: hooks throughout the stack read one global
// recorder pointer (the simulation is single-threaded). With no recorder
// bound — the default — every hook is a single null check and no allocation,
// formatting, or branching beyond it happens; same-seed runs with tracing
// off are byte-identical to runs of an uninstrumented build. Recording never
// mutates simulation state: events carry the virtual timestamp of the site
// that emitted them and the recorder does no scheduling of its own.

#ifndef SRC_OBS_TRACE_H_
#define SRC_OBS_TRACE_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/sim/time.h"

namespace e2e {

// Event categories, maskable per-recorder. Kept coarse on purpose: a mask
// bit decides whether a whole hook site runs, so categories map to hook
// cost tiers (kQueue and kPacket are the hot ones).
enum class TraceCategory : uint32_t {
  kPacket = 0,      // Wire-level tx/rx/drop (NIC + link).
  kSyscall = 1,     // Application send()/recv() calls.
  kQueue = 2,       // Monitored-queue Track deltas (unacked/unread/ackdelay).
  kEstimator = 3,   // Metadata snapshot exchange + computed L.
  kHealth = 4,      // Estimator-health state transitions.
  kController = 5,  // Batching-controller decisions (switch/explore/freeze).
  kDiag = 6,        // In-switch flow-diagnosis epoch verdicts.
};
inline constexpr size_t kNumTraceCategories = 7;

constexpr uint32_t TraceBit(TraceCategory c) { return 1u << static_cast<uint32_t>(c); }
inline constexpr uint32_t kTraceAll = (1u << kNumTraceCategories) - 1;

const char* TraceCategoryName(TraceCategory category);

// One trace event. Plain value type sized for a ring buffer: names and arg
// keys must be string literals (static storage duration); up to three
// numeric args ride along and become Chrome `args` entries.
struct TraceEvent {
  TimePoint time;
  Duration duration = Duration::Zero();  // Zero => instant, else a span.
  TraceCategory category = TraceCategory::kPacket;
  const char* name = "";
  uint32_t track = 0;  // From TraceRecorder::Track(); 0 = the default track.
  const char* k1 = nullptr;
  double v1 = 0;
  const char* k2 = nullptr;
  double v2 = 0;
  const char* k3 = nullptr;
  double v3 = 0;
};

class TraceRecorder {
 public:
  // `capacity` bounds memory: once full, the oldest events are overwritten
  // (the tail of a run is usually the interesting part). `mask` selects the
  // recorded categories.
  explicit TraceRecorder(size_t capacity = 1 << 16, uint32_t mask = kTraceAll);

  bool enabled(TraceCategory category) const { return (mask_ & TraceBit(category)) != 0; }
  uint32_t mask() const { return mask_; }

  // Returns a stable track id for `name`, creating it on first use. Tracks
  // render as named rows ("threads") in the trace viewer; conventionally
  // "<host>/<component>" or "conn<N>/<side>".
  uint32_t Track(const std::string& name);
  const std::vector<std::string>& track_names() const { return track_names_; }

  // Appends one event (dropping the oldest when the ring is full). The
  // category mask is honored here too, so call sites may skip the
  // enabled() pre-check when they are not on a hot path.
  void Record(const TraceEvent& event);

  // Events currently held, oldest first.
  std::vector<TraceEvent> Events() const;

  size_t size() const { return ring_.size(); }
  size_t capacity() const { return capacity_; }
  // Total events ever recorded / lost to ring overwrite.
  uint64_t recorded() const { return recorded_; }
  uint64_t overwritten() const { return overwritten_; }

  void Clear();

  // Chrome trace-event JSON ("JSON Object Format": {"traceEvents": [...]}).
  // Timestamps are virtual microseconds with fixed %.3f formatting, so equal
  // event streams serialize byte-identically. Instants use phase "i", spans
  // phase "X"; track names are emitted as thread_name metadata.
  void WriteChromeTrace(FILE* out) const;
  // Convenience: WriteChromeTrace to `path`. Returns false on I/O error.
  bool WriteChromeTraceFile(const std::string& path) const;

 private:
  size_t capacity_;
  uint32_t mask_;
  std::vector<TraceEvent> ring_;
  size_t head_ = 0;  // Index of the oldest event once the ring wrapped.
  uint64_t recorded_ = 0;
  uint64_t overwritten_ = 0;
  std::vector<std::string> track_names_;
  std::unordered_map<std::string, uint32_t> track_ids_;
};

// ---- Global binding ----
//
// Each simulation is single-threaded, so the active recorder is one pointer
// — thread-local, because the sweep executor (src/testbed/sweep) runs
// independent Simulators on worker threads. Benches/tests bind a recorder
// around a run (ScopedTrace) on the thread that runs it and the hooks
// compiled into sim/net/tcp/core pick it up; the default on every thread is
// nullptr and every hook reduces to one pointer load + compare. A recorder
// is never shared across threads: binding is per-thread, so a traced cell
// records only its own simulation no matter how many run concurrently.
// Inline in the header for the same reason as sim_internal::g_exec
// (src/sim/simulator.h): reads need no TLS-init call.

inline thread_local TraceRecorder* g_trace_recorder = nullptr;

inline TraceRecorder* CurrentTrace() { return g_trace_recorder; }
void SetCurrentTrace(TraceRecorder* recorder);

// The hook-site guard: non-null iff a recorder is bound AND records
// `category`. Usage:
//   if (TraceRecorder* tr = TraceIf(TraceCategory::kPacket)) { ... }
inline TraceRecorder* TraceIf(TraceCategory category) {
  TraceRecorder* r = g_trace_recorder;
  return (r != nullptr && r->enabled(category)) ? r : nullptr;
}

// Binds `recorder` for a scope (nullptr to force-disable), restoring the
// previous binding on destruction.
class ScopedTrace {
 public:
  explicit ScopedTrace(TraceRecorder* recorder) : prev_(g_trace_recorder) {
    SetCurrentTrace(recorder);
  }
  ~ScopedTrace() { SetCurrentTrace(prev_); }
  ScopedTrace(const ScopedTrace&) = delete;
  ScopedTrace& operator=(const ScopedTrace&) = delete;

 private:
  TraceRecorder* prev_;
};

}  // namespace e2e

#endif  // SRC_OBS_TRACE_H_
