// Shared plumbing of the repository benchmark: wall clocks, resident-set
// readings, medians, result fingerprints, the metric sink, and the span log
// the benchmark keeps around every call it makes into a layer.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline double NowSeconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Current resident set, from /proc/self/statm (0 where unavailable).
uint64_t RssBytes();
// Resident-set high-water mark of this process (VmHWM).
uint64_t PeakRssBytes();
// Hands free heap pages back to the kernel, so the next RSS delta counts
// what an allocation touches instead of what the allocator had cached.
void ReleaseFreeMemory();
// CPUs this process may run on (its affinity mask), as nproc reports.
int AvailableCpus();

double Median(std::vector<double> values);

// FNV-1a over the values a cell computed; the same seed must reproduce it.
class Fingerprint {
 public:
  Fingerprint& Add(uint64_t v) {
    hash_ ^= v;
    hash_ *= 1099511628211ull;
    return *this;
  }
  Fingerprint& Add(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    return Add(bits);
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 1469598103934665603ull;
};

// Named per-layer numbers; std::map keeps the printed order stable.
using Counters = std::map<std::string, double>;

// One recorded span: the benchmark's own timing of a call into a layer.
struct Span {
  std::string name;
  int parent = -1;  // Index of the enclosing span, -1 at top level.
  double start_s = 0;
  double end_s = 0;
};

// Spans are kept in memory and written out once, when the run ends.
class SpanLog {
 public:
  int Begin(std::string name) {
    spans_.push_back(Span{std::move(name), open_.empty() ? -1 : open_.back(), NowSeconds(), 0});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  double End() {
    Span& span = spans_[open_.back()];
    open_.pop_back();
    span.end_s = NowSeconds();
    return span.end_s - span.start_s;
  }
  // Writes the spans as a Chrome trace-event file. Returns false on I/O error.
  bool Write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// The machine and build every result is recorded with.
struct MachineShape {
  int nproc = 0;  // CPUs this process may run on.
  unsigned hardware_concurrency = 0;
  std::string cgroup_cpu_max;     // "max 100000" style; "unknown" when absent.
  double mem_total_mb = 0;        // /proc/meminfo MemTotal.
  std::string cgroup_memory_max;  // Bytes or "max"; "unknown" when absent.
  std::string compiler;
  std::string build_type;
  std::string cxx_flags;
  bool optimized = false;  // Compiled with optimization on.
};
MachineShape ReadMachineShape();

// Times one scope as a span.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name) : log_(log) { log_->Begin(std::move(name)); }
  ~ScopedSpan() {
    if (log_ != nullptr) {
      log_->End();
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  // Ends the span early and returns its duration in seconds.
  double Stop() {
    const double seconds = log_->End();
    log_ = nullptr;
    return seconds;
  }

 private:
  SpanLog* log_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
