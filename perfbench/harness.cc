#include "perfbench/harness.h"

#include <malloc.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <thread>

namespace perfbench {

namespace {

// First line of `path`, trimmed; `fallback` when unreadable.
std::string FirstLine(const char* path, const char* fallback) {
  std::ifstream in(path);
  std::string line;
  if (!in || !std::getline(in, line)) {
    return fallback;
  }
  while (!line.empty() && (line.back() == '\n' || line.back() == ' ')) {
    line.pop_back();
  }
  return line;
}

// The value in kB of `key` ("VmHWM:") in a /proc status-style file.
uint64_t ProcKb(const char* path, const char* key) {
  std::ifstream in(path);
  std::string line;
  const size_t key_len = std::char_traits<char>::length(key);
  while (std::getline(in, line)) {
    if (line.compare(0, key_len, key) == 0) {
      return std::stoull(line.substr(key_len));
    }
  }
  return 0;
}

}  // namespace

uint64_t RssBytes() {
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) {
    return 0;
  }
  long size_pages = 0;
  long rss_pages = 0;
  const int got = std::fscanf(f, "%ld %ld", &size_pages, &rss_pages);
  std::fclose(f);
  return got == 2 ? static_cast<uint64_t>(rss_pages) * static_cast<uint64_t>(sysconf(_SC_PAGESIZE))
                  : 0;
}

uint64_t PeakRssBytes() { return ProcKb("/proc/self/status", "VmHWM:") * 1024; }

void ReleaseFreeMemory() { malloc_trim(0); }

int AvailableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0 && CPU_COUNT(&set) > 0) {
    return CPU_COUNT(&set);
  }
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2;
}

bool SpanLog::Write(const std::string& path) const {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  const double origin = spans_.empty() ? 0 : spans_.front().start_s;
  std::fprintf(out, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "%s\n{\"ph\":\"X\",\"pid\":0,\"tid\":0,\"name\":\"%s\",\"ts\":%.3f,"
                 "\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d}}",
                 i == 0 ? "" : ",", s.name.c_str(), (s.start_s - origin) * 1e6,
                 (s.end_s - s.start_s) * 1e6, i, s.parent);
  }
  std::fprintf(out, "\n]}\n");
  const bool ok = std::ferror(out) == 0;
  std::fclose(out);
  return ok;
}

MachineShape ReadMachineShape() {
  MachineShape m;
  m.nproc = AvailableCpus();
  m.hardware_concurrency = std::thread::hardware_concurrency();
  m.cgroup_cpu_max = FirstLine("/sys/fs/cgroup/cpu.max", "");
  if (m.cgroup_cpu_max.empty()) {
    // cgroup v1: quota and period in separate files.
    const std::string quota = FirstLine("/sys/fs/cgroup/cpu/cpu.cfs_quota_us", "");
    const std::string period = FirstLine("/sys/fs/cgroup/cpu/cpu.cfs_period_us", "");
    m.cgroup_cpu_max = quota.empty() ? "unknown" : quota + " " + period;
  }
  m.mem_total_mb = static_cast<double>(ProcKb("/proc/meminfo", "MemTotal:")) / 1024.0;
  m.cgroup_memory_max = FirstLine("/sys/fs/cgroup/memory.max", "");
  if (m.cgroup_memory_max.empty()) {
    m.cgroup_memory_max = FirstLine("/sys/fs/cgroup/memory/memory.limit_in_bytes", "unknown");
  }
  m.compiler = PERFBENCH_COMPILER;
  m.build_type = PERFBENCH_BUILD_TYPE;
  m.cxx_flags = PERFBENCH_CXX_FLAGS;
#ifdef __OPTIMIZE__
  m.optimized = m.build_type == "Release" || m.build_type == "RelWithDebInfo";
#endif
  return m;
}

}  // namespace perfbench
