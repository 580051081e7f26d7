#include "src/testbed/sweep/harness.h"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <thread>

namespace e2e {
namespace {

// The value after `prefix` when `arg` starts with it, else null.
const char* ValueAfter(const char* arg, const char* prefix) {
  const size_t n = std::strlen(prefix);
  return std::strncmp(arg, prefix, n) == 0 ? arg + n : nullptr;
}

// A --jobs=/--shards= value: a whole decimal number that fits an int.
bool ParseCount(const char* value, int* count) {
  char* end = nullptr;
  errno = 0;
  const long parsed = std::strtol(value, &end, 10);
  if (*value == '\0' || *end != '\0' || errno != 0 || parsed < 0 ||
      parsed > std::numeric_limits<int>::max()) {
    return false;
  }
  *count = static_cast<int>(parsed);
  return true;
}

bool ParseArg(const char* arg, unsigned accepted, SweepArgs* args) {
  const char* value = nullptr;
  int count = 0;
  if ((accepted & kSweepSmoke) != 0 && std::strcmp(arg, "--smoke") == 0) {
    args->smoke = true;
  } else if ((accepted & kSweepLeafSpine) != 0 && std::strcmp(arg, "--leafspine") == 0) {
    args->leafspine = true;
  } else if ((accepted & kSweepJobs) != 0 && (value = ValueAfter(arg, "--jobs=")) != nullptr) {
    if (!ParseCount(value, &count)) {
      return false;
    }
    // 0 = all cores, and always at least one worker.
    const unsigned hw = std::thread::hardware_concurrency();
    args->jobs = count > 0 ? count : (hw > 0 ? static_cast<int>(hw) : 1);
  } else if ((accepted & kSweepShards) != 0 &&
             (value = ValueAfter(arg, "--shards=")) != nullptr) {
    if (!ParseCount(value, &count) || count < args->min_shards) {
      return false;
    }
    args->shards = count;
  } else if ((accepted & kSweepTrace) != 0 && (value = ValueAfter(arg, "--trace=")) != nullptr) {
    args->trace_path = value;
  } else if ((accepted & kSweepSeries) != 0 &&
             (value = ValueAfter(arg, "--series=")) != nullptr) {
    args->series_path = value;
  } else if (std::strncmp(arg, "--", 2) == 0) {
    return false;
  } else {
    args->json_path = arg;
  }
  return true;
}

}  // namespace

bool ParseSweepArgs(int argc, const char* const* argv, unsigned accepted, SweepArgs* args) {
  for (int i = 1; i < argc; ++i) {
    if (!ParseArg(argv[i], accepted, args)) {
      std::fprintf(stderr, "invalid %s\n", argv[i]);
      return false;
    }
  }
  return true;
}

bool ProbeJsonOutput(const char* path) {
  if (path == nullptr) {
    return true;
  }
  // Create the file exclusively and remove it again, or open the existing
  // one for appending: neither truncates anything.
  if (FILE* created = std::fopen(path, "wx")) {
    std::fclose(created);
    std::remove(path);
    return true;
  }
  if (errno == EEXIST) {
    if (FILE* existing = std::fopen(path, "a")) {
      std::fclose(existing);
      return true;
    }
  }
  std::fprintf(stderr, "cannot open %s\n", path);
  return false;
}

JsonOutputFile::JsonOutputFile(const char* path) : file_(stdout) {
  if (path != nullptr) {
    file_ = std::fopen(path, "w");
    if (file_ == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", path);
    }
  }
}

JsonOutputFile::~JsonOutputFile() {
  if (file_ != nullptr && file_ != stdout) {
    std::fclose(file_);
  }
}

SweepTrace::SweepTrace(const char* path) : path_(path) {
  if (path != nullptr) {
    recorder_.emplace(/*capacity=*/1 << 18);
  }
}

bool SweepTrace::Write() const {
  if (!recorder_.has_value()) {
    return true;
  }
  if (!recorder_->WriteChromeTraceFile(path_)) {
    std::fprintf(stderr, "cannot write %s\n", path_);
    return false;
  }
  std::fprintf(stderr, "trace: %llu events recorded (%llu overwritten) -> %s\n",
               static_cast<unsigned long long>(recorder_->recorded()),
               static_cast<unsigned long long>(recorder_->overwritten()), path_);
  return true;
}

bool WriteSeriesFile(const std::shared_ptr<const TimeSeries>& series, const char* path) {
  if (series == nullptr || !series->WriteFile(path)) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return false;
  }
  std::fprintf(stderr, "series: %zu samples -> %s\n", series->num_rows(), path);
  return true;
}

}  // namespace e2e
