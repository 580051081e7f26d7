#include "src/obs/trace.h"

#include <cassert>

namespace e2e {

void SetCurrentTrace(TraceRecorder* recorder) { g_trace_recorder = recorder; }

const char* TraceCategoryName(TraceCategory category) {
  switch (category) {
    case TraceCategory::kPacket:
      return "packet";
    case TraceCategory::kSyscall:
      return "syscall";
    case TraceCategory::kQueue:
      return "queue";
    case TraceCategory::kEstimator:
      return "estimator";
    case TraceCategory::kHealth:
      return "health";
    case TraceCategory::kController:
      return "controller";
    case TraceCategory::kDiag:
      return "diag";
  }
  return "?";
}

TraceRecorder::TraceRecorder(size_t capacity, uint32_t mask)
    : capacity_(capacity), mask_(mask) {
  assert(capacity_ > 0);
  ring_.reserve(capacity_);
}

uint32_t TraceRecorder::Track(const std::string& name) {
  const auto it = track_ids_.find(name);
  if (it != track_ids_.end()) {
    return it->second;
  }
  const uint32_t id = static_cast<uint32_t>(track_names_.size()) + 1;
  track_names_.push_back(name);
  track_ids_.emplace(name, id);
  return id;
}

void TraceRecorder::Record(const TraceEvent& event) {
  if (!enabled(event.category)) {
    return;
  }
  ++recorded_;
  if (ring_.size() < capacity_) {
    ring_.push_back(event);
    return;
  }
  // Full: overwrite the oldest slot and advance the head.
  ring_[head_] = event;
  head_ = (head_ + 1) % capacity_;
  ++overwritten_;
}

std::vector<TraceEvent> TraceRecorder::Events() const {
  std::vector<TraceEvent> events;
  events.reserve(ring_.size());
  for (size_t i = 0; i < ring_.size(); ++i) {
    events.push_back(ring_[(head_ + i) % ring_.size()]);
  }
  return events;
}

void TraceRecorder::Clear() {
  ring_.clear();
  head_ = 0;
  recorded_ = 0;
  overwritten_ = 0;
}

namespace {

// Minimal JSON string escaping (track/event names are plain ASCII; this
// guards against the odd '"' or '\' in a caller-supplied track name).
void WriteJsonString(FILE* out, const char* s) {
  std::fputc('"', out);
  for (; *s != '\0'; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\') {
      std::fputc('\\', out);
      std::fputc(c, out);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      std::fprintf(out, "\\u%04x", c);
    } else {
      std::fputc(c, out);
    }
  }
  std::fputc('"', out);
}

void WriteArg(FILE* out, bool* first, const char* key, double value) {
  if (key == nullptr) {
    return;
  }
  if (!*first) {
    std::fputc(',', out);
  }
  *first = false;
  WriteJsonString(out, key);
  // Fixed formatting: deterministic output for identical event streams.
  std::fprintf(out, ":%.6f", value);
}

}  // namespace

void TraceRecorder::WriteChromeTrace(FILE* out) const {
  std::fprintf(out, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  std::fprintf(out,
               "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"process_name\","
               "\"args\":{\"name\":\"e2e-sim\"}}");
  std::fprintf(out,
               ",\n{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"thread_name\","
               "\"args\":{\"name\":\"(default)\"}}");
  for (size_t i = 0; i < track_names_.size(); ++i) {
    std::fprintf(out, ",\n{\"ph\":\"M\",\"pid\":0,\"tid\":%u,\"name\":\"thread_name\",\"args\":{\"name\":",
                 static_cast<uint32_t>(i) + 1);
    WriteJsonString(out, track_names_[i].c_str());
    std::fprintf(out, "}}");
  }
  for (const TraceEvent& e : Events()) {
    const bool span = !e.duration.IsZero();
    std::fprintf(out, ",\n{\"ph\":\"%s\",\"pid\":0,\"tid\":%u,\"ts\":%.3f", span ? "X" : "i",
                 e.track, e.time.ToMicros());
    if (span) {
      std::fprintf(out, ",\"dur\":%.3f", e.duration.ToMicros());
    } else {
      // Instant scope: thread-local, so instants stay on their track row.
      std::fprintf(out, ",\"s\":\"t\"");
    }
    std::fprintf(out, ",\"cat\":\"%s\",\"name\":", TraceCategoryName(e.category));
    WriteJsonString(out, e.name);
    std::fprintf(out, ",\"args\":{");
    bool first = true;
    WriteArg(out, &first, e.k1, e.v1);
    WriteArg(out, &first, e.k2, e.v2);
    WriteArg(out, &first, e.k3, e.v3);
    std::fprintf(out, "}}");
  }
  std::fprintf(out, "\n]}\n");
}

bool TraceRecorder::WriteChromeTraceFile(const std::string& path) const {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  WriteChromeTrace(out);
  const bool ok = std::ferror(out) == 0;
  std::fclose(out);
  return ok;
}

}  // namespace e2e
