// Fixed-width table, CSV, and JSON reporting used by every bench binary,
// plus canned tables for per-endpoint TCP counters and impairment-stage
// counters (so benches surface retransmits/delayed-ack fires/drop counts
// without hand-rolling rows).

#ifndef SRC_TESTBED_REPORT_H_
#define SRC_TESTBED_REPORT_H_

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/net/fabric/switch.h"
#include "src/net/impair/impairment.h"
#include "src/obs/registry.h"
#include "src/tcp/endpoint.h"

namespace e2e {

// Accumulates rows of preformatted cells; Print() pads columns to fit.
class Table {
 public:
  explicit Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

  // Starts a new row; append cells with Cell()/Num().
  Table& Row();
  Table& Cell(std::string text);
  Table& Num(double value, int precision = 1);
  Table& Int(int64_t value);

  void Print(FILE* out = stdout) const;
  // Comma-separated dump (headers + rows) for machine consumption.
  void PrintCsv(FILE* out) const;

  size_t rows() const { return rows_.size(); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

// Prints a section banner: "=== title ===".
void PrintBanner(const std::string& title, FILE* out = stdout);

// "x.xx" multiplier formatting helper.
std::string FormatFactor(double factor);

// One row per named endpoint: the TcpEndpoint::Stats counters that matter
// under impaired networks (retransmits, out-of-order segments, delayed-ack
// timer fires, pure acks, persist probes).
Table TcpEndpointStatsTable(const std::vector<std::pair<std::string, const TcpEndpoint*>>& rows);

// Same table from copied-out Stats values (e.g. RedisExperimentResult's
// endpoint-stats snapshots), for printing after the endpoints are gone.
Table TcpEndpointStatsTable(const std::vector<std::pair<std::string, TcpEndpoint::Stats>>& rows);

// One row per (direction, stage) with the stage's counters. Rows come from
// ImpairmentChain::Snapshot() or CounterCollector::ImpairmentWindow(); the
// `label` is typically "c2s" / "s2c".
Table ImpairmentCountersTable(
    const std::vector<std::pair<std::string, ImpairmentSnapshot>>& rows);

// One row per switch port with its queue/drop counters. Rows come from
// SwitchPort::counters(); the label is typically "<switch>.<host>".
Table SwitchPortsTable(const std::vector<std::pair<std::string, SwitchPort::Counters>>& rows);

// Minimal streaming JSON writer with deterministic formatting: fixed
// `%.*f` rendering for doubles (no locale, no shortest-round-trip
// variance), so equal inputs serialize byte-identically — the determinism
// contract bench JSON is checked against.
class JsonWriter {
 public:
  explicit JsonWriter(FILE* out) : out_(out) {}

  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();

  // Key for the next value (objects only).
  JsonWriter& Key(const std::string& key);

  JsonWriter& String(const std::string& value);
  JsonWriter& Double(double value, int precision = 3);
  JsonWriter& Int(int64_t value);
  JsonWriter& Uint(uint64_t value);
  JsonWriter& Bool(bool value);
  JsonWriter& Null();

  // Convenience: Key(k) + value.
  JsonWriter& KV(const std::string& key, const std::string& value);
  JsonWriter& KV(const std::string& key, double value, int precision = 3);
  JsonWriter& KV(const std::string& key, int64_t value);
  JsonWriter& KV(const std::string& key, uint64_t value);
  // Key(k) + Double(*value, precision), or Key(k) + Null() when empty.
  JsonWriter& KV(const std::string& key, const std::optional<double>& value, int precision = 3);

  // Emits every counter of one impairment snapshot as an array of objects
  // under the current context (call after Key(...) inside an object).
  JsonWriter& ImpairmentArray(const ImpairmentSnapshot& snapshot);

  // Emits every registry entity as an array of {"entity": name, <counter>:
  // value, ...} objects. `values` is a sample (or Delta) matching the
  // registry's schema — e.g. CounterCollector::RegistryWindow() output.
  JsonWriter& RegistryArray(const CounterRegistry& registry, const CounterRegistry::Values& values);

  // Terminates the output with a newline.
  void Finish();

 private:
  void Comma();

  FILE* out_;
  std::vector<bool> needs_comma_;  // One entry per open container.
  bool pending_key_ = false;
};

}  // namespace e2e

#endif  // SRC_TESTBED_REPORT_H_
