#include "src/testbed/report.h"

#include <algorithm>
#include <cassert>

#include "src/tcp/endpoint.h"

namespace e2e {

Table& Table::Row() {
  rows_.emplace_back();
  return *this;
}

Table& Table::Cell(std::string text) {
  assert(!rows_.empty());
  rows_.back().push_back(std::move(text));
  return *this;
}

Table& Table::Num(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return Cell(buf);
}

Table& Table::Int(int64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(value));
  return Cell(buf);
}

void Table::Print(FILE* out) const {
  std::vector<size_t> widths(headers_.size());
  for (size_t i = 0; i < headers_.size(); ++i) {
    widths[i] = headers_[i].size();
  }
  for (const auto& row : rows_) {
    for (size_t i = 0; i < row.size() && i < widths.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& cells) {
    for (size_t i = 0; i < widths.size(); ++i) {
      const std::string& cell = i < cells.size() ? cells[i] : std::string();
      std::fprintf(out, "%s%-*s", i == 0 ? "" : "  ", static_cast<int>(widths[i]), cell.c_str());
    }
    std::fprintf(out, "\n");
  };
  print_row(headers_);
  size_t total = headers_.empty() ? 0 : 2 * (headers_.size() - 1);
  for (size_t w : widths) {
    total += w;
  }
  std::fprintf(out, "%s\n", std::string(total, '-').c_str());
  for (const auto& row : rows_) {
    print_row(row);
  }
}

void Table::PrintCsv(FILE* out) const {
  auto print_row = [&](const std::vector<std::string>& cells) {
    for (size_t i = 0; i < cells.size(); ++i) {
      std::fprintf(out, "%s%s", i == 0 ? "" : ",", cells[i].c_str());
    }
    std::fprintf(out, "\n");
  };
  print_row(headers_);
  for (const auto& row : rows_) {
    print_row(row);
  }
}

void PrintBanner(const std::string& title, FILE* out) {
  std::fprintf(out, "\n=== %s ===\n\n", title.c_str());
}

std::string FormatFactor(double factor) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2fx", factor);
  return buf;
}

Table TcpEndpointStatsTable(const std::vector<std::pair<std::string, TcpEndpoint::Stats>>& rows) {
  Table table({"endpoint", "segs_sent", "retransmits", "ooo_segs", "pure_acks", "delack_fires",
               "persist_probes", "sndbuf_full"});
  for (const auto& [name, s] : rows) {
    table.Row()
        .Cell(name)
        .Int(static_cast<int64_t>(s.data_segments_sent))
        .Int(static_cast<int64_t>(s.retransmits))
        .Int(static_cast<int64_t>(s.ooo_segments))
        .Int(static_cast<int64_t>(s.pure_acks_sent))
        .Int(static_cast<int64_t>(s.delack_timer_fires))
        .Int(static_cast<int64_t>(s.persist_probes))
        .Int(static_cast<int64_t>(s.send_buffer_full));
  }
  return table;
}

Table TcpEndpointStatsTable(const std::vector<std::pair<std::string, const TcpEndpoint*>>& rows) {
  std::vector<std::pair<std::string, TcpEndpoint::Stats>> stats;
  stats.reserve(rows.size());
  for (const auto& [name, endpoint] : rows) {
    stats.emplace_back(name, endpoint->stats());
  }
  return TcpEndpointStatsTable(stats);
}

Table ImpairmentCountersTable(
    const std::vector<std::pair<std::string, ImpairmentSnapshot>>& rows) {
  Table table({"dir", "stage", "in", "out", "dropped", "corrupted", "duplicated", "reordered"});
  for (const auto& [label, snapshot] : rows) {
    for (const auto& [stage, c] : snapshot) {
      table.Row()
          .Cell(label)
          .Cell(stage)
          .Int(static_cast<int64_t>(c.packets_in))
          .Int(static_cast<int64_t>(c.packets_out))
          .Int(static_cast<int64_t>(c.dropped))
          .Int(static_cast<int64_t>(c.corrupted))
          .Int(static_cast<int64_t>(c.duplicated))
          .Int(static_cast<int64_t>(c.reordered));
    }
  }
  return table;
}

Table SwitchPortsTable(const std::vector<std::pair<std::string, SwitchPort::Counters>>& rows) {
  Table table({"port", "in", "out", "bytes_out", "tail_drops", "byte_drops", "pkt_drops",
               "dropped_B", "ecn_marked", "marked_B", "max_q_bytes", "max_q_pkts"});
  for (const auto& [name, c] : rows) {
    table.Row()
        .Cell(name)
        .Int(static_cast<int64_t>(c.packets_in))
        .Int(static_cast<int64_t>(c.packets_out))
        .Int(static_cast<int64_t>(c.bytes_out))
        .Int(static_cast<int64_t>(c.tail_drops))
        .Int(static_cast<int64_t>(c.byte_limit_drops))
        .Int(static_cast<int64_t>(c.packet_limit_drops))
        .Int(static_cast<int64_t>(c.dropped_bytes))
        .Int(static_cast<int64_t>(c.ecn_marked))
        .Int(static_cast<int64_t>(c.ecn_marked_bytes))
        .Int(static_cast<int64_t>(c.max_queue_bytes))
        .Int(static_cast<int64_t>(c.max_queue_packets));
  }
  return table;
}

// ---- JsonWriter ----

void JsonWriter::Comma() {
  if (pending_key_) {
    pending_key_ = false;
    return;  // "key": already emitted the separator.
  }
  if (!needs_comma_.empty()) {
    if (needs_comma_.back()) {
      std::fputc(',', out_);
    }
    needs_comma_.back() = true;
  }
}

JsonWriter& JsonWriter::BeginObject() {
  Comma();
  std::fputc('{', out_);
  needs_comma_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  assert(!needs_comma_.empty());
  needs_comma_.pop_back();
  std::fputc('}', out_);
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  Comma();
  std::fputc('[', out_);
  needs_comma_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  assert(!needs_comma_.empty());
  needs_comma_.pop_back();
  std::fputc(']', out_);
  return *this;
}

JsonWriter& JsonWriter::Key(const std::string& key) {
  Comma();
  std::fprintf(out_, "\"%s\":", key.c_str());
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::String(const std::string& value) {
  Comma();
  std::fputc('"', out_);
  for (char ch : value) {
    if (ch == '"' || ch == '\\') {
      std::fputc('\\', out_);
      std::fputc(ch, out_);
    } else if (ch == '\n') {
      std::fputs("\\n", out_);
    } else {
      std::fputc(ch, out_);
    }
  }
  std::fputc('"', out_);
  return *this;
}

JsonWriter& JsonWriter::Double(double value, int precision) {
  Comma();
  std::fprintf(out_, "%.*f", precision, value);
  return *this;
}

JsonWriter& JsonWriter::Int(int64_t value) {
  Comma();
  std::fprintf(out_, "%lld", static_cast<long long>(value));
  return *this;
}

JsonWriter& JsonWriter::Uint(uint64_t value) {
  Comma();
  std::fprintf(out_, "%llu", static_cast<unsigned long long>(value));
  return *this;
}

JsonWriter& JsonWriter::Bool(bool value) {
  Comma();
  std::fputs(value ? "true" : "false", out_);
  return *this;
}

JsonWriter& JsonWriter::Null() {
  Comma();
  std::fputs("null", out_);
  return *this;
}

JsonWriter& JsonWriter::KV(const std::string& key, const std::string& value) {
  return Key(key).String(value);
}
JsonWriter& JsonWriter::KV(const std::string& key, double value, int precision) {
  return Key(key).Double(value, precision);
}
JsonWriter& JsonWriter::KV(const std::string& key, int64_t value) { return Key(key).Int(value); }
JsonWriter& JsonWriter::KV(const std::string& key, uint64_t value) { return Key(key).Uint(value); }
JsonWriter& JsonWriter::KV(const std::string& key, const std::optional<double>& value,
                           int precision) {
  Key(key);
  return value.has_value() ? Double(*value, precision) : Null();
}

JsonWriter& JsonWriter::ImpairmentArray(const ImpairmentSnapshot& snapshot) {
  BeginArray();
  for (const auto& [stage, c] : snapshot) {
    BeginObject();
    KV("stage", stage);
    KV("in", c.packets_in);
    KV("out", c.packets_out);
    KV("dropped", c.dropped);
    KV("corrupted", c.corrupted);
    KV("duplicated", c.duplicated);
    KV("reordered", c.reordered);
    EndObject();
  }
  EndArray();
  return *this;
}

JsonWriter& JsonWriter::RegistryArray(const CounterRegistry& registry,
                                      const CounterRegistry::Values& values) {
  assert(values.size() == registry.num_entities());
  BeginArray();
  for (size_t i = 0; i < values.size(); ++i) {
    const std::vector<std::string>& names = registry.counter_names(i);
    assert(values[i].size() == names.size());
    BeginObject();
    KV("entity", registry.entity_name(i));
    for (size_t j = 0; j < names.size(); ++j) {
      KV(names[j], values[i][j]);
    }
    EndObject();
  }
  EndArray();
  return *this;
}

void JsonWriter::Finish() {
  assert(needs_comma_.empty());
  std::fputc('\n', out_);
}

}  // namespace e2e
