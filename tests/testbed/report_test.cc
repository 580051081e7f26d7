#include "src/testbed/report.h"

#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <string>

namespace e2e {
namespace {

TEST(TableTest, PadsColumnsToWidestCell) {
  Table table({"a", "long_header"});
  table.Row().Cell("wide-cell-content").Int(7);
  char buf[4096] = {};
  FILE* mem = fmemopen(buf, sizeof(buf) - 1, "w");
  table.Print(mem);
  std::fclose(mem);
  const std::string out = buf;
  // Header line padded to the data width.
  EXPECT_NE(out.find("a                  long_header"), std::string::npos);
  EXPECT_NE(out.find("wide-cell-content  7"), std::string::npos);
  // Separator line present.
  EXPECT_NE(out.find("-----"), std::string::npos);
}

TEST(TableTest, NumUsesRequestedPrecision) {
  Table table({"x"});
  table.Row().Num(3.14159, 3);
  char buf[1024] = {};
  FILE* mem = fmemopen(buf, sizeof(buf) - 1, "w");
  table.Print(mem);
  std::fclose(mem);
  EXPECT_NE(std::string(buf).find("3.142"), std::string::npos);
}

TEST(TableTest, CsvOutputIsCommaSeparated) {
  Table table({"a", "b"});
  table.Row().Cell("x").Int(-5);
  table.Row().Num(1.5, 1).Cell("y");
  char buf[1024] = {};
  FILE* mem = fmemopen(buf, sizeof(buf) - 1, "w");
  table.PrintCsv(mem);
  std::fclose(mem);
  EXPECT_STREQ(buf, "a,b\nx,-5\n1.5,y\n");
}

TEST(TableTest, RowCountTracksRows) {
  Table table({"a"});
  EXPECT_EQ(table.rows(), 0u);
  table.Row().Cell("1");
  table.Row().Cell("2");
  EXPECT_EQ(table.rows(), 2u);
}

TEST(ReportTest, FormatFactor) {
  EXPECT_EQ(FormatFactor(1.934), "1.93x");
  EXPECT_EQ(FormatFactor(0.5), "0.50x");
}

TEST(ReportTest, SwitchPortsTableOneRowPerPort) {
  SwitchPort::Counters c;
  c.packets_in = 12;
  c.packets_out = 10;
  c.tail_drops = 2;
  c.max_queue_bytes = 3000;
  Table table = SwitchPortsTable({{"sw0.server", c}, {"sw0.client0", SwitchPort::Counters{}}});
  EXPECT_EQ(table.rows(), 2u);
  char buf[4096] = {};
  FILE* mem = fmemopen(buf, sizeof(buf) - 1, "w");
  table.Print(mem);
  std::fclose(mem);
  const std::string out = buf;
  EXPECT_NE(out.find("sw0.server"), std::string::npos);
  EXPECT_NE(out.find("tail_drops"), std::string::npos);
  EXPECT_NE(out.find("3000"), std::string::npos);
}

TEST(ReportTest, RegistryArrayEmitsEntityObjects) {
  CounterRegistry registry;
  registry.Register("client.nic", {"rx", "tx"},
                    []() -> std::vector<uint64_t> { return {3, 4}; });
  registry.Register("sw0.server.port", {"drops"},
                    []() -> std::vector<uint64_t> { return {7}; });
  char buf[1024] = {};
  FILE* mem = fmemopen(buf, sizeof(buf) - 1, "w");
  JsonWriter json(mem);
  json.RegistryArray(registry, registry.Sample());
  json.Finish();
  std::fclose(mem);
  EXPECT_STREQ(buf,
               "[{\"entity\":\"client.nic\",\"rx\":3,\"tx\":4},"
               "{\"entity\":\"sw0.server.port\",\"drops\":7}]\n");
}

// Renders `write`'s JSON object into a string.
template <typename Write>
std::string JsonOf(Write write) {
  char buf[256] = {};
  FILE* mem = fmemopen(buf, sizeof(buf) - 1, "w");
  JsonWriter json(mem);
  json.BeginObject();
  write(json);
  json.EndObject();
  json.Finish();
  std::fclose(mem);
  return buf;
}

TEST(ReportTest, OptionalKvWritesDoubleOrNull) {
  const std::optional<double> present = 12.345678;
  const std::optional<double> empty;
  // Present: the same bytes as Key + Double at the same precision.
  EXPECT_EQ(JsonOf([&](JsonWriter& j) { j.KV("est_us", present, 2).KV("n", uint64_t{1}); }),
            JsonOf([&](JsonWriter& j) { j.Key("est_us").Double(*present, 2).KV("n", uint64_t{1}); }));
  EXPECT_EQ(JsonOf([&](JsonWriter& j) { j.KV("est_us", present, 2); }), "{\"est_us\":12.35}\n");
  EXPECT_EQ(JsonOf([&](JsonWriter& j) { j.KV("ms", present); }),
            JsonOf([&](JsonWriter& j) { j.Key("ms").Double(*present); }));
  // Empty: null, and the next key still gets its comma.
  EXPECT_EQ(JsonOf([&](JsonWriter& j) { j.KV("est_us", empty, 2).KV("n", uint64_t{1}); }),
            "{\"est_us\":null,\"n\":1}\n");
}

TEST(ReportTest, BannerContainsTitle) {
  char buf[256] = {};
  FILE* mem = fmemopen(buf, sizeof(buf) - 1, "w");
  PrintBanner("Hello Figures", mem);
  std::fclose(mem);
  EXPECT_NE(std::string(buf).find("=== Hello Figures ==="), std::string::npos);
}

}  // namespace
}  // namespace e2e
