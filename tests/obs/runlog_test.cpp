#include "obs/runlog.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/report.hpp"

namespace aapx::obs {
namespace {

/// Every test writes through its own, initially closed, log.
class RunLogTest : public ::testing::Test {
 protected:
  RunLog log_;

  static std::string tmp_path(const std::string& name) {
    return ::testing::TempDir() + name;
  }

  static std::vector<JsonValue> read_records(const std::string& path) {
    std::ifstream is(path);
    EXPECT_TRUE(is.is_open()) << path;
    std::vector<std::string> errors;
    const std::vector<JsonValue> records = parse_jsonl(is, &errors);
    EXPECT_TRUE(errors.empty()) << errors.front();
    return records;
  }
};

TEST_F(RunLogTest, DisabledEmitIsANoOp) {
  ASSERT_FALSE(log_.enabled());
  JsonWriter w;
  w.field("x", 1);
  log_.emit("ignored", w);  // must not crash or write
}

TEST_F(RunLogTest, EmitsOneParsableRecordPerLine) {
  const std::string path = tmp_path("runlog_basic.jsonl");
  ASSERT_TRUE(log_.open(path));
  EXPECT_TRUE(log_.enabled());

  JsonWriter w;
  w.field("component", "adder32").field("points", 11);
  log_.emit("sweep_start", w);
  log_.emit("campaign_end");
  log_.close();
  EXPECT_FALSE(log_.enabled());

  const auto records = read_records(path);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].str_or("type", ""), "sweep_start");
  EXPECT_EQ(records[0].str_or("component", ""), "adder32");
  EXPECT_DOUBLE_EQ(records[0].num_or("points", 0), 11.0);
  EXPECT_EQ(records[1].str_or("type", ""), "campaign_end");
}

TEST_F(RunLogTest, TypeStringsAreEscaped) {
  const std::string path = tmp_path("runlog_escape.jsonl");
  ASSERT_TRUE(log_.open(path));
  log_.emit("odd\"type");
  log_.close();
  const auto records = read_records(path);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].str_or("type", ""), "odd\"type");
}

TEST_F(RunLogTest, OpenTruncatesPreviousContents) {
  const std::string path = tmp_path("runlog_trunc.jsonl");
  ASSERT_TRUE(log_.open(path));
  log_.emit("first");
  log_.close();
  ASSERT_TRUE(log_.open(path));
  log_.emit("second");
  log_.close();
  const auto records = read_records(path);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].str_or("type", ""), "second");
}

TEST_F(RunLogTest, OpenFailureLeavesLogDisabled) {
  EXPECT_FALSE(log_.open("/nonexistent-dir/x/y.jsonl"));
  EXPECT_FALSE(log_.enabled());
}

TEST_F(RunLogTest, ManifestCarriesSchemaBuildInfoAndCallerFields) {
  const std::string path = tmp_path("runlog_manifest.jsonl");
  ASSERT_TRUE(log_.open(path));
  JsonWriter caller;
  caller.field("command", "faultsim").field("threads", 4);
  emit_manifest(log_, caller);
  log_.close();

  const auto records = read_records(path);
  ASSERT_EQ(records.size(), 1u);
  const JsonValue& m = records[0];
  EXPECT_EQ(m.str_or("type", ""), "manifest");
  EXPECT_EQ(m.str_or("schema", ""), kRunLogSchema);
  EXPECT_NE(m.find("build_type"), nullptr);
  EXPECT_NE(m.find("sanitize"), nullptr);
  EXPECT_NE(m.find("compiler"), nullptr);
  EXPECT_EQ(m.str_or("command", ""), "faultsim");
  EXPECT_DOUBLE_EQ(m.num_or("threads", 0), 4.0);
  EXPECT_TRUE(validate_log_record(m).empty());
}

TEST_F(RunLogTest, ManifestWithoutOpenLogIsANoOp) {
  emit_manifest(log_, JsonWriter());  // disabled: nothing to write to
}

}  // namespace
}  // namespace aapx::obs
