// Golden-schema test for the instrumentation artifacts: a tiny closed-loop
// campaign runs with tracing and the JSONL run log enabled, and everything
// the run emits must validate against the bundled checkers — the trace as a
// balanced Chrome trace-event document, every log record against the
// aapx-runlog-v1 field requirements. Also locks the determinism discipline:
// the log is byte-identical across thread counts, and instrumentation does
// not perturb campaign results.
#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cell/library.hpp"
#include "engine/context.hpp"
#include "obs/json.hpp"
#include "obs/report.hpp"
#include "obs/runlog.hpp"
#include "runtime/runtime.hpp"

namespace aapx {
namespace {

using obs::JsonValue;

class TraceSchemaTest : public ::testing::Test {
 protected:
  TraceSchemaTest() : lib_(make_nangate45_like()) {
    options_.component = {ComponentKind::adder, 12, 0, AdderArch::ripple,
                          MultArch::array};
    options_.min_precision = 6;
    options_.schedule_grid = {1.0, 5.0, 10.0};
    campaign_.epochs = 8;
    campaign_.vectors_per_epoch = 32;
    campaign_.verify_vectors = 24;
    // An accelerated die guarantees the controller actually fires, so the
    // log exercises the control_event schema.
    scenario_.aging_acceleration = 1.7;
  }

  /// Constructs the runtime and runs the campaign on `ctx` while its log and
  /// the tracer are live, mirroring the CLI: the schedule characterization
  /// happens inside the instrumented window so sweep records land in the
  /// log too.
  CampaignResult run_instrumented(const Context& ctx) const {
    ClosedLoopRuntime runtime(ctx, lib_, AgingModel{}, options_);
    const FaultInjector faults(ctx, lib_, AgingModel{}, scenario_);
    return runtime.run(faults, campaign_);
  }

  static std::string read_file(const std::string& path) {
    std::ifstream is(path, std::ios::binary);
    EXPECT_TRUE(is.is_open()) << path;
    std::ostringstream ss;
    ss << is.rdbuf();
    return ss.str();
  }

  static std::vector<JsonValue> read_records(const std::string& path) {
    std::ifstream is(path);
    EXPECT_TRUE(is.is_open()) << path;
    std::vector<std::string> errors;
    const auto records = obs::parse_jsonl(is, &errors);
    EXPECT_TRUE(errors.empty()) << errors.front();
    return records;
  }

  CellLibrary lib_;
  RuntimeOptions options_;
  CampaignOptions campaign_;
  FaultScenario scenario_;
};

TEST_F(TraceSchemaTest, TinyRunEmitsValidTraceAndLog) {
  const std::string log_path = ::testing::TempDir() + "trace_schema_run.jsonl";
  const Context ctx;
  ASSERT_TRUE(ctx.runlog().open(log_path));
  obs::JsonWriter manifest;
  manifest.field("command", "trace_schema_test")
      .field("threads", ctx.num_threads());
  obs::emit_manifest(ctx.runlog(), manifest);
  ctx.tracer().start();

  const CampaignResult result = run_instrumented(ctx);

  std::ostringstream trace_os;
  ctx.tracer().stop_and_write(trace_os);
  ctx.runlog().close();

  // --- trace: parses, balanced, and contains the flow's span names --------
  std::string parse_error;
  const auto trace = obs::json_parse(trace_os.str(), &parse_error);
  ASSERT_TRUE(trace.has_value()) << parse_error;
  const std::vector<std::string> trace_errors = obs::validate_trace(*trace);
  EXPECT_TRUE(trace_errors.empty()) << trace_errors.front();

  const obs::TraceSummary tsum = obs::summarize_trace(*trace);
  EXPECT_GT(tsum.events, 0u);
  std::set<std::string> span_names;
  for (const obs::SpanStat& s : tsum.spans) span_names.insert(s.name);
  EXPECT_TRUE(span_names.count("campaign"));
  EXPECT_TRUE(span_names.count("epoch"));
  EXPECT_TRUE(span_names.count("characterize"));
  EXPECT_TRUE(span_names.count("sta.run"));

  // --- log: every record validates; the expected types are all present ----
  const std::vector<JsonValue> records = read_records(log_path);
  ASSERT_FALSE(records.empty());
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto errors = obs::validate_log_record(records[i]);
    EXPECT_TRUE(errors.empty())
        << "record " << i << ": " << errors.front();
  }
  EXPECT_EQ(records.front().str_or("type", ""), "manifest");
  EXPECT_EQ(records.front().str_or("schema", ""), obs::kRunLogSchema);

  const obs::LogSummary lsum = obs::summarize_log(records);
  std::set<std::string> types;
  for (const auto& [type, count] : lsum.type_counts) types.insert(type);
  for (const char* required :
       {"manifest", "sweep_start", "sweep_point", "campaign_start", "epoch",
        "control_event", "campaign_end", "sta_query"}) {
    EXPECT_TRUE(types.count(required)) << "missing record type " << required;
  }

  // The log agrees with the in-memory result.
  ASSERT_FALSE(lsum.decisions.empty());
  EXPECT_EQ(lsum.decisions.size(), result.events.size());
  std::uint64_t epoch_records = 0;
  for (const auto& [type, count] : lsum.type_counts) {
    if (type == "epoch") epoch_records = count;
  }
  EXPECT_EQ(epoch_records, result.epochs.size());
}

TEST_F(TraceSchemaTest, LogIsByteIdenticalAcrossThreadCounts) {
  const std::string serial_path = ::testing::TempDir() + "runlog_serial.jsonl";
  const std::string pooled_path = ::testing::TempDir() + "runlog_pooled.jsonl";

  Context::Options serial_options, pooled_options;
  serial_options.threads = 1;
  pooled_options.threads = 4;

  const Context serial_ctx(serial_options);
  ASSERT_TRUE(serial_ctx.runlog().open(serial_path));
  const CampaignResult serial = run_instrumented(serial_ctx);
  serial_ctx.runlog().close();

  const Context pooled_ctx(pooled_options);
  ASSERT_TRUE(pooled_ctx.runlog().open(pooled_path));
  const CampaignResult pooled = run_instrumented(pooled_ctx);
  pooled_ctx.runlog().close();

  // Byte-for-byte: parallel sweeps log ordered per-index records after the
  // barrier, worker emission is suppressed symmetrically (the serial
  // fallback marks the region too), and no record carries a timestamp.
  EXPECT_EQ(read_file(serial_path), read_file(pooled_path));
  EXPECT_EQ(serial.total_errors, pooled.total_errors);
  EXPECT_EQ(serial.final_precision, pooled.final_precision);
}

TEST_F(TraceSchemaTest, InstrumentationDoesNotPerturbTheCampaign) {
  const Context ctx;
  const CampaignResult bare = run_instrumented(ctx);

  const std::string log_path = ::testing::TempDir() + "perturb_check.jsonl";
  ASSERT_TRUE(ctx.runlog().open(log_path));
  ctx.tracer().start();
  const CampaignResult traced = run_instrumented(ctx);
  ctx.tracer().discard();
  ctx.runlog().close();

  EXPECT_EQ(bare.timing_constraint, traced.timing_constraint);
  EXPECT_EQ(bare.total_errors, traced.total_errors);
  EXPECT_EQ(bare.total_vectors, traced.total_vectors);
  EXPECT_EQ(bare.final_precision, traced.final_precision);
  EXPECT_EQ(bare.reconfigurations, traced.reconfigurations);
  ASSERT_EQ(bare.epochs.size(), traced.epochs.size());
  for (std::size_t i = 0; i < bare.epochs.size(); ++i) {
    EXPECT_EQ(bare.epochs[i].errors, traced.epochs[i].errors);
    EXPECT_EQ(bare.epochs[i].precision, traced.epochs[i].precision);
    EXPECT_EQ(bare.epochs[i].max_settle_ps, traced.epochs[i].max_settle_ps);
  }
}

}  // namespace
}  // namespace aapx
