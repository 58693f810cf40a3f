// Context isolation and cross-layer sharing — the two halves of the
// engine's contract:
//
//  * isolation: two Contexts running campaigns *concurrently* in one
//    process behave exactly like two serial single-campaign processes —
//    byte-identical run logs, identical results, and no cross-contamination
//    of metrics (each Context's registry counts only its own work);
//  * sharing: a characterizer and a fault-injection campaign on one shared
//    Context serve each other from the unified DesignStore (hits > 0 across
//    layers) without changing a single byte of the campaign's output.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>

#include "cell/library.hpp"
#include "engine/context.hpp"
#include "engine/design_store.hpp"
#include "obs/json.hpp"
#include "obs/report.hpp"
#include "runtime/runtime.hpp"

namespace aapx {
namespace {

class ContextIsolationTest : public ::testing::Test {
 protected:
  ContextIsolationTest() : lib_(make_nangate45_like()) {
    options_.component = {ComponentKind::adder, 12, 0, AdderArch::ripple,
                          MultArch::array};
    options_.min_precision = 6;
    options_.schedule_grid = {1.0, 5.0, 10.0};
    campaign_.epochs = 8;
    campaign_.vectors_per_epoch = 32;
    campaign_.verify_vectors = 24;
    // Accelerated aging so the controller fires and the log carries control
    // events — the record type most sensitive to state leaking in.
    scenario_.aging_acceleration = 1.7;
  }

  /// One full campaign on `ctx`, with the runtime constructed inside the
  /// logging window (mirroring the CLI) so planning-sweep records land in
  /// the log too. The log is the Context's private one.
  CampaignResult run_campaign(const Context& ctx,
                              const std::string& log_path) const {
    EXPECT_TRUE(ctx.runlog().open(log_path));
    const ClosedLoopRuntime runtime(ctx, lib_, AgingModel{}, options_);
    const FaultInjector faults(ctx, lib_, AgingModel{}, scenario_);
    const CampaignResult result = runtime.run(faults, campaign_);
    ctx.runlog().close();
    return result;
  }

  static std::string read_file(const std::string& path) {
    std::ifstream is(path, std::ios::binary);
    EXPECT_TRUE(is.is_open()) << path;
    std::ostringstream ss;
    ss << is.rdbuf();
    return ss.str();
  }

  static void expect_equal(const CampaignResult& a, const CampaignResult& b) {
    EXPECT_EQ(a.timing_constraint, b.timing_constraint);
    EXPECT_EQ(a.total_errors, b.total_errors);
    EXPECT_EQ(a.total_vectors, b.total_vectors);
    EXPECT_EQ(a.final_precision, b.final_precision);
    EXPECT_EQ(a.reconfigurations, b.reconfigurations);
    ASSERT_EQ(a.epochs.size(), b.epochs.size());
    for (std::size_t i = 0; i < a.epochs.size(); ++i) {
      EXPECT_EQ(a.epochs[i].errors, b.epochs[i].errors);
      EXPECT_EQ(a.epochs[i].precision, b.epochs[i].precision);
      EXPECT_EQ(a.epochs[i].max_settle_ps, b.epochs[i].max_settle_ps);
    }
  }

  CellLibrary lib_;
  RuntimeOptions options_;
  CampaignOptions campaign_;
  FaultScenario scenario_;
};

TEST_F(ContextIsolationTest, ConcurrentCampaignsMatchSerialByteForByte) {
  const std::string base = ::testing::TempDir();

  // Serial baseline: one fresh Context, one campaign.
  Context serial_ctx;
  const CampaignResult serial =
      run_campaign(serial_ctx, base + "ctx_serial.jsonl");
  const std::string serial_log = read_file(base + "ctx_serial.jsonl");
  ASSERT_FALSE(serial_log.empty());

  // Two fresh Contexts running the same campaign concurrently. Nothing is
  // shared between them: separate DesignStores, metrics, logs.
  Context ctx_a;
  Context ctx_b;
  CampaignResult result_a;
  CampaignResult result_b;
  std::thread ta([&] {
    result_a = run_campaign(ctx_a, base + "ctx_a.jsonl");
  });
  std::thread tb([&] {
    result_b = run_campaign(ctx_b, base + "ctx_b.jsonl");
  });
  ta.join();
  tb.join();

  expect_equal(serial, result_a);
  expect_equal(serial, result_b);
  EXPECT_EQ(serial_log, read_file(base + "ctx_a.jsonl"));
  EXPECT_EQ(serial_log, read_file(base + "ctx_b.jsonl"));

  // Both tenants did the same work against their own stores: identical
  // hit/miss totals, counted in fully separate registries.
  const auto sa = ctx_a.store().stats();
  const auto sb = ctx_b.store().stats();
  EXPECT_EQ(sa.hits(), sb.hits());
  EXPECT_EQ(sa.misses(), sb.misses());
  EXPECT_GT(sa.misses(), 0u);
}

TEST_F(ContextIsolationTest, MetricsDoNotCrossContaminate) {
  Context worker;
  Context idle;
  (void)run_campaign(worker, ::testing::TempDir() + "ctx_metrics.jsonl");

  // The working Context accumulated store traffic in its own registry...
  EXPECT_GT(worker.store().stats().misses(), 0u);
  EXPECT_GT(
      worker.metrics().counter("engine.store.netlist_misses").value(), 0u);

  // ...while the idle Context's registry never moved, and the registries
  // are distinct objects.
  EXPECT_NE(&worker.metrics(), &idle.metrics());
  const auto idle_stats = idle.store().stats();
  EXPECT_EQ(idle_stats.hits(), 0u);
  EXPECT_EQ(idle_stats.misses(), 0u);
}

TEST_F(ContextIsolationTest, ConcurrentTracersWriteDisjointValidTraces) {
  // Two traced Contexts and one untraced Context run the same campaign at
  // once, all fanning out on the shared thread pool. Each trace holds
  // exactly one campaign's spans, and the untraced Context records nothing.
  const std::string base = ::testing::TempDir();
  Context::Options pooled;
  pooled.threads = 4;
  Context ctx_a(pooled);
  Context ctx_b(pooled);
  Context quiet(pooled);
  ctx_a.tracer().start();
  ctx_b.tracer().start();
  std::thread ta([&] { (void)run_campaign(ctx_a, base + "trace_a.jsonl"); });
  std::thread tb([&] { (void)run_campaign(ctx_b, base + "trace_b.jsonl"); });
  std::thread tq([&] { (void)run_campaign(quiet, base + "trace_q.jsonl"); });
  ta.join();
  tb.join();
  tq.join();
  EXPECT_EQ(quiet.tracer().event_count(), 0u);

  // Span counts per name, from a trace that must validate on its own.
  const auto span_counts = [](const Context& ctx) {
    std::ostringstream os;
    ctx.tracer().stop_and_write(os);
    std::map<std::string, std::uint64_t> counts;
    const auto doc = obs::json_parse(os.str());
    EXPECT_TRUE(doc.has_value());
    if (!doc.has_value()) return counts;
    const std::vector<std::string> errors = obs::validate_trace(*doc);
    EXPECT_TRUE(errors.empty()) << errors.front();
    for (const obs::SpanStat& st : obs::summarize_trace(*doc).spans) {
      counts[st.name] = st.count;
    }
    return counts;
  };
  std::map<std::string, std::uint64_t> a = span_counts(ctx_a);
  // Same work on private stores: a span leaking across would break this.
  EXPECT_EQ(a, span_counts(ctx_b));
  EXPECT_EQ(a["campaign"], 1u);
  EXPECT_EQ(a["epoch"], static_cast<std::uint64_t>(campaign_.epochs));
  EXPECT_EQ(a["characterize"], 1u);
  EXPECT_GT(a["parallel_for"], 0u);
  EXPECT_GE(a["parallel_for.work"], a["parallel_for"]);
}

TEST_F(ContextIsolationTest, SharedContextServesCrossLayerHitsUnchanged) {
  const std::string base = ::testing::TempDir();

  // Baseline: campaign on a cold Context.
  Context cold;
  const CampaignResult baseline =
      run_campaign(cold, base + "ctx_cold.jsonl");

  // Shared Context: a characterizer warms the store first (netlists, aged
  // libraries, aged delays for the same component family the campaign
  // uses), then the campaign runs with the log open.
  Context shared;
  {
    CharacterizerOptions copt;
    copt.min_precision = options_.min_precision;
    copt.sta = options_.sta;
    const ComponentCharacterizer characterizer(shared, lib_, AgingModel{},
                                               copt);
    (void)characterizer.characterize(options_.component,
                                     {{options_.stress, 1.0},
                                      {options_.stress, 5.0},
                                      {options_.stress, 10.0}});
  }
  const auto warmed = shared.store().stats();
  EXPECT_GT(warmed.misses(), 0u);

  const CampaignResult result =
      run_campaign(shared, base + "ctx_warm.jsonl");

  // The campaign consumed characterizer-warmed entries: hits across layers
  // out of one unified store. The runtime's planning sweep is the sharpest
  // case — it asks for the exact surface the characterizer built and is
  // served whole from the surface family, instead of re-issuing the
  // per-point netlist/delay queries a cold plan would.
  const auto after = shared.store().stats();
  EXPECT_GT(after.hits(), warmed.hits());
  EXPECT_GT(after.netlist_hits, 0u);
  EXPECT_GT(after.library_hits, 0u);
  EXPECT_GT(after.surface_hits, 0u);
  // Warmth can only shrink the campaign's store traffic (a delay hit skips
  // the nested netlist/library queries its fill would have issued) — never
  // add to it.
  const auto cold_stats = cold.store().stats();
  EXPECT_LE((after.hits() - warmed.hits()) + (after.misses() - warmed.misses()),
            cold_stats.hits() + cold_stats.misses());
  EXPECT_LT(after.misses() - warmed.misses(), cold_stats.misses());

  // And sharing is invisible in the output: identical results, and the run
  // log is byte-identical to the cold baseline — cache warmth must never
  // change what a run reports.
  expect_equal(baseline, result);
  EXPECT_EQ(read_file(base + "ctx_cold.jsonl"),
            read_file(base + "ctx_warm.jsonl"));
}

}  // namespace
}  // namespace aapx
