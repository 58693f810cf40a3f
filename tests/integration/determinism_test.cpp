// Thread-count determinism: every parallel_for grain writes only to its own
// index slot, so characterization, Monte-Carlo STA and measured-stress
// extraction, and the chunked timed replay under the runtime's campaigns
// must produce bit-identical results at any worker count. Each case runs
// once on a 1-thread Context and once on a 4-thread Context.
#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <string>

#include "core/characterizer.hpp"
#include "core/stimulus.hpp"
#include "engine/context.hpp"
#include "engine/design_store.hpp"
#include "obs/metrics.hpp"
#include "runtime/runtime.hpp"
#include "sta/variation.hpp"
#include "synth/components.hpp"

namespace aapx {
namespace {

Context::Options with_threads(int threads) {
  Context::Options options;
  options.threads = threads;
  return options;
}

class DeterminismTest : public ::testing::Test {
 protected:
  CellLibrary lib_ = make_nangate45_like();
  AgingModel model_;
  const Context serial_ctx_{with_threads(1)};
  const Context pooled_ctx_{with_threads(4)};
};

TEST_F(DeterminismTest, CharacterizeBitIdenticalAcrossThreadCounts) {
  CharacterizerOptions opt;
  opt.min_precision = 11;
  const ComponentCharacterizer serial_ch(serial_ctx_, lib_, model_, opt);
  const ComponentCharacterizer pooled_ch(pooled_ctx_, lib_, model_, opt);
  const ComponentSpec spec{ComponentKind::adder, 16, 0, AdderArch::cla4,
                           MultArch::array};
  const StimulusSet stim = make_normal_stimulus(16, 64, 3);
  const std::vector<AgingScenario> scenarios = {
      {StressMode::worst, 10.0},
      {StressMode::balanced, 5.0},
      {StressMode::measured, 10.0}};

  const auto serial = serial_ch.characterize(spec, scenarios, &stim);
  const auto pooled = pooled_ch.characterize(spec, scenarios, &stim);

  ASSERT_EQ(serial.points.size(), pooled.points.size());
  for (std::size_t i = 0; i < serial.points.size(); ++i) {
    const auto& a = serial.points[i];
    const auto& b = pooled.points[i];
    EXPECT_EQ(a.precision, b.precision);
    EXPECT_EQ(a.gates, b.gates);
    // Exact equality on purpose: same floating-point operations in the same
    // order, whichever worker evaluates the precision point.
    EXPECT_EQ(a.fresh_delay, b.fresh_delay);
    EXPECT_EQ(a.area, b.area);
    ASSERT_EQ(a.aged_delay.size(), b.aged_delay.size());
    for (std::size_t s = 0; s < a.aged_delay.size(); ++s) {
      EXPECT_EQ(a.aged_delay[s], b.aged_delay[s]) << "point " << i
                                                  << " scenario " << s;
    }
  }
}

TEST_F(DeterminismTest, TracingDoesNotPerturbResults) {
  // Same exactness contract with the instrumentation layer fully live:
  // spans read the steady clock and buffer events but never feed anything
  // back into the analysis, so a traced pooled run must equal the untraced
  // serial one bit for bit.
  CharacterizerOptions opt;
  opt.min_precision = 11;
  const ComponentCharacterizer serial_ch(serial_ctx_, lib_, model_, opt);
  const ComponentCharacterizer pooled_ch(pooled_ctx_, lib_, model_, opt);
  const ComponentSpec spec{ComponentKind::adder, 16, 0, AdderArch::cla4,
                           MultArch::array};
  const StimulusSet stim = make_normal_stimulus(16, 64, 3);
  const std::vector<AgingScenario> scenarios = {{StressMode::worst, 10.0},
                                                {StressMode::measured, 5.0}};

  const auto bare = serial_ch.characterize(spec, scenarios, &stim);

  pooled_ctx_.tracer().start();
  const auto traced = pooled_ch.characterize(spec, scenarios, &stim);
  EXPECT_GT(pooled_ctx_.tracer().event_count(), 0u);
  pooled_ctx_.tracer().discard();

  ASSERT_EQ(bare.points.size(), traced.points.size());
  for (std::size_t i = 0; i < bare.points.size(); ++i) {
    EXPECT_EQ(bare.points[i].precision, traced.points[i].precision);
    EXPECT_EQ(bare.points[i].fresh_delay, traced.points[i].fresh_delay);
    ASSERT_EQ(bare.points[i].aged_delay.size(),
              traced.points[i].aged_delay.size());
    for (std::size_t s = 0; s < bare.points[i].aged_delay.size(); ++s) {
      EXPECT_EQ(bare.points[i].aged_delay[s], traced.points[i].aged_delay[s])
          << "point " << i << " scenario " << s;
    }
  }
}

TEST_F(DeterminismTest, MonteCarloBitIdenticalAcrossThreadCounts) {
  const Netlist nl = make_component(
      lib_, {ComponentKind::adder, 16, 0, AdderArch::ripple, MultArch::array});
  VariationParams params;
  params.seed = 42;
  const MonteCarloSta serial_mc(nl, params, {}, &serial_ctx_);
  const MonteCarloSta pooled_mc(nl, params, {}, &pooled_ctx_);

  const VariationResult serial = serial_mc.run_fresh(150);
  const VariationResult pooled = pooled_mc.run_fresh(150);

  ASSERT_EQ(serial.samples.size(), pooled.samples.size());
  for (std::size_t s = 0; s < serial.samples.size(); ++s) {
    EXPECT_EQ(serial.samples[s], pooled.samples[s]) << "die " << s;
  }
}

TEST_F(DeterminismTest, MeasuredDutyBitIdenticalAcrossThreadCounts) {
  const Netlist nl = make_component(
      lib_, {ComponentKind::adder, 16, 0, AdderArch::cla4, MultArch::array});
  const StimulusSet stim = make_normal_stimulus(16, 300, 5);

  const std::vector<double> serial =
      measure_gate_duty(nl, stim, serial_ctx_.num_threads());
  const std::vector<double> pooled =
      measure_gate_duty(nl, stim, pooled_ctx_.num_threads());

  ASSERT_EQ(serial.size(), pooled.size());
  for (std::size_t g = 0; g < serial.size(); ++g) {
    EXPECT_EQ(serial[g], pooled[g]) << "gate " << g;
  }
}

TEST_F(DeterminismTest, OneThreadContextNeverFansOut) {
  // Options::threads reaches the layers below the characterizer: on a
  // 1-thread Context neither measured-stress extraction nor Monte-Carlo STA
  // hands a job to the thread pool.
  const Netlist nl = make_component(
      lib_, {ComponentKind::adder, 16, 0, AdderArch::cla4, MultArch::array});
  const StimulusSet stim = make_normal_stimulus(16, 300, 5);
  const ComponentCharacterizer ch(serial_ctx_, lib_, model_);
  const MonteCarloSta mc(nl, {}, {}, &serial_ctx_);
  const obs::Counter& jobs = obs::metrics().counter("pool.jobs");
  const std::uint64_t before = jobs.value();

  EXPECT_GT(ch.aged_delay(nl, {StressMode::measured, 10.0}, &stim), 0.0);
  EXPECT_EQ(mc.run_fresh(150).samples.size(), 150u);

  EXPECT_EQ(jobs.value(), before);
}

/// Everything a campaign pair reports that must not depend on the worker
/// count: results, run-log bytes and the work counters.
struct CampaignRun {
  CampaignResult open, closed;
  std::string log;
  std::uint64_t timed_steps = 0, timed_events = 0, aged_runs = 0;
  engine::DesignStore::Stats store;
};

/// The open and closed campaigns of closed_loop_test's acceptance scenario
/// on a fresh Context with `threads` workers and its run log open.
CampaignRun run_acceptance_campaigns(const CellLibrary& lib, int threads) {
  const Context ctx(with_threads(threads));
  const std::string log_path = testing::TempDir() + "determinism_campaign_" +
                               std::to_string(threads) + ".jsonl";
  EXPECT_TRUE(ctx.runlog().open(log_path));
  obs::Counter& steps = obs::metrics().counter("timedsim.steps");
  obs::Counter& events = obs::metrics().counter("timedsim.events");
  const std::uint64_t steps0 = steps.value();
  const std::uint64_t events0 = events.value();

  RuntimeOptions options;
  options.component = {ComponentKind::adder, 16, 0, AdderArch::ripple,
                       MultArch::array};
  options.min_precision = 6;
  const ClosedLoopRuntime runtime(ctx, lib, AgingModel{}, options);
  FaultScenario fault;
  fault.aging_acceleration = 1.5;
  fault.sensor_gain = 0.6;
  fault.sensor_noise_sigma_years = 0.2;
  fault.temp_step_kelvin = 20.0;
  fault.temp_step_from_years = 5.0;
  const FaultInjector faults(ctx, lib, AgingModel{}, fault);
  CampaignOptions campaign;
  campaign.vectors_per_epoch = 96;
  campaign.verify_vectors = 48;
  campaign.monitor.window = 96;
  campaign.monitor.canary_margin = 0.97;
  campaign.monitor.canary_trip = 2;
  CampaignOptions open_campaign = campaign;
  open_campaign.closed_loop = false;

  CampaignRun run;
  run.open = runtime.run(faults, open_campaign);
  run.closed = runtime.run(faults, campaign);
  ctx.runlog().close();
  std::ifstream in(log_path);
  run.log.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  run.timed_steps = steps.value() - steps0;
  run.timed_events = events.value() - events0;
  run.aged_runs = ctx.metrics().counter("sta.aged_runs").value();
  run.store = ctx.store().stats();
  return run;
}

void expect_same_campaign(const CampaignResult& a, const CampaignResult& b) {
  EXPECT_EQ(a.timing_constraint, b.timing_constraint);
  EXPECT_EQ(a.total_errors, b.total_errors);
  EXPECT_EQ(a.total_vectors, b.total_vectors);
  EXPECT_EQ(a.final_precision, b.final_precision);
  EXPECT_EQ(a.reconfigurations, b.reconfigurations);
  EXPECT_EQ(a.failed_over, b.failed_over);
  EXPECT_EQ(a.failover_epoch, b.failover_epoch);
  ASSERT_EQ(a.epochs.size(), b.epochs.size());
  for (std::size_t i = 0; i < a.epochs.size(); ++i) {
    const EpochReport& x = a.epochs[i];
    const EpochReport& y = b.epochs[i];
    SCOPED_TRACE(testing::Message() << "epoch " << x.epoch);
    EXPECT_EQ(x.epoch, y.epoch);
    EXPECT_EQ(x.years, y.years);
    EXPECT_EQ(x.sensor_years, y.sensor_years);
    EXPECT_EQ(x.precision, y.precision);
    EXPECT_EQ(x.vectors, y.vectors);
    EXPECT_EQ(x.errors, y.errors);
    EXPECT_EQ(x.canary_hits, y.canary_hits);
    EXPECT_EQ(x.max_settle_ps, y.max_settle_ps);
  }
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    const ControlEvent& x = a.events[i];
    const ControlEvent& y = b.events[i];
    SCOPED_TRACE(testing::Message() << "control event " << i);
    EXPECT_EQ(x.epoch, y.epoch);
    EXPECT_EQ(x.years, y.years);
    EXPECT_EQ(x.sensor_years, y.sensor_years);
    EXPECT_EQ(x.trigger, y.trigger);
    EXPECT_EQ(x.outcome, y.outcome);
    EXPECT_EQ(x.from_precision, y.from_precision);
    EXPECT_EQ(x.to_precision, y.to_precision);
    EXPECT_EQ(x.window_error_rate, y.window_error_rate);
    EXPECT_EQ(x.window_canary_rate, y.window_canary_rate);
    EXPECT_EQ(x.verified_sta_delay, y.verified_sta_delay);
  }
}

TEST_F(DeterminismTest, CampaignBitIdenticalAcrossThreadCounts) {
  // Every epoch and verify burst replays its vectors in chunks across the
  // Context's workers (replay_timed); a 1-thread Context runs one chunk.
  const CampaignRun serial = run_acceptance_campaigns(lib_, 1);
  const CampaignRun pooled = run_acceptance_campaigns(lib_, 4);

  {
    SCOPED_TRACE("open loop");
    expect_same_campaign(serial.open, pooled.open);
  }
  {
    SCOPED_TRACE("closed loop");
    expect_same_campaign(serial.closed, pooled.closed);
  }
  // The scenario exercises errors and the controller, not a quiet run.
  EXPECT_GT(serial.open.total_errors, 0u);
  EXPECT_FALSE(serial.closed.events.empty());

  EXPECT_FALSE(serial.log.empty());
  EXPECT_EQ(serial.log, pooled.log);
  EXPECT_GT(serial.timed_steps, 0u);
  EXPECT_EQ(serial.timed_steps, pooled.timed_steps);
  EXPECT_EQ(serial.timed_events, pooled.timed_events);
  EXPECT_GT(serial.aged_runs, 0u);
  EXPECT_EQ(serial.aged_runs, pooled.aged_runs);
  EXPECT_EQ(serial.store.netlist_hits, pooled.store.netlist_hits);
  EXPECT_EQ(serial.store.netlist_misses, pooled.store.netlist_misses);
  EXPECT_EQ(serial.store.library_hits, pooled.store.library_hits);
  EXPECT_EQ(serial.store.library_misses, pooled.store.library_misses);
  EXPECT_EQ(serial.store.delay_hits, pooled.store.delay_hits);
  EXPECT_EQ(serial.store.delay_misses, pooled.store.delay_misses);
  EXPECT_EQ(serial.store.surface_hits, pooled.store.surface_hits);
  EXPECT_EQ(serial.store.surface_misses, pooled.store.surface_misses);
}

}  // namespace
}  // namespace aapx
