// Thread-count determinism: every parallel_for grain writes only to its own
// index slot, so characterization, Monte-Carlo STA and measured-stress
// extraction must produce bit-identical results at any worker count. Each
// case runs once on a 1-thread Context and once on a 4-thread Context.
#include <gtest/gtest.h>

#include "core/characterizer.hpp"
#include "core/stimulus.hpp"
#include "engine/context.hpp"
#include "obs/metrics.hpp"
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

}  // namespace
}  // namespace aapx
