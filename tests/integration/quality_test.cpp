// End-to-end quality integration: the paper's central claim. Removing the
// guardband naively lets nondeterministic timing errors corrupt arithmetic;
// converting the required guardband into a deterministic precision reduction
// keeps every operation timing-clean with a bounded, graceful quality cost.
#include <gtest/gtest.h>

#include "approx/error_bounds.hpp"
#include "core/characterizer.hpp"
#include "core/stimulus.hpp"
#include "engine/context.hpp"
#include "gatesim/timedsim.hpp"
#include "image/synthetic.hpp"
#include "rtl/codec.hpp"
#include "synth/components.hpp"

namespace aapx {
namespace {

class QualityIntegrationTest : public ::testing::Test {
 protected:
  const Context ctx_;
  CellLibrary lib_ = make_nangate45_like();
  AgingModel model_;
};

TEST_F(QualityIntegrationTest, TruncatedComponentIsTimingCleanUnderAging) {
  // Characterize a 16-bit adder for 10 years worst case, build the truncated
  // variant, and verify with the gate-level timed simulator that NO operation
  // errs at the original fresh clock under fully aged delays (Eq. 2).
  const ComponentSpec spec{ComponentKind::adder, 16, 0, AdderArch::cla4,
                           MultArch::array};
  CharacterizerOptions copt;
  copt.min_precision = 8;
  const ComponentCharacterizer ch(ctx_, lib_, model_, copt);
  const auto c = ch.characterize(spec, {{StressMode::worst, 10.0}});
  const int precision = c.required_precision(0);
  ASSERT_GT(precision, 0);
  ASSERT_LT(precision, 16);

  const double t_clock = c.full_fresh_delay();
  ComponentSpec trunc = spec;
  trunc.truncated_bits = 16 - precision;
  const Netlist nl = make_component(lib_, trunc);
  const Sta sta(nl);
  const DegradationAwareLibrary aged(lib_, model_, 10.0);
  const StressProfile stress =
      StressProfile::uniform(StressMode::worst, nl.num_gates());
  TimedSim sim(nl, sta.gate_delays(&aged, &stress));
  const StimulusSet stim = make_normal_stimulus(16, 500, 77, 64.0);
  for (const auto& row : stim.vectors) {
    sim.stage_bus("a", row[0]);
    sim.stage_bus("b", row[1]);
    EXPECT_FALSE(sim.step_staged(t_clock));
  }
}

TEST_F(QualityIntegrationTest, UntruncatedAgedComponentDoesErr) {
  // Control experiment: without the approximation, the same aged adder at the
  // same binned fresh clock produces timing errors (paper Fig. 1).
  const ComponentSpec spec{ComponentKind::adder, 16, 0, AdderArch::cla4,
                           MultArch::array};
  const Netlist nl = make_component(lib_, spec);
  const Sta sta(nl);
  const StimulusSet stim = make_normal_stimulus(16, 800, 77, 16.0);
  // Speed-bin the fresh clock over the stimulus.
  TimedSim fresh(nl, sta.gate_delays(nullptr, nullptr));
  double t_clock = 0.0;
  for (const auto& row : stim.vectors) {
    fresh.stage_bus("a", row[0]);
    fresh.stage_bus("b", row[1]);
    fresh.step_staged(1e12);
    t_clock = std::max(t_clock, fresh.last_output_settle_time());
  }
  const DegradationAwareLibrary aged(lib_, model_, 10.0);
  const StressProfile stress =
      StressProfile::uniform(StressMode::worst, nl.num_gates());
  TimedSim sim(nl, sta.gate_delays(&aged, &stress));
  int errors = 0;
  for (const auto& row : stim.vectors) {
    sim.stage_bus("a", row[0]);
    sim.stage_bus("b", row[1]);
    if (sim.step_staged(t_clock)) ++errors;
  }
  EXPECT_GT(errors, 0);
}

TEST_F(QualityIntegrationTest, ApproximationErrorIsBoundedTimingErrorIsNot) {
  // Deterministic approximation: max observed error respects the analytic
  // bound. Timing errors (sampling mid-flight) produce errors far beyond it.
  const int width = 12;
  const int k = 3;
  const Netlist approx = make_component(
      lib_, {ComponentKind::multiplier, width, k, AdderArch::cla4,
             MultArch::array});
  const Netlist exact = make_component(
      lib_, {ComponentKind::multiplier, width, 0, AdderArch::cla4,
             MultArch::array});
  const Sta asta(approx);
  const Sta esta(exact);
  TimedSim approx_sim(approx, asta.gate_delays(nullptr, nullptr));
  TimedSim broken_sim(exact, esta.gate_delays(nullptr, nullptr));
  const StimulusSet stim = make_normal_stimulus(width, 400, 13);
  const std::int64_t bound = multiplier_error_bound(width, k);
  std::int64_t worst_approx = 0;
  std::int64_t worst_timing = 0;
  for (const auto& row : stim.vectors) {
    const std::int64_t a = wrap_signed(static_cast<std::int64_t>(row[0]), width);
    const std::int64_t b = wrap_signed(static_cast<std::int64_t>(row[1]), width);
    approx_sim.stage_bus("a", row[0]);
    approx_sim.stage_bus("b", row[1]);
    approx_sim.step_staged(1e9);
    const std::int64_t ya =
        wrap_signed(static_cast<std::int64_t>(approx_sim.settled_bus("y")),
                    2 * width);
    worst_approx = std::max<std::int64_t>(worst_approx, std::llabs(ya - a * b));

    broken_sim.stage_bus("a", row[0]);
    broken_sim.stage_bus("b", row[1]);
    broken_sim.step_staged(esta.run_fresh().max_delay * 0.4);  // violent clock
    const std::int64_t yt =
        wrap_signed(static_cast<std::int64_t>(broken_sim.sampled_bus("y")),
                    2 * width);
    worst_timing = std::max<std::int64_t>(worst_timing, std::llabs(yt - a * b));
  }
  EXPECT_LE(worst_approx, bound);
  EXPECT_GT(worst_timing, bound);
}

TEST_F(QualityIntegrationTest, GracefulDegradationOverLifetime) {
  // Applying the per-lifetime required precision yields monotonically ordered
  // quality: later lifetimes need more truncation and cost more PSNR, but
  // remain usable — the paper's "gradually degrade in quality as they age".
  const ComponentSpec spec{ComponentKind::multiplier, 16, 0, AdderArch::cla4,
                           MultArch::array};
  CharacterizerOptions copt;
  copt.min_precision = 8;
  const ComponentCharacterizer ch(ctx_, lib_, model_, copt);
  const auto c = ch.characterize(
      spec, {{StressMode::worst, 1.0}, {StressMode::worst, 10.0}});
  const int k1 = 16 - c.required_precision(0);
  const int k10 = 16 - c.required_precision(1);
  ASSERT_LE(k1, k10);

  CodecConfig cfg;
  cfg.frac_bits = 7;
  const Image img = make_video_trace_frame("foreman", 64, 64);
  const QuantizedImage q = encode_and_quantize(img, cfg);
  double prev = 1e9;
  for (const int k : {0, k1, k10}) {
    ExactBackend be(32, k, 0);
    FixedPointIdct idct(cfg, be);
    const double p = psnr(img, idct.decode(q));
    EXPECT_LE(p, prev + 0.25);
    EXPECT_GT(p, 25.0);  // usable at every lifetime point
    prev = p;
  }
}

}  // namespace
}  // namespace aapx
