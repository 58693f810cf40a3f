// End-to-end integration of the paper's flow (Fig. 6) against the baseline
// aging-aware synthesis [4]: the approximated design must meet timing under
// aging while being smaller and cheaper than the sized design.
#include <gtest/gtest.h>

#include "core/microarch.hpp"
#include "engine/context.hpp"
#include "netlist/stats.hpp"
#include "power/power.hpp"
#include "synth/sizing.hpp"
#include "util/rng.hpp"

namespace aapx {
namespace {

class FlowIntegrationTest : public ::testing::Test {
 protected:
  const Context ctx_;
  CellLibrary lib_ = make_nangate45_like();
  AgingModel model_;
};

TEST_F(FlowIntegrationTest, ApproximationBeatsSizingOnAreaAndLeakage) {
  const ComponentSpec mult_spec{ComponentKind::multiplier, 16, 0,
                                AdderArch::cla4, MultArch::array};
  const Netlist original = make_component(lib_, mult_spec);
  const Sta sta(original);
  const double target = sta.run_fresh().max_delay;
  const DegradationAwareLibrary aged(lib_, model_, 10.0);
  const StressProfile stress =
      StressProfile::uniform(StressMode::worst, original.num_gates());

  // Baseline [4]: upsize until the aged netlist meets the fresh clock.
  const SizingResult sized = size_for_aging(original, aged, stress, target);
  ASSERT_TRUE(sized.met);

  // Ours: characterize and truncate until the aged netlist meets it.
  CharacterizerOptions copt;
  copt.min_precision = 10;
  const ComponentCharacterizer ch(ctx_, lib_, model_, copt);
  const auto c =
      ch.characterize(mult_spec, {{StressMode::worst, 10.0}});
  const int precision = c.required_precision(0);
  ASSERT_GT(precision, 0);
  ComponentSpec approx_spec = mult_spec;
  approx_spec.truncated_bits = 16 - precision;
  const Netlist approximated = make_component(lib_, approx_spec);
  const Sta asta(approximated);
  const StressProfile astress =
      StressProfile::uniform(StressMode::worst, approximated.num_gates());
  EXPECT_LE(asta.run_aged(aged, astress).max_delay, target + 1e-6);

  // Fig. 8c direction: approximation SAVES area while sizing COSTS area.
  const double area_orig = compute_stats(original).cell_area;
  const double area_sized = compute_stats(sized.netlist).cell_area;
  const double area_approx = compute_stats(approximated).cell_area;
  EXPECT_GT(area_sized, area_orig);
  EXPECT_LT(area_approx, area_orig);
  EXPECT_LT(area_approx, area_sized);
}

TEST_F(FlowIntegrationTest, ApproximatedDesignUsesLessPowerThanSized) {
  const ComponentSpec spec{ComponentKind::multiplier, 12, 0, AdderArch::cla4,
                           MultArch::array};
  const Netlist original = make_component(lib_, spec);
  const Sta sta(original);
  const double target = sta.run_fresh().max_delay;
  const DegradationAwareLibrary aged(lib_, model_, 10.0);
  const StressProfile stress =
      StressProfile::uniform(StressMode::worst, original.num_gates());
  const SizingResult sized = size_for_aging(original, aged, stress, target);
  ASSERT_TRUE(sized.met);

  CharacterizerOptions copt;
  copt.min_precision = 6;
  const ComponentCharacterizer ch(ctx_, lib_, model_, copt);
  const auto c = ch.characterize(spec, {{StressMode::worst, 10.0}});
  const int precision = c.required_precision(0);
  ASSERT_GT(precision, 0);
  ComponentSpec approx_spec = spec;
  approx_spec.truncated_bits = 12 - precision;
  const Netlist approximated = make_component(lib_, approx_spec);

  auto measure = [&](const Netlist& nl) {
    const Sta s(nl);
    TimedSim sim(nl, s.gate_delays(nullptr, nullptr));
    sim.clear_activity();
    Rng rng(1);
    for (int i = 0; i < 300; ++i) {
      sim.stage_bus("a", rng.next_u64() & 0xFFF);
      sim.stage_bus("b", rng.next_u64() & 0xFFF);
      sim.step_staged(1e9);
    }
    return analyze_power(nl, sim.activity(), target);
  };
  const PowerReport p_sized = measure(sized.netlist);
  const PowerReport p_approx = measure(approximated);
  EXPECT_LT(p_approx.leakage_nw, p_sized.leakage_nw);
  EXPECT_LT(p_approx.energy_per_cycle_fj, p_sized.energy_per_cycle_fj);
}

TEST_F(FlowIntegrationTest, FullMicroarchFlowOnIdctShape) {
  // The 16-bit replica of the paper's IDCT study: flow must converge, meet
  // timing, and keep the non-critical blocks exact.
  CharacterizerOptions copt;
  copt.min_precision = 8;
  MicroarchApproximator flow(ctx_, lib_, model_, copt);
  MicroarchSpec spec;
  spec.name = "idct";
  spec.blocks = {
      {"mult", {ComponentKind::multiplier, 16, 0, AdderArch::cla4,
                MultArch::array}, false},
      {"acc", {ComponentKind::adder, 16, 0, AdderArch::cla4, MultArch::array},
       false},
      {"clamp", {ComponentKind::clamp, 16, 0, AdderArch::cla4, MultArch::array},
       false},
      {"ctrl", {ComponentKind::adder, 10, 0, AdderArch::kogge_stone,
                MultArch::array}, true},  // protected control block
  };
  FlowOptions opt;
  opt.scenario = {StressMode::worst, 10.0};
  const FlowResult res = flow.run(spec, opt);
  EXPECT_TRUE(res.timing_met);
  EXPECT_LT(res.blocks[0].chosen_precision, 16);   // mult truncated
  EXPECT_EQ(res.blocks[1].chosen_precision, 16);   // adder exact
  EXPECT_EQ(res.blocks[3].chosen_precision, 10);   // protected stays exact
  // Measured-vs-worst consistency: worst-case plan absorbs a balanced run too.
  FlowOptions mild;
  mild.scenario = {StressMode::balanced, 10.0};
  const FlowResult mild_res = flow.run(spec, mild);
  EXPECT_GE(mild_res.blocks[0].chosen_precision, res.blocks[0].chosen_precision);
}

}  // namespace
}  // namespace aapx
