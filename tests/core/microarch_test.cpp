#include "core/microarch.hpp"

#include <gtest/gtest.h>

#include "engine/context.hpp"

namespace aapx {
namespace {

class MicroarchTest : public ::testing::Test {
 protected:
  const Context ctx_;
  CellLibrary lib_ = make_nangate45_like();
  AgingModel model_;

  MicroarchApproximator make_flow(int min_precision = 8) const {
    CharacterizerOptions opt;
    opt.min_precision = min_precision;
    return MicroarchApproximator(ctx_, lib_, model_, opt);
  }

  /// Small IDCT-shaped design: multiplier dominates, adder has slack.
  MicroarchSpec small_idct() const {
    MicroarchSpec spec;
    spec.name = "idct16";
    spec.blocks = {
        {"mult", {ComponentKind::multiplier, 16, 0, AdderArch::cla4,
                  MultArch::array}, false},
        {"acc", {ComponentKind::adder, 16, 0, AdderArch::cla4, MultArch::array},
         false},
        {"clamp", {ComponentKind::clamp, 16, 0, AdderArch::cla4, MultArch::array},
         false},
    };
    return spec;
  }
};

TEST_F(MicroarchTest, ConstraintIsWorstFreshBlock) {
  auto flow = make_flow();
  FlowOptions opt;
  opt.scenario = {StressMode::worst, 10.0};
  const FlowResult res = flow.run(small_idct(), opt);
  ASSERT_EQ(res.blocks.size(), 3u);
  double worst_fresh = 0.0;
  for (const BlockPlan& b : res.blocks) {
    worst_fresh = std::max(worst_fresh, b.fresh_delay);
  }
  EXPECT_DOUBLE_EQ(res.timing_constraint, worst_fresh);
  // In the IDCT shape, the multiplier is the critical block.
  EXPECT_DOUBLE_EQ(res.blocks[0].fresh_delay, res.timing_constraint);
}

TEST_F(MicroarchTest, OnlyCriticalBlockIsApproximated) {
  auto flow = make_flow();
  FlowOptions opt;
  opt.scenario = {StressMode::worst, 10.0};
  const FlowResult res = flow.run(small_idct(), opt);
  // Multiplier has negative slack -> reduced precision.
  EXPECT_LT(res.blocks[0].slack, 0.0);
  EXPECT_LT(res.blocks[0].chosen_precision, 16);
  // Adder and clamp have positive slack -> full precision (paper Fig. 6).
  EXPECT_GE(res.blocks[1].slack, 0.0);
  EXPECT_EQ(res.blocks[1].chosen_precision, 16);
  EXPECT_GE(res.blocks[2].slack, 0.0);
  EXPECT_EQ(res.blocks[2].chosen_precision, 16);
}

TEST_F(MicroarchTest, ValidationMeetsTiming) {
  auto flow = make_flow();
  FlowOptions opt;
  opt.scenario = {StressMode::worst, 10.0};
  const FlowResult res = flow.run(small_idct(), opt);
  EXPECT_TRUE(res.timing_met);
  EXPECT_DOUBLE_EQ(res.residual_guardband, 0.0);
  for (const BlockPlan& b : res.blocks) {
    EXPECT_TRUE(b.meets) << b.spec.name;
    EXPECT_LE(b.aged_delay_final, res.timing_constraint + 1e-6) << b.spec.name;
  }
}

TEST_F(MicroarchTest, RelSlackMatchesDefinition) {
  auto flow = make_flow();
  FlowOptions opt;
  opt.scenario = {StressMode::worst, 10.0};
  const FlowResult res = flow.run(small_idct(), opt);
  for (const BlockPlan& b : res.blocks) {
    EXPECT_NEAR(b.slack, res.timing_constraint - b.aged_delay_full, 1e-9);
    EXPECT_NEAR(b.rel_slack, b.slack / res.timing_constraint, 1e-12);
  }
}

TEST_F(MicroarchTest, ProtectedBlocksNeverApproximated) {
  MicroarchSpec spec = small_idct();
  spec.blocks[0].protect = true;  // protect the critical multiplier
  auto flow = make_flow();
  FlowOptions opt;
  opt.scenario = {StressMode::worst, 10.0};
  const FlowResult res = flow.run(spec, opt);
  EXPECT_EQ(res.blocks[0].chosen_precision, 16);
  // Aging the protected block past the constraint is reported as unmet.
  EXPECT_FALSE(res.blocks[0].meets);
  EXPECT_FALSE(res.timing_met);
  EXPECT_GT(res.residual_guardband, 0.0);
}

TEST_F(MicroarchTest, MildScenarioNeedsNoApproximation) {
  auto flow = make_flow();
  FlowOptions opt;
  opt.scenario = {StressMode::balanced, 10.0};
  // Single-block design: the block is the constraint setter, so aging always
  // violates; use a two-block design where the small block never violates.
  MicroarchSpec spec;
  spec.name = "lopsided";
  spec.blocks = {
      {"big", {ComponentKind::multiplier, 16, 0, AdderArch::cla4,
               MultArch::array}, false},
      {"tiny", {ComponentKind::adder, 8, 0, AdderArch::ripple, MultArch::array},
       false},
  };
  const FlowResult res = flow.run(spec, opt);
  EXPECT_EQ(res.blocks[1].chosen_precision, 8);
  EXPECT_TRUE(res.blocks[1].meets);
}

TEST_F(MicroarchTest, LibraryCachesCharacterizations) {
  auto flow = make_flow();
  FlowOptions opt;
  opt.scenario = {StressMode::worst, 10.0};
  flow.run(small_idct(), opt);
  EXPECT_TRUE(flow.library().contains("multiplier16_array"));
  // The non-violating blocks never needed characterizing.
  EXPECT_FALSE(flow.library().contains("adder16_cla4"));
}

TEST_F(MicroarchTest, BuildBlockUsesChosenPrecision) {
  auto flow = make_flow();
  FlowOptions opt;
  opt.scenario = {StressMode::worst, 10.0};
  const FlowResult res = flow.run(small_idct(), opt);
  const Netlist nl = flow.build_block(res.blocks[0]);
  // Interface width unchanged; LSB inputs of the truncated operands dangle.
  EXPECT_EQ(nl.input_bus("a").size(), 16u);
  const int k = 16 - res.blocks[0].chosen_precision;
  ASSERT_GT(k, 0);
  for (int i = 0; i < k; ++i) {
    EXPECT_TRUE(nl.readers(nl.input_bus("a")[static_cast<std::size_t>(i)]).empty());
  }
}

TEST_F(MicroarchTest, InputValidation) {
  auto flow = make_flow();
  FlowOptions opt;
  EXPECT_THROW(flow.run(MicroarchSpec{}, opt), std::invalid_argument);
  MicroarchSpec bad;
  bad.blocks = {{"b", {ComponentKind::adder, 8, 2, AdderArch::cla4,
                       MultArch::array}, false}};
  EXPECT_THROW(flow.run(bad, opt), std::invalid_argument);
}

}  // namespace
}  // namespace aapx
