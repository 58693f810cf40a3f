// Measured-stress ("actual-case") paths of the microarchitecture flow.
#include <gtest/gtest.h>

#include "core/microarch.hpp"
#include "engine/context.hpp"

namespace aapx {
namespace {

class MicroarchStimuliTest : public ::testing::Test {
 protected:
  const Context ctx_;
  CellLibrary lib_ = make_nangate45_like();
  AgingModel model_;

  MicroarchSpec two_block() const {
    MicroarchSpec spec;
    spec.name = "mini";
    spec.blocks = {
        {"mult", {ComponentKind::multiplier, 12, 0, AdderArch::cla4,
                  MultArch::array}, false},
        {"acc", {ComponentKind::adder, 12, 0, AdderArch::cla4, MultArch::array},
         false},
    };
    return spec;
  }
};

TEST_F(MicroarchStimuliTest, MeasuredScenarioUsesPerBlockStimuli) {
  CharacterizerOptions copt;
  copt.min_precision = 6;
  MicroarchApproximator flow(ctx_, lib_, model_, copt);
  FlowOptions opt;
  opt.scenario = {StressMode::measured, 10.0};
  opt.stimuli["mult"] = make_normal_stimulus(12, 200, 3, 200.0);
  opt.stimuli["acc"] = make_normal_stimulus(12, 200, 5, 200.0);
  const FlowResult res = flow.run(two_block(), opt);
  EXPECT_TRUE(res.timing_met);
  // Actual-case aging is milder than worst case: at most as much truncation.
  FlowOptions worst;
  worst.scenario = {StressMode::worst, 10.0};
  const FlowResult wc = flow.run(two_block(), worst);
  EXPECT_GE(res.blocks[0].chosen_precision, wc.blocks[0].chosen_precision);
}

TEST_F(MicroarchStimuliTest, MeasuredScenarioWithoutStimuliThrows) {
  CharacterizerOptions copt;
  copt.min_precision = 6;
  MicroarchApproximator flow(ctx_, lib_, model_, copt);
  FlowOptions opt;
  opt.scenario = {StressMode::measured, 10.0};
  // No stimuli registered for the blocks.
  EXPECT_THROW(flow.run(two_block(), opt), std::invalid_argument);
}

TEST_F(MicroarchStimuliTest, CharacterizerPrecisionStepRespected) {
  CharacterizerOptions copt;
  copt.min_precision = 8;
  copt.precision_step = 2;
  const ComponentCharacterizer ch(ctx_, lib_, model_, copt);
  const auto c = ch.characterize(
      {ComponentKind::adder, 16, 0, AdderArch::cla4, MultArch::array},
      {{StressMode::worst, 10.0}});
  ASSERT_EQ(c.points.size(), 5u);  // 16, 14, 12, 10, 8
  for (std::size_t i = 1; i < c.points.size(); ++i) {
    EXPECT_EQ(c.points[i - 1].precision - c.points[i].precision, 2);
  }
}

TEST_F(MicroarchStimuliTest, LibraryExtendsAcrossScenarios) {
  // Running two scenarios in sequence must re-characterize with the union of
  // scenarios instead of failing the index lookup.
  CharacterizerOptions copt;
  copt.min_precision = 6;
  MicroarchApproximator flow(ctx_, lib_, model_, copt);
  FlowOptions ten;
  ten.scenario = {StressMode::worst, 10.0};
  FlowOptions one;
  one.scenario = {StressMode::worst, 1.0};
  const FlowResult first = flow.run(two_block(), ten);
  const FlowResult second = flow.run(two_block(), one);
  EXPECT_TRUE(first.timing_met);
  EXPECT_TRUE(second.timing_met);
  const auto& c = flow.library().at("multiplier12_array");
  EXPECT_EQ(c.scenarios.size(), 2u);
}

}  // namespace
}  // namespace aapx
