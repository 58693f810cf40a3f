#include "core/characterizer.hpp"

#include <gtest/gtest.h>

#include "engine/context.hpp"

namespace aapx {
namespace {

class CharacterizerTest : public ::testing::Test {
 protected:
  const Context ctx_;
  CellLibrary lib_ = make_nangate45_like();
  AgingModel model_;

  ComponentCharacterizer make(int min_precision = 8) const {
    CharacterizerOptions opt;
    opt.min_precision = min_precision;
    return ComponentCharacterizer(ctx_, lib_, model_, opt);
  }
};

TEST_F(CharacterizerTest, SweepCoversRequestedPrecisions) {
  const auto ch = make(10);
  const auto c = ch.characterize(
      {ComponentKind::adder, 16, 0, AdderArch::cla4, MultArch::array},
      {{StressMode::worst, 10.0}});
  ASSERT_EQ(c.points.size(), 7u);  // 16 down to 10
  EXPECT_EQ(c.points.front().precision, 16);
  EXPECT_EQ(c.points.back().precision, 10);
  for (const auto& p : c.points) {
    ASSERT_EQ(p.aged_delay.size(), 1u);
    EXPECT_GT(p.fresh_delay, 0.0);
    EXPECT_GT(p.aged_delay[0], p.fresh_delay);  // aging always slows
    EXPECT_GT(p.gates, 0u);
    EXPECT_GT(p.area, 0.0);
  }
}

TEST_F(CharacterizerTest, DelayDecreasesWithPrecision) {
  const auto ch = make(8);
  const auto c = ch.characterize(
      {ComponentKind::adder, 16, 0, AdderArch::ripple, MultArch::array},
      {{StressMode::worst, 10.0}});
  for (std::size_t i = 1; i < c.points.size(); ++i) {
    EXPECT_LT(c.points[i].fresh_delay, c.points[i - 1].fresh_delay);
    EXPECT_LT(c.points[i].aged_delay[0], c.points[i - 1].aged_delay[0]);
    EXPECT_LT(c.points[i].area, c.points[i - 1].area);
  }
}

TEST_F(CharacterizerTest, LongerLifetimeNeedsLowerPrecision) {
  const auto ch = make(6);
  const auto c = ch.characterize(
      {ComponentKind::adder, 16, 0, AdderArch::ripple, MultArch::array},
      {{StressMode::worst, 1.0}, {StressMode::worst, 10.0}});
  const int k1 = c.required_precision(0);
  const int k10 = c.required_precision(1);
  ASSERT_GT(k1, 0);
  ASSERT_GT(k10, 0);
  EXPECT_LE(k10, k1);
  EXPECT_LT(k10, 16);  // some truncation is genuinely needed
}

TEST_F(CharacterizerTest, BalancedNeedsLessTruncationThanWorst) {
  const auto ch = make(6);
  const auto c = ch.characterize(
      {ComponentKind::adder, 16, 0, AdderArch::ripple, MultArch::array},
      {{StressMode::balanced, 10.0}, {StressMode::worst, 10.0}});
  EXPECT_GE(c.required_precision(0), c.required_precision(1));
}

TEST_F(CharacterizerTest, MeasuredScenarioRequiresStimulus) {
  const auto ch = make(8);
  EXPECT_THROW(
      ch.characterize({ComponentKind::adder, 8, 0, AdderArch::cla4,
                       MultArch::array},
                      {{StressMode::measured, 10.0}}),
      std::invalid_argument);
}

TEST_F(CharacterizerTest, MeasuredBetweenFreshAndWorst) {
  const auto ch = make(8);
  const ComponentSpec spec{ComponentKind::adder, 8, 0, AdderArch::cla4,
                           MultArch::array};
  const StimulusSet stim = make_normal_stimulus(8, 300, 21);
  const auto c = ch.characterize(
      spec, {{StressMode::measured, 10.0}, {StressMode::worst, 10.0}}, &stim);
  const auto& full = c.points.front();
  EXPECT_GT(full.aged_delay[0], full.fresh_delay);
  EXPECT_LT(full.aged_delay[0], full.aged_delay[1]);  // measured < worst
}

TEST_F(CharacterizerTest, AgedDelayFreshScenarioEqualsFresh) {
  const auto ch = make(8);
  const Netlist nl = make_component(
      lib_, {ComponentKind::adder, 8, 0, AdderArch::cla4, MultArch::array});
  const Sta sta(nl);
  EXPECT_NEAR(ch.aged_delay(nl, AgingScenario::fresh()),
              sta.run_fresh().max_delay, 1e-9);
}

TEST_F(CharacterizerTest, InputValidation) {
  const auto ch = make(8);
  ComponentSpec truncated{ComponentKind::adder, 8, 2, AdderArch::cla4,
                          MultArch::array};
  EXPECT_THROW(ch.characterize(truncated, {{StressMode::worst, 1.0}}),
               std::invalid_argument);
  const auto bad = make(99);
  EXPECT_THROW(bad.characterize({ComponentKind::adder, 8, 0, AdderArch::cla4,
                                 MultArch::array},
                                {{StressMode::worst, 1.0}}),
               std::invalid_argument);
  CharacterizerOptions zero_step;
  zero_step.precision_step = 0;
  EXPECT_THROW(ComponentCharacterizer(ctx_, lib_, model_, zero_step),
               std::invalid_argument);
}

TEST_F(CharacterizerTest, RejectsOutOfRangeWidths) {
  const auto ch = make(1);
  for (const int width : {0, -4, 65, 128}) {
    EXPECT_THROW(ch.characterize({ComponentKind::adder, width, 0,
                                  AdderArch::ripple, MultArch::array},
                                 {{StressMode::worst, 1.0}}),
                 std::invalid_argument)
        << "width " << width;
  }
}

TEST_F(CharacterizerTest, RejectsNegativeScenarioYears) {
  const auto ch = make(8);
  EXPECT_THROW(ch.characterize({ComponentKind::adder, 8, 0, AdderArch::cla4,
                                MultArch::array},
                               {{StressMode::worst, -1.0}}),
               std::invalid_argument);
}

TEST_F(CharacterizerTest, RejectsEmptyMeasuredStimulus) {
  const auto ch = make(8);
  const ComponentSpec spec{ComponentKind::adder, 8, 0, AdderArch::cla4,
                           MultArch::array};
  const StimulusSet empty;
  EXPECT_THROW(
      ch.characterize(spec, {{StressMode::measured, 10.0}}, &empty),
      std::invalid_argument);
}

TEST_F(CharacterizerTest, PaperHeadlineNumbers) {
  // The calibrated reproduction of paper Figs. 4 and 7 (see EXPERIMENTS.md):
  // 32-bit CLA adder needs 6 bits after 1 year and 8 bits after 10 years of
  // worst-case aging; the 32-bit array multiplier needs 2 and 3 bits.
  CharacterizerOptions opt;
  opt.min_precision = 22;
  const ComponentCharacterizer ch(ctx_, lib_, model_, opt);
  const auto adder = ch.characterize(
      {ComponentKind::adder, 32, 0, AdderArch::cla4, MultArch::array},
      {{StressMode::worst, 1.0}, {StressMode::worst, 10.0}});
  EXPECT_EQ(32 - adder.required_precision(0), 6);
  EXPECT_EQ(32 - adder.required_precision(1), 8);

  CharacterizerOptions mopt;
  mopt.min_precision = 28;
  const ComponentCharacterizer mch(ctx_, lib_, model_, mopt);
  const auto mult = mch.characterize(
      {ComponentKind::multiplier, 32, 0, AdderArch::cla4, MultArch::array},
      {{StressMode::worst, 1.0}, {StressMode::worst, 10.0}});
  EXPECT_EQ(32 - mult.required_precision(0), 2);
  EXPECT_EQ(32 - mult.required_precision(1), 3);
}

}  // namespace
}  // namespace aapx
