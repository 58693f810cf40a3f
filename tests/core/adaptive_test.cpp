#include "core/adaptive.hpp"

#include <gtest/gtest.h>

#include "engine/context.hpp"

namespace aapx {
namespace {

class AdaptiveTest : public ::testing::Test {
 protected:
  const Context ctx_;
  CellLibrary lib_ = make_nangate45_like();
  AgingModel model_;

  ComponentCharacterizer make_characterizer(int min_precision = 8) const {
    CharacterizerOptions opt;
    opt.min_precision = min_precision;
    return ComponentCharacterizer(ctx_, lib_, model_, opt);
  }
};

TEST_F(AdaptiveTest, ScheduleIsMonotoneAndFeasible) {
  const auto ch = make_characterizer();
  const AdaptiveScheduler scheduler(ch);
  const double grid[] = {0.5, 1.0, 2.0, 5.0, 10.0};
  const AdaptiveSchedule plan = scheduler.plan(
      {ComponentKind::adder, 16, 0, AdderArch::cla4, MultArch::array},
      StressMode::worst, grid);
  EXPECT_TRUE(plan.feasible);
  ASSERT_GE(plan.steps.size(), 2u);
  EXPECT_DOUBLE_EQ(plan.steps.front().from_years, 0.0);
  for (std::size_t i = 1; i < plan.steps.size(); ++i) {
    EXPECT_GT(plan.steps[i - 1].precision, plan.steps[i].precision);
    EXPECT_LT(plan.steps[i - 1].from_years, plan.steps[i].from_years);
  }
  // Every step's end-of-life aged delay meets the constraint.
  for (const ScheduleStep& step : plan.steps) {
    EXPECT_LE(step.aged_delay, plan.timing_constraint + 1e-9);
  }
}

TEST_F(AdaptiveTest, PrecisionAtLookup) {
  const auto ch = make_characterizer();
  const AdaptiveScheduler scheduler(ch);
  const double grid[] = {1.0, 10.0};
  const AdaptiveSchedule plan = scheduler.plan(
      {ComponentKind::adder, 16, 0, AdderArch::ripple, MultArch::array},
      StressMode::worst, grid);
  ASSERT_TRUE(plan.feasible);
  // At t=0 the device runs at the first step's precision; precision is
  // non-increasing afterwards.
  int prev = plan.precision_at(0.0);
  for (const double y : {0.5, 1.0, 3.0, 9.0, 20.0}) {
    const int k = plan.precision_at(y);
    EXPECT_LE(k, prev);
    prev = k;
  }
}

TEST_F(AdaptiveTest, AdaptiveNeverWorseThanFixedDesign) {
  // The fixed design picks the 10-year precision on day one; the schedule
  // must equal it at end of life and dominate it earlier.
  const auto ch = make_characterizer();
  const AdaptiveScheduler scheduler(ch);
  const ComponentSpec spec{ComponentKind::adder, 16, 0, AdderArch::cla4,
                           MultArch::array};
  const double grid[] = {1.0, 2.0, 5.0, 10.0};
  const AdaptiveSchedule plan = scheduler.plan(spec, StressMode::worst, grid);
  ASSERT_TRUE(plan.feasible);
  const auto c = ch.characterize(spec, {{StressMode::worst, 10.0}});
  const int fixed = c.required_precision(0);
  EXPECT_EQ(plan.precision_at(10.0), fixed);
  EXPECT_GT(plan.precision_at(0.5), fixed);
}

TEST_F(AdaptiveTest, BalancedScheduleShedsFewerBits) {
  const auto ch = make_characterizer();
  const AdaptiveScheduler scheduler(ch);
  const ComponentSpec spec{ComponentKind::adder, 16, 0, AdderArch::cla4,
                           MultArch::array};
  const double grid[] = {1.0, 10.0};
  const AdaptiveSchedule worst = scheduler.plan(spec, StressMode::worst, grid);
  const AdaptiveSchedule balanced =
      scheduler.plan(spec, StressMode::balanced, grid);
  EXPECT_GE(balanced.precision_at(10.0), worst.precision_at(10.0));
}

TEST_F(AdaptiveTest, GuardbandBookkeepingGrows) {
  const auto ch = make_characterizer();
  const AdaptiveScheduler scheduler(ch);
  const double grid[] = {1.0, 5.0, 10.0};
  const AdaptiveSchedule plan = scheduler.plan(
      {ComponentKind::multiplier, 12, 0, AdderArch::cla4, MultArch::array},
      StressMode::worst, grid);
  ASSERT_TRUE(plan.feasible);
  // The guardband a fixed unapproximated design would need grows over life.
  double prev = -1.0;
  for (const ScheduleStep& step : plan.steps) {
    EXPECT_GE(step.guardband_if_unapproximated, prev);
    prev = step.guardband_if_unapproximated;
  }
  EXPECT_GT(prev, 0.0);
}

TEST_F(AdaptiveTest, InputValidation) {
  const auto ch = make_characterizer();
  const AdaptiveScheduler scheduler(ch);
  const ComponentSpec spec{ComponentKind::adder, 8, 0, AdderArch::cla4,
                           MultArch::array};
  EXPECT_THROW(scheduler.plan(spec, StressMode::worst, {}),
               std::invalid_argument);
  const double unsorted[] = {2.0, 1.0};
  EXPECT_THROW(scheduler.plan(spec, StressMode::worst, unsorted),
               std::invalid_argument);
  const double grid[] = {1.0};
  EXPECT_THROW(scheduler.plan(spec, StressMode::measured, grid),
               std::invalid_argument);
  const double negative[] = {-1.0, 5.0};
  EXPECT_THROW(scheduler.plan(spec, StressMode::worst, negative),
               std::invalid_argument);
  const double zero_year[] = {0.0, 5.0};
  EXPECT_THROW(scheduler.plan(spec, StressMode::worst, zero_year),
               std::invalid_argument);
  const double duplicate[] = {1.0, 1.0};
  EXPECT_THROW(scheduler.plan(spec, StressMode::worst, duplicate),
               std::invalid_argument);
}

TEST_F(AdaptiveTest, InfeasibleGridReported) {
  // A Kogge-Stone adder cannot compensate aging by truncation: infeasible.
  CharacterizerOptions opt;
  opt.min_precision = 12;
  const ComponentCharacterizer ch(ctx_, lib_, model_, opt);
  const AdaptiveScheduler scheduler(ch);
  const double grid[] = {10.0};
  const AdaptiveSchedule plan = scheduler.plan(
      {ComponentKind::adder, 16, 0, AdderArch::kogge_stone, MultArch::array},
      StressMode::worst, grid);
  EXPECT_FALSE(plan.feasible);
}

}  // namespace
}  // namespace aapx
