#include "sta/variation.hpp"

#include <gtest/gtest.h>

#include "synth/components.hpp"

namespace aapx {
namespace {

class VariationTest : public ::testing::Test {
 protected:
  CellLibrary lib_ = make_nangate45_like();
  AgingModel model_;
  Netlist nl_ = make_component(
      lib_, {ComponentKind::adder, 12, 0, AdderArch::cla4, MultArch::array});
};

TEST_F(VariationTest, ZeroSigmaReproducesSta) {
  VariationParams params;
  params.local_sigma = 0.0;
  params.global_sigma = 0.0;
  const MonteCarloSta mc(nl_, params);
  const VariationResult res = mc.run_fresh(5);
  const double nominal = Sta(nl_).run_fresh().max_delay;
  for (const double s : res.samples) EXPECT_EQ(s, nominal);
  EXPECT_DOUBLE_EQ(res.guardband(nominal, 0.99), 0.0);
}

TEST_F(VariationTest, SamplesSortedAndSpread) {
  const MonteCarloSta mc(nl_);
  const VariationResult res = mc.run_fresh(200);
  ASSERT_EQ(res.samples.size(), 200u);
  EXPECT_TRUE(std::is_sorted(res.samples.begin(), res.samples.end()));
  EXPECT_GT(res.samples.back(), res.samples.front());
  EXPECT_GT(res.quantile(0.99), res.quantile(0.5));
  EXPECT_NEAR(res.quantile(0.5), res.mean(), res.mean() * 0.05);
}

TEST_F(VariationTest, Deterministic) {
  const MonteCarloSta a(nl_);
  const MonteCarloSta b(nl_);
  EXPECT_EQ(a.run_fresh(50).samples, b.run_fresh(50).samples);
  VariationParams other;
  other.seed = 2;
  const MonteCarloSta c(nl_, other);
  EXPECT_NE(a.run_fresh(50).samples, c.run_fresh(50).samples);
}

TEST_F(VariationTest, MeanTracksNominal) {
  const MonteCarloSta mc(nl_);
  const double nominal = Sta(nl_).run_fresh().max_delay;
  const VariationResult res = mc.run_fresh(300);
  // Mean-one variation factors: the MC mean sits near (slightly above, max
  // statistics) the nominal STA delay.
  EXPECT_GT(res.mean(), nominal * 0.95);
  EXPECT_LT(res.mean(), nominal * 1.15);
}

TEST_F(VariationTest, AgingShiftsWholeDistribution) {
  const MonteCarloSta mc(nl_);
  const DegradationAwareLibrary aged(lib_, model_, 10.0);
  const StressProfile stress =
      StressProfile::uniform(StressMode::worst, nl_.num_gates());
  const VariationResult fresh = mc.run_fresh(100);
  const VariationResult worn = mc.run_aged(aged, stress, 100);
  EXPECT_GT(worn.quantile(0.05), fresh.quantile(0.5));
  EXPECT_GT(worn.mean(), fresh.mean() * 1.1);
}

TEST_F(VariationTest, WiderSigmaWidensGuardband) {
  VariationParams tight;
  tight.local_sigma = 0.01;
  tight.global_sigma = 0.01;
  VariationParams wide;
  wide.local_sigma = 0.08;
  wide.global_sigma = 0.06;
  const double nominal = Sta(nl_).run_fresh().max_delay;
  const double gb_tight =
      MonteCarloSta(nl_, tight).run_fresh(200).guardband(nominal, 0.99);
  const double gb_wide =
      MonteCarloSta(nl_, wide).run_fresh(200).guardband(nominal, 0.99);
  EXPECT_GT(gb_wide, gb_tight);
}

TEST_F(VariationTest, Validation) {
  VariationParams bad;
  bad.local_sigma = -0.1;
  EXPECT_THROW(MonteCarloSta(nl_, bad), std::invalid_argument);
  const MonteCarloSta mc(nl_);
  EXPECT_THROW(mc.run_fresh(0), std::invalid_argument);
  const VariationResult res = mc.run_fresh(10);
  EXPECT_THROW(res.quantile(1.5), std::invalid_argument);
}

}  // namespace
}  // namespace aapx
