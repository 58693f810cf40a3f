#include "sta/sta.hpp"

#include <gtest/gtest.h>

#include "synth/components.hpp"

namespace aapx {
namespace {

class StaTest : public ::testing::Test {
 protected:
  CellLibrary lib_ = make_nangate45_like();
  AgingModel model_;

  Netlist make_adder(int width, AdderArch arch = AdderArch::ripple) const {
    return make_component(lib_,
                          {ComponentKind::adder, width, 0, arch, MultArch::array});
  }
};

TEST_F(StaTest, EmptyDesignHasZeroDelay) {
  Netlist nl(lib_);
  const NetId a = nl.add_input("a");
  nl.mark_output(a, "y");  // wire-through
  const StaResult res = Sta(nl).run_fresh();
  EXPECT_DOUBLE_EQ(res.max_delay, 0.0);
}

TEST_F(StaTest, SingleGateDelayMatchesTable) {
  Netlist nl(lib_);
  const NetId a = nl.add_input("a");
  const NetId y = nl.mk(LogicFn::kInv, a);
  nl.mark_output(y, "y");
  StaOptions opt;
  const StaResult res = Sta(nl, opt).run_fresh();
  const Cell& inv = lib_.cell(lib_.smallest(LogicFn::kInv));
  const double load = opt.primary_output_load;  // no readers, PO load only
  const double expect =
      std::max(inv.arc(0).rise_delay.lookup(opt.primary_input_slew, load),
               inv.arc(0).fall_delay.lookup(opt.primary_input_slew, load));
  EXPECT_NEAR(res.max_delay, expect, 1e-9);
}

TEST_F(StaTest, DelayGrowsWithWidthForRipple) {
  double prev = 0.0;
  for (const int width : {4, 8, 16, 32}) {
    const double d = Sta(make_adder(width)).run_fresh().max_delay;
    EXPECT_GT(d, prev);
    prev = d;
  }
}

TEST_F(StaTest, RippleSlowerThanCla4SlowerThanKoggeStone) {
  const double ripple = Sta(make_adder(32, AdderArch::ripple)).run_fresh().max_delay;
  const double cla = Sta(make_adder(32, AdderArch::cla4)).run_fresh().max_delay;
  const double ks = Sta(make_adder(32, AdderArch::kogge_stone)).run_fresh().max_delay;
  EXPECT_GT(ripple, cla);
  EXPECT_GT(cla, ks);
}

TEST_F(StaTest, AgedSlowerThanFresh) {
  const Netlist nl = make_adder(16);
  const Sta sta(nl);
  const double fresh = sta.run_fresh().max_delay;
  const DegradationAwareLibrary aged(lib_, model_, 10.0);
  const StressProfile stress =
      StressProfile::uniform(StressMode::worst, nl.num_gates());
  const double aged_delay = sta.run_aged(aged, stress).max_delay;
  EXPECT_GT(aged_delay, fresh);
  // Within the calibrated band (a few % to ~30%).
  EXPECT_LT(aged_delay, fresh * 1.4);
}

TEST_F(StaTest, WorstStressSlowerThanBalanced) {
  const Netlist nl = make_adder(16);
  const Sta sta(nl);
  const DegradationAwareLibrary aged(lib_, model_, 10.0);
  const double worst =
      sta.run_aged(aged, StressProfile::uniform(StressMode::worst, nl.num_gates()))
          .max_delay;
  const double bal =
      sta.run_aged(aged,
                   StressProfile::uniform(StressMode::balanced, nl.num_gates()))
          .max_delay;
  EXPECT_GT(worst, bal);
}

TEST_F(StaTest, ZeroYearAgedEqualsFresh) {
  const Netlist nl = make_adder(8);
  const Sta sta(nl);
  const DegradationAwareLibrary aged(lib_, model_, 0.0);
  const StressProfile stress =
      StressProfile::uniform(StressMode::worst, nl.num_gates());
  EXPECT_NEAR(sta.run_aged(aged, stress).max_delay, sta.run_fresh().max_delay,
              1e-9);
}

TEST_F(StaTest, CriticalPathIsConnectedAndMonotone) {
  const Netlist nl = make_adder(16);
  const StaResult res = Sta(nl).run_fresh();
  ASSERT_FALSE(res.critical_path.empty());
  // Arrivals strictly increase along the path, ending at max_delay.
  double prev = 0.0;
  for (const PathStep& step : res.critical_path) {
    EXPECT_GT(step.arrival, prev);
    prev = step.arrival;
  }
  EXPECT_NEAR(prev, res.max_delay, 1e-9);
  // Consecutive steps are structurally connected.
  for (std::size_t i = 1; i < res.critical_path.size(); ++i) {
    const PathStep& cur = res.critical_path[i];
    const NetId in =
        nl.gate(cur.gate).fanin[static_cast<std::size_t>(cur.input_pin)];
    EXPECT_EQ(nl.driver(in), res.critical_path[i - 1].gate);
  }
}

TEST_F(StaTest, OutputDelaysBoundedByMax) {
  const Netlist nl = make_adder(16, AdderArch::cla4);
  const StaResult res = Sta(nl).run_fresh();
  ASSERT_EQ(res.output_delay.size(), nl.outputs().size());
  for (const double d : res.output_delay) {
    EXPECT_GE(d, 0.0);
    EXPECT_LE(d, res.max_delay + 1e-9);
  }
}

TEST_F(StaTest, GateDelaysCoverEveryGate) {
  const Netlist nl = make_adder(8);
  const Sta sta(nl);
  const Sta::GateDelays gd = sta.gate_delays(nullptr, nullptr);
  ASSERT_EQ(gd.rise.size(), nl.num_gates());
  ASSERT_EQ(gd.fall.size(), nl.num_gates());
  for (std::size_t g = 0; g < nl.num_gates(); ++g) {
    EXPECT_GT(gd.rise[g], 0.0);
    EXPECT_GT(gd.fall[g], 0.0);
  }
}

TEST_F(StaTest, StressProfileSizeMismatchThrows) {
  const Netlist nl = make_adder(8);
  const Sta sta(nl);
  const DegradationAwareLibrary aged(lib_, model_, 1.0);
  EXPECT_THROW(
      sta.run_aged(aged, StressProfile::uniform(StressMode::worst, 3)),
      std::invalid_argument);
}

TEST_F(StaTest, MeasuredStressBetweenFreshAndWorst) {
  const Netlist nl = make_adder(16);
  const Sta sta(nl);
  const DegradationAwareLibrary aged(lib_, model_, 10.0);
  const double fresh = sta.run_fresh().max_delay;
  const double worst =
      sta.run_aged(aged, StressProfile::uniform(StressMode::worst, nl.num_gates()))
          .max_delay;
  const StressProfile measured =
      StressProfile::measured(std::vector<double>(nl.num_gates(), 0.3));
  const double meas = sta.run_aged(aged, measured).max_delay;
  EXPECT_GT(meas, fresh);
  EXPECT_LT(meas, worst);
}

}  // namespace
}  // namespace aapx
