#include "synth/sizing.hpp"

#include <gtest/gtest.h>

#include "gatesim/funcsim.hpp"
#include "netlist/stats.hpp"
#include "synth/components.hpp"
#include "util/rng.hpp"

namespace aapx {
namespace {

class SizingTest : public ::testing::Test {
 protected:
  CellLibrary lib_ = make_nangate45_like();
  AgingModel model_;
};

TEST_F(SizingTest, MeetsFreshTargetUnderAging) {
  // Sizing compensates the multiplier's ~12% worst-case 10-year aging; the
  // CLA adder's ~30% is beyond what drive upsizing alone can recover, which
  // is exactly why the paper trades precision instead.
  const Netlist nl = make_component(
      lib_, {ComponentKind::multiplier, 12, 0, AdderArch::cla4, MultArch::array});
  const Sta sta(nl);
  const double target = sta.run_fresh().max_delay;
  const DegradationAwareLibrary aged(lib_, model_, 10.0);
  const StressProfile stress = StressProfile::uniform(StressMode::worst,
                                                      nl.num_gates());
  const SizingResult res = size_for_aging(nl, aged, stress, target);
  EXPECT_TRUE(res.met);
  EXPECT_LE(res.aged_delay, target + 1e-9);
  EXPECT_GT(res.upsized_gates, 0);
}

TEST_F(SizingTest, CostsArea) {
  const Netlist nl = make_component(
      lib_, {ComponentKind::multiplier, 12, 0, AdderArch::cla4, MultArch::array});
  const Sta sta(nl);
  const double target = sta.run_fresh().max_delay;
  const DegradationAwareLibrary aged(lib_, model_, 10.0);
  const StressProfile stress = StressProfile::uniform(StressMode::worst,
                                                      nl.num_gates());
  const SizingResult res = size_for_aging(nl, aged, stress, target);
  EXPECT_GT(compute_stats(res.netlist).cell_area, compute_stats(nl).cell_area);
}

TEST_F(SizingTest, PreservesFunction) {
  const Netlist nl = make_component(
      lib_, {ComponentKind::adder, 12, 0, AdderArch::cla4, MultArch::array});
  const Sta sta(nl);
  const DegradationAwareLibrary aged(lib_, model_, 10.0);
  const StressProfile stress = StressProfile::uniform(StressMode::worst,
                                                      nl.num_gates());
  const SizingResult res =
      size_for_aging(nl, aged, stress, sta.run_fresh().max_delay);

  FuncSim sa(nl);
  FuncSim sb(res.netlist);
  Rng rng(3);
  const std::uint64_t mask = (std::uint64_t{1} << 12) - 1;
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t a = rng.next_u64() & mask;
    const std::uint64_t b = rng.next_u64() & mask;
    sa.set_bus("a", a);
    sa.set_bus("b", b);
    sa.eval();
    sb.set_bus("a", a);
    sb.set_bus("b", b);
    sb.eval();
    ASSERT_EQ(sa.bus_value("y"), sb.bus_value("y"));
  }
}

TEST_F(SizingTest, TrivialTargetNeedsNoChanges) {
  const Netlist nl = make_component(
      lib_, {ComponentKind::adder, 8, 0, AdderArch::ripple, MultArch::array});
  const DegradationAwareLibrary aged(lib_, model_, 1.0);
  const StressProfile stress = StressProfile::uniform(StressMode::balanced,
                                                      nl.num_gates());
  const SizingResult res = size_for_aging(nl, aged, stress, 1e9);
  EXPECT_TRUE(res.met);
  EXPECT_EQ(res.upsized_gates, 0);
}

TEST_F(SizingTest, ImpossibleTargetReportsNotMet) {
  const Netlist nl = make_component(
      lib_, {ComponentKind::adder, 16, 0, AdderArch::cla4, MultArch::array});
  const DegradationAwareLibrary aged(lib_, model_, 10.0);
  const StressProfile stress = StressProfile::uniform(StressMode::worst,
                                                      nl.num_gates());
  const SizingResult res = size_for_aging(nl, aged, stress, 1.0);  // 1 ps
  EXPECT_FALSE(res.met);
  EXPECT_GT(res.aged_delay, 1.0);
}

}  // namespace
}  // namespace aapx
