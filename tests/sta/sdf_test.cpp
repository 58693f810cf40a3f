#include "sta/sdf.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "sta/sta.hpp"
#include "synth/components.hpp"

namespace aapx {
namespace {

class SdfTest : public ::testing::Test {
 protected:
  CellLibrary lib_ = make_nangate45_like();
  AgingModel model_;
  Netlist nl_ = make_component(
      lib_, {ComponentKind::adder, 4, 0, AdderArch::ripple, MultArch::array});
};

TEST_F(SdfTest, StructureAndInstanceCount) {
  std::ostringstream os;
  write_sdf(nl_, os, "adder4");
  const std::string text = os.str();
  EXPECT_NE(text.find("(DELAYFILE"), std::string::npos);
  EXPECT_NE(text.find("(DESIGN \"adder4\")"), std::string::npos);
  EXPECT_NE(text.find("(TIMESCALE 1ps)"), std::string::npos);
  // One CELL entry per gate.
  std::size_t cells = 0;
  for (std::size_t pos = text.find("(CELL"); pos != std::string::npos;
       pos = text.find("(CELL", pos + 1)) {
    if (text.compare(pos, 9, "(CELLTYPE") != 0) ++cells;
  }
  EXPECT_EQ(cells, nl_.num_gates());
  EXPECT_NE(text.find("(IOPATH A0 Y ("), std::string::npos);
}

TEST_F(SdfTest, AgedDelaysLargerThanFresh) {
  std::ostringstream fresh_os;
  std::ostringstream aged_os;
  write_sdf(nl_, fresh_os, "adder4");
  const DegradationAwareLibrary aged(lib_, model_, 10.0);
  const StressProfile stress =
      StressProfile::uniform(StressMode::worst, nl_.num_gates());
  write_aged_sdf(nl_, aged, stress, aged_os, "adder4");

  // Extract the first IOPATH rise delay from each file and compare.
  auto first_delay = [](const std::string& text) {
    const std::size_t pos = text.find("(IOPATH A0 Y (");
    EXPECT_NE(pos, std::string::npos);
    const std::size_t start = pos + 14;
    const std::size_t end = text.find(')', start);
    return std::stod(text.substr(start, end - start));
  };
  const double fresh = first_delay(fresh_os.str());
  const double worn = first_delay(aged_os.str());
  EXPECT_GT(worn, fresh);
  EXPECT_LT(worn, fresh * 1.5);
}

TEST_F(SdfTest, MatchesStaGateDelays) {
  std::ostringstream os;
  write_sdf(nl_, os, "adder4");
  const Sta sta(nl_);
  const Sta::GateDelays gd = sta.gate_delays(nullptr, nullptr);
  // Gate g0's first IOPATH rise value equals the STA's per-gate rise delay.
  const std::string text = os.str();
  const std::size_t inst = text.find("(INSTANCE g0)");
  ASSERT_NE(inst, std::string::npos);
  const std::size_t pos = text.find("(IOPATH A0 Y (", inst);
  ASSERT_NE(pos, std::string::npos);
  const std::size_t start = pos + 14;
  const double rise = std::stod(text.substr(start, text.find(')', start) - start));
  EXPECT_NEAR(rise, gd.rise[0], 1e-9);
}

}  // namespace
}  // namespace aapx
