#include "gatesim/funcsim.hpp"

#include <gtest/gtest.h>

#include "synth/arith.hpp"

namespace aapx {
namespace {

class FuncSimTest : public ::testing::Test {
 protected:
  CellLibrary lib_ = make_nangate45_like();
};

TEST_F(FuncSimTest, ConstantsFixed) {
  Netlist nl(lib_);
  nl.add_input("a");
  const FuncSim sim(nl);
  EXPECT_FALSE(sim.value(nl.const0()));
  EXPECT_TRUE(sim.value(nl.const1()));
}

TEST_F(FuncSimTest, EvaluatesChain) {
  Netlist nl(lib_);
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId u = nl.mk(LogicFn::kNand2, a, b);
  const NetId y = nl.mk(LogicFn::kInv, u);
  nl.mark_output(y, "y");
  FuncSim sim(nl);
  for (unsigned m = 0; m < 4; ++m) {
    sim.set_input(a, m & 1);
    sim.set_input(b, (m >> 1) & 1);
    sim.eval();
    EXPECT_EQ(sim.value(y), (m & 1) && ((m >> 1) & 1));
  }
}

TEST_F(FuncSimTest, SetInputRejectsDrivenNets) {
  Netlist nl(lib_);
  const NetId a = nl.add_input("a");
  const NetId y = nl.mk(LogicFn::kInv, a);
  FuncSim sim(nl);
  EXPECT_THROW(sim.set_input(y, true), std::invalid_argument);
  EXPECT_THROW(sim.set_input(nl.const0(), true), std::invalid_argument);
}

TEST_F(FuncSimTest, BusRoundTrip) {
  Netlist nl(lib_);
  const Word a = nl.add_input_bus("a", 8);
  Word inverted;
  for (const NetId bit : a) inverted.push_back(nl.mk(LogicFn::kInv, bit));
  nl.mark_output_bus(inverted, "y");
  FuncSim sim(nl);
  sim.set_bus("a", 0xA5);
  sim.eval();
  EXPECT_EQ(sim.bus_value("y"), 0x5Au);
}

TEST_F(FuncSimTest, SetBusSkipsConstantMembers) {
  Netlist nl(lib_);
  Word bus = nl.add_input_bus("a", 4);
  // Simulate a truncated bus registration where LSB was replaced by const0.
  Word replaced = bus;
  replaced[0] = nl.const0();
  nl.set_input_bus("a", replaced);
  FuncSim sim(nl);
  EXPECT_NO_THROW(sim.set_bus("a", 0xF));
  EXPECT_FALSE(sim.value(nl.const0()));
}

TEST_F(FuncSimTest, WideBusRejected) {
  Netlist nl(lib_);
  std::vector<NetId> nets;
  for (int i = 0; i < 65; ++i) nets.push_back(nl.add_input(std::string("n").append(std::to_string(i))));
  FuncSim sim(nl);
  EXPECT_THROW(sim.word_value(nets), std::invalid_argument);
}

}  // namespace
}  // namespace aapx
