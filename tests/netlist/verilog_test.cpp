#include "netlist/verilog.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "gatesim/funcsim.hpp"
#include "support/interchange_reader.hpp"
#include "synth/components.hpp"
#include "util/rng.hpp"

namespace aapx {
namespace {

class VerilogTest : public ::testing::Test {
 protected:
  CellLibrary lib_ = make_nangate45_like();

  void expect_equivalent(const Netlist& a, const Netlist& b, int vectors,
                         std::uint64_t seed) {
    ASSERT_EQ(a.inputs().size(), b.inputs().size());
    ASSERT_EQ(a.outputs().size(), b.outputs().size());
    FuncSim sa(a);
    FuncSim sb(b);
    Rng rng(seed);
    for (int v = 0; v < vectors; ++v) {
      for (std::size_t i = 0; i < a.inputs().size(); ++i) {
        const bool bit = rng.next_bool();
        sa.set_input(a.inputs()[i], bit);
        sb.set_input(b.inputs()[i], bit);
      }
      sa.eval();
      sb.eval();
      for (std::size_t o = 0; o < a.outputs().size(); ++o) {
        ASSERT_EQ(sa.value(a.outputs()[o]), sb.value(b.outputs()[o]))
            << "output " << a.output_name(o);
      }
    }
  }
};

TEST_F(VerilogTest, WriterEmitsModuleStructure) {
  const Netlist nl = make_component(
      lib_, {ComponentKind::adder, 4, 0, AdderArch::ripple, MultArch::array});
  std::ostringstream os;
  write_verilog(nl, os, "adder4");
  const std::string text = os.str();
  EXPECT_NE(text.find("module adder4 (a, b, y);"), std::string::npos);
  EXPECT_NE(text.find("input [3:0] a;"), std::string::npos);
  EXPECT_NE(text.find("output [4:0] y;"), std::string::npos);
  EXPECT_NE(text.find("XOR2_X1 g"), std::string::npos);
  EXPECT_NE(text.find("assign y[0] = "), std::string::npos);
  EXPECT_NE(text.find("endmodule"), std::string::npos);
}

TEST_F(VerilogTest, RoundTripAdder) {
  const Netlist nl = make_component(
      lib_, {ComponentKind::adder, 8, 0, AdderArch::cla4, MultArch::array});
  std::stringstream ss;
  write_verilog(nl, ss, "adder8");
  const Netlist back = test::read_verilog(ss, lib_);
  EXPECT_EQ(back.num_gates(), nl.num_gates());
  EXPECT_EQ(back.input_bus("a").size(), 8u);
  EXPECT_EQ(back.output_bus("y").size(), 9u);
  expect_equivalent(nl, back, 300, 1);
}

TEST_F(VerilogTest, RoundTripMultiplierWithConstants) {
  // Truncated multiplier exercises 1'b0 references and dangling inputs.
  const Netlist nl = make_component(
      lib_, {ComponentKind::multiplier, 6, 2, AdderArch::cla4, MultArch::wallace});
  std::stringstream ss;
  write_verilog(nl, ss, "mult6_k4");
  const Netlist back = test::read_verilog(ss, lib_);
  expect_equivalent(nl, back, 300, 2);
}

TEST_F(VerilogTest, RoundTripSurvivesSecondTrip) {
  const Netlist nl = make_component(
      lib_, {ComponentKind::clamp, 12, 0, AdderArch::cla4, MultArch::array});
  std::stringstream ss1;
  write_verilog(nl, ss1, "clamp12");
  const Netlist once = test::read_verilog(ss1, lib_);
  std::stringstream ss2;
  write_verilog(once, ss2, "clamp12");
  const Netlist twice = test::read_verilog(ss2, lib_);
  EXPECT_EQ(once.num_gates(), twice.num_gates());
  expect_equivalent(once, twice, 200, 3);
}

TEST_F(VerilogTest, AddGateDrivingValidation) {
  Netlist nl(lib_);
  const NetId a = nl.add_input("a");
  const NetId w = nl.add_net();
  const CellId inv = lib_.smallest(LogicFn::kInv);
  const NetId ins[] = {a};
  nl.add_gate_driving(inv, ins, w);
  // Already driven.
  EXPECT_THROW(nl.add_gate_driving(inv, ins, w), std::invalid_argument);
  // Constants and PIs are not drivable.
  EXPECT_THROW(nl.add_gate_driving(inv, ins, nl.const0()), std::invalid_argument);
  EXPECT_THROW(nl.add_gate_driving(inv, ins, a), std::invalid_argument);
}

}  // namespace
}  // namespace aapx
