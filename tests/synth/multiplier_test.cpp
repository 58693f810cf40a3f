#include <gtest/gtest.h>

#include "gatesim/funcsim.hpp"
#include "rtl/backend.hpp"  // wrap_signed
#include "synth/arith.hpp"
#include "util/rng.hpp"

namespace aapx {
namespace {

// Baugh-Wooley derivation check (see src/synth/arith.cpp): for two's
// complement N-bit operands,
//   a*b mod 2^(2N) = sum_{i,j<N-1} a_i b_j 2^(i+j) + a_{N-1} b_{N-1} 2^(2N-2)
//                  + sum NOT(a_{N-1} b_j) 2^(j+N-1) + sum NOT(a_i b_{N-1}) 2^(i+N-1)
//                  + 2^N + 2^(2N-1).
// The structural tests below verify the netlist realizes this identity.

struct MultParam {
  int width;
  MultArch arch;
};

class MultiplierTest : public ::testing::TestWithParam<MultParam> {
 protected:
  CellLibrary lib_ = make_nangate45_like();

  Netlist build(int width, MultArch arch) {
    Netlist nl(lib_);
    const Word a = nl.add_input_bus("a", width);
    const Word b = nl.add_input_bus("b", width);
    nl.mark_output_bus(build_multiplier(nl, a, b, arch), "y");
    return nl;
  }
};

TEST_P(MultiplierTest, SignedRandomVectors) {
  const auto [width, arch] = GetParam();
  Netlist nl = build(width, arch);
  FuncSim sim(nl);
  Rng rng(31);
  const std::uint64_t mask = (std::uint64_t{1} << width) - 1;
  for (int i = 0; i < 400; ++i) {
    const std::int64_t a = wrap_signed(static_cast<std::int64_t>(rng.next_u64()), width);
    const std::int64_t b = wrap_signed(static_cast<std::int64_t>(rng.next_u64()), width);
    sim.set_bus("a", static_cast<std::uint64_t>(a) & mask);
    sim.set_bus("b", static_cast<std::uint64_t>(b) & mask);
    sim.eval();
    const std::int64_t y =
        wrap_signed(static_cast<std::int64_t>(sim.bus_value("y")), 2 * width);
    EXPECT_EQ(y, wrap_signed(a * b, 2 * width)) << "a=" << a << " b=" << b;
  }
}

TEST_P(MultiplierTest, SpecialValues) {
  const auto [width, arch] = GetParam();
  Netlist nl = build(width, arch);
  FuncSim sim(nl);
  const std::uint64_t mask = (std::uint64_t{1} << width) - 1;
  const std::int64_t min_val = -(std::int64_t{1} << (width - 1));
  const std::int64_t max_val = (std::int64_t{1} << (width - 1)) - 1;
  const std::int64_t cases[] = {0, 1, -1, 2, -2, min_val, max_val};
  for (const std::int64_t a : cases) {
    for (const std::int64_t b : cases) {
      sim.set_bus("a", static_cast<std::uint64_t>(a) & mask);
      sim.set_bus("b", static_cast<std::uint64_t>(b) & mask);
      sim.eval();
      const std::int64_t y =
          wrap_signed(static_cast<std::int64_t>(sim.bus_value("y")), 2 * width);
      EXPECT_EQ(y, wrap_signed(a * b, 2 * width)) << "a=" << a << " b=" << b;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    WidthsAndArchs, MultiplierTest,
    ::testing::Values(MultParam{4, MultArch::array}, MultParam{4, MultArch::wallace},
                      MultParam{7, MultArch::array}, MultParam{7, MultArch::wallace},
                      MultParam{12, MultArch::array},
                      MultParam{12, MultArch::wallace},
                      MultParam{16, MultArch::array},
                      MultParam{16, MultArch::wallace}),
    [](const ::testing::TestParamInfo<MultParam>& info) {
      return to_string(info.param.arch) + "_w" + std::to_string(info.param.width);
    });

TEST(MultiplierExhaustiveTest, FiveBitBothArchs) {
  const CellLibrary lib = make_nangate45_like();
  for (const MultArch arch : {MultArch::array, MultArch::wallace}) {
    Netlist nl(lib);
    const Word a = nl.add_input_bus("a", 5);
    const Word b = nl.add_input_bus("b", 5);
    nl.mark_output_bus(build_multiplier(nl, a, b, arch), "y");
    FuncSim sim(nl);
    for (int va = -16; va < 16; ++va) {
      for (int vb = -16; vb < 16; ++vb) {
        sim.set_bus("a", static_cast<std::uint64_t>(va) & 0x1F);
        sim.set_bus("b", static_cast<std::uint64_t>(vb) & 0x1F);
        sim.eval();
        const std::int64_t y =
            wrap_signed(static_cast<std::int64_t>(sim.bus_value("y")), 10);
        ASSERT_EQ(y, wrap_signed(static_cast<std::int64_t>(va) * vb, 10))
            << to_string(arch) << " a=" << va << " b=" << vb;
      }
    }
  }
}

TEST(ReduceColumnsTest, SumsArbitraryColumns) {
  const CellLibrary lib = make_nangate45_like();
  Netlist nl(lib);
  // Three addends of weight 1 at bit 0, two at bit 1: value = x0+x1+x2 + 2*(x3+x4).
  std::vector<NetId> ins;
  for (int i = 0; i < 5; ++i) ins.push_back(nl.add_input(std::string("x").append(std::to_string(i))));
  std::vector<std::vector<NetId>> cols(4);
  cols[0] = {ins[0], ins[1], ins[2]};
  cols[1] = {ins[3], ins[4]};
  const Word y = reduce_columns(nl, cols, AdderArch::ripple);
  nl.mark_output_bus(y, "y");
  FuncSim sim(nl);
  for (unsigned m = 0; m < 32; ++m) {
    for (int i = 0; i < 5; ++i) sim.set_input(ins[i], (m >> i) & 1);
    sim.eval();
    const unsigned expect = ((m & 1) + ((m >> 1) & 1) + ((m >> 2) & 1)) +
                            2 * (((m >> 3) & 1) + ((m >> 4) & 1));
    EXPECT_EQ(sim.bus_value("y"), expect);
  }
}

TEST(WrapSignedTest, Basics) {
  EXPECT_EQ(wrap_signed(0xFF, 8), -1);
  EXPECT_EQ(wrap_signed(0x7F, 8), 127);
  EXPECT_EQ(wrap_signed(0x80, 8), -128);
  EXPECT_EQ(wrap_signed(256, 8), 0);
  EXPECT_EQ(wrap_signed(-1, 64), -1);
  EXPECT_THROW(wrap_signed(0, 0), std::invalid_argument);
}

}  // namespace
}  // namespace aapx
