// Golden structure of every synthesized component.
//
// Each row pins one (generator, width, technique) group: the digest covers
// every truncation of the group, and per netlist the net count, each gate's
// cell, fanin and fanout nets, the PI/PO names and nets, and the input and
// output buses. Any change to synthesis or optimization that moves a single
// gate or renumbers a single net changes a digest, so faster synthesis code
// must reproduce the same netlists gate for gate.
//
// The same sweep checks that optimization has reached its fixpoint: a pass
// over a finished component removes no gate and rebuilds the same netlist up
// to the numbering of its gates and nets.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "netlist_digest.hpp"
#include "synth/components.hpp"
#include "synth/dct_unit.hpp"
#include "synth/passes.hpp"

namespace aapx {
namespace {

struct Golden {
  ComponentKind kind;
  AdderArch adder_arch;
  MultArch mult_arch;
  ApproxTechnique technique;
  int width;
  std::uint64_t digest;
};

// Every truncation 0..width-1 of each row. MACs use the default cla4 final
// adder; clamps start at 16 bits (a clamp needs at least 9).
constexpr ComponentKind kAdd = ComponentKind::adder;
constexpr ComponentKind kMul = ComponentKind::multiplier;
constexpr ComponentKind kMac = ComponentKind::mac;
constexpr ComponentKind kClamp = ComponentKind::clamp;
constexpr AdderArch kRipple = AdderArch::ripple;
constexpr AdderArch kCla4 = AdderArch::cla4;
constexpr AdderArch kKs = AdderArch::kogge_stone;
constexpr MultArch kArray = MultArch::array;
constexpr MultArch kWallace = MultArch::wallace;
constexpr ApproxTechnique kLsb = ApproxTechnique::lsb_truncation;
constexpr ApproxTechnique kWindow = ApproxTechnique::carry_window;
constexpr ApproxTechnique kPp = ApproxTechnique::pp_truncation;

constexpr Golden kGolden[] = {
    {kAdd, kRipple, kArray, kLsb, 8, 0x9fc3b82c37cd6917},
    {kAdd, kCla4, kArray, kLsb, 8, 0x9d92a9da4a9bd42f},
    {kAdd, kKs, kArray, kLsb, 8, 0xb8e1b027fd584a60},
    {kAdd, kCla4, kArray, kWindow, 8, 0xde48db52055d1da4},
    {kAdd, kRipple, kArray, kLsb, 16, 0x61dbc24182ecba0f},
    {kAdd, kCla4, kArray, kLsb, 16, 0xdc165fa4ad685cb7},
    {kAdd, kKs, kArray, kLsb, 16, 0xe8cd6f164ad7f0f6},
    {kAdd, kCla4, kArray, kWindow, 16, 0x7759dd4437309106},
    {kAdd, kRipple, kArray, kLsb, 32, 0xbcae9e12081e68bf},
    {kAdd, kCla4, kArray, kLsb, 32, 0xf50439f873b815b3},
    {kAdd, kKs, kArray, kLsb, 32, 0x89d34e0240503718},
    {kAdd, kCla4, kArray, kWindow, 32, 0x6df3bcc0c6d5cf61},
    {kMul, kCla4, kArray, kLsb, 8, 0x401bea268d8998c2},
    {kMul, kCla4, kArray, kPp, 8, 0xbb3c6823fb936311},
    {kMul, kCla4, kWallace, kLsb, 8, 0x6fda72b2cea17bc2},
    {kMul, kCla4, kWallace, kPp, 8, 0x76cc6912d75d5244},
    {kMul, kCla4, kArray, kLsb, 16, 0x908f9d99568aaa8a},
    {kMul, kCla4, kArray, kPp, 16, 0x3018a13500d6ef2c},
    {kMul, kCla4, kWallace, kLsb, 16, 0xb2f909d48b7d4ce2},
    {kMul, kCla4, kWallace, kPp, 16, 0x73a1befd9c02ccd3},
    {kMul, kCla4, kArray, kLsb, 32, 0x66b91139a54712c8},
    {kMul, kCla4, kArray, kPp, 32, 0x7f67346fdf03fe76},
    {kMul, kCla4, kWallace, kLsb, 32, 0x14838b265e13be77},
    {kMul, kCla4, kWallace, kPp, 32, 0xccae7e96f6fa883c},
    {kMac, kCla4, kArray, kLsb, 8, 0x93924626cda83e7e},
    {kMac, kCla4, kArray, kPp, 8, 0x501b6c9baa21d534},
    {kMac, kCla4, kWallace, kLsb, 8, 0xae079e18cc303376},
    {kMac, kCla4, kWallace, kPp, 8, 0xcd522f04056f1eb8},
    {kMac, kCla4, kArray, kLsb, 16, 0x1372346e77b34b39},
    {kMac, kCla4, kArray, kPp, 16, 0x6b8deeb5634c54d9},
    {kMac, kCla4, kWallace, kLsb, 16, 0x56564ed46f2e85fa},
    {kMac, kCla4, kWallace, kPp, 16, 0x1b40c257d8312dbb},
    {kMac, kCla4, kArray, kLsb, 32, 0x13619b5e0b3f3c42},
    {kMac, kCla4, kArray, kPp, 32, 0xdee779884cb7fcee},
    {kMac, kCla4, kWallace, kLsb, 32, 0xb9bb73b38cef96a3},
    {kMac, kCla4, kWallace, kPp, 32, 0x70e8e5766ac6abc7},
    {kClamp, kCla4, kArray, kLsb, 16, 0x603a2918a6477348},
    {kClamp, kCla4, kArray, kLsb, 32, 0x37a86dd8d58f0b9e},
};

ComponentSpec group_spec(const Golden& g, int truncated_bits) {
  ComponentSpec spec;
  spec.kind = g.kind;
  spec.width = g.width;
  spec.truncated_bits = truncated_bits;
  spec.adder_arch = g.adder_arch;
  spec.mult_arch = g.mult_arch;
  spec.technique = g.technique;
  return spec;
}

class GoldenSynthTest : public ::testing::TestWithParam<Golden> {
 protected:
  CellLibrary lib_ = make_nangate45_like();
};

TEST_P(GoldenSynthTest, EveryTruncationMatchesItsGoldenStructure) {
  const Golden& g = GetParam();
  Hasher h;
  for (int k = 0; k < g.width; ++k) {
    const ComponentSpec spec = group_spec(g, k);
    const Netlist nl = make_component(lib_, spec);
    h.str(spec.name());
    feed_structure(h, nl);

    const OptimizeResult again = optimize(nl);
    EXPECT_EQ(again.gates_removed, 0u) << spec.name();
    EXPECT_EQ(renumbering_invariant_digest(again.netlist),
              renumbering_invariant_digest(nl))
        << spec.name();
  }
  char actual[32];
  std::snprintf(actual, sizeof actual, "0x%016llx",
                static_cast<unsigned long long>(h.digest()));
  EXPECT_EQ(h.digest(), g.digest) << "actual digest " << actual;
}

INSTANTIATE_TEST_SUITE_P(
    Generators, GoldenSynthTest, ::testing::ValuesIn(kGolden),
    [](const ::testing::TestParamInfo<Golden>& info) {
      std::string name = group_spec(info.param, 0).name();
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

// The dedicated IDCT row unit, which optimizes a netlist of
// constant-coefficient multipliers and adder trees: every truncation
// 0..data_width-1 of each data width.
struct IdctGolden {
  int data_width;
  std::uint64_t digest;
};

constexpr IdctGolden kIdctGolden[] = {
    {8, 0x0f350e0595a03634},
    {12, 0x14f929df35d4d006},
    {16, 0x935635c1965e0ecb},
};

class IdctGoldenSynthTest : public ::testing::TestWithParam<IdctGolden> {
 protected:
  CellLibrary lib_ = make_nangate45_like();
};

TEST_P(IdctGoldenSynthTest, EveryTruncationMatchesItsGoldenStructure) {
  const IdctGolden& g = GetParam();
  Hasher h;
  for (int k = 0; k < g.data_width; ++k) {
    IdctUnitSpec spec;
    spec.data_width = g.data_width;
    spec.truncated_bits = k;
    const Netlist nl = make_idct_row_unit(lib_, spec);
    h.i32(k);
    feed_structure(h, nl);

    const OptimizeResult again = optimize(nl);
    EXPECT_EQ(again.gates_removed, 0u) << "t" << k;
    EXPECT_EQ(renumbering_invariant_digest(again.netlist),
              renumbering_invariant_digest(nl))
        << "t" << k;
  }
  char actual[32];
  std::snprintf(actual, sizeof actual, "0x%016llx",
                static_cast<unsigned long long>(h.digest()));
  EXPECT_EQ(h.digest(), g.digest) << "actual digest " << actual;
}

INSTANTIATE_TEST_SUITE_P(
    DataWidths, IdctGoldenSynthTest, ::testing::ValuesIn(kIdctGolden),
    [](const ::testing::TestParamInfo<IdctGolden>& info) {
      return std::string("idct_row_w")
          .append(std::to_string(info.param.data_width));
    });

}  // namespace
}  // namespace aapx
