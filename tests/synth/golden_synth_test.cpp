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

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "synth/components.hpp"
#include "synth/passes.hpp"
#include "util/hash.hpp"

namespace aapx {
namespace {

void feed_nets(Hasher& h, const std::vector<NetId>& nets) {
  h.u64(nets.size());
  for (const NetId n : nets) h.u32(n);
}

std::vector<std::string> sorted(std::vector<std::string> names) {
  std::sort(names.begin(), names.end());
  return names;
}

void feed_structure(Hasher& h, const Netlist& nl) {
  h.u64(nl.num_nets()).u64(nl.num_gates());
  for (GateId g = 0; g < nl.num_gates(); ++g) {
    const Gate& gate = nl.gate(g);
    const int pins = nl.gate_num_inputs(g);
    h.u32(gate.cell).i32(pins);
    for (int p = 0; p < pins; ++p) h.u32(gate.fanin[static_cast<std::size_t>(p)]);
    h.u32(gate.fanout);
  }
  feed_nets(h, nl.inputs());
  for (std::size_t i = 0; i < nl.inputs().size(); ++i) h.str(nl.input_name(i));
  feed_nets(h, nl.outputs());
  for (std::size_t i = 0; i < nl.outputs().size(); ++i) h.str(nl.output_name(i));
  for (const std::string& name : sorted(nl.input_bus_names())) {
    h.str(name);
    feed_nets(h, nl.input_bus(name));
  }
  for (const std::string& name : sorted(nl.output_bus_names())) {
    h.str(name);
    feed_nets(h, nl.output_bus(name));
  }
}

bool pins_commute(LogicFn fn, int i, int j) {
  for (unsigned mask = 0; mask < 8; ++mask) {
    const unsigned bi = (mask >> i) & 1u;
    const unsigned bj = (mask >> j) & 1u;
    const unsigned swapped = (mask & ~((1u << i) | (1u << j))) | (bi << j) |
                             (bj << i);
    if (fn_eval(fn, mask) != fn_eval(fn, swapped)) return false;
  }
  return true;
}

/// Digest that ignores gate and net numbering: each net is labelled by what
/// drives it (a constant, a named PI, or a cell over its fanin labels, with
/// interchangeable pins sorted), so two netlists that differ only in the
/// order their gates were emitted agree.
std::uint64_t renumbering_invariant_digest(const Netlist& nl) {
  std::vector<std::uint64_t> label(nl.num_nets(), 0);
  label[nl.const0()] = Hasher{}.str("const0").digest();
  label[nl.const1()] = Hasher{}.str("const1").digest();
  for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
    label[nl.inputs()[i]] = Hasher{}.str("pi").str(nl.input_name(i)).digest();
  }
  std::vector<std::uint64_t> gate_labels;
  for (const GateId g : nl.topo_order()) {
    const Gate& gate = nl.gate(g);
    const int pins = nl.gate_num_inputs(g);
    const LogicFn fn = nl.lib().cell(gate.cell).fn;
    std::vector<std::uint64_t> in;
    for (int p = 0; p < pins; ++p) {
      in.push_back(label[gate.fanin[static_cast<std::size_t>(p)]]);
    }
    if (pins == 3 && pins_commute(fn, 0, 1) && pins_commute(fn, 1, 2)) {
      std::sort(in.begin(), in.end());
    } else if (pins >= 2 && pins_commute(fn, 0, 1)) {
      std::sort(in.begin(), in.begin() + 2);
    }
    Hasher h;
    h.u32(gate.cell);
    for (const std::uint64_t l : in) h.u64(l);
    label[gate.fanout] = h.digest();
    gate_labels.push_back(h.digest());
  }
  std::sort(gate_labels.begin(), gate_labels.end());
  Hasher h;
  h.u64(nl.num_nets());
  for (const std::uint64_t l : gate_labels) h.u64(l);
  for (std::size_t i = 0; i < nl.outputs().size(); ++i) {
    h.str(nl.output_name(i)).u64(label[nl.outputs()[i]]);
  }
  for (const std::string& name : sorted(nl.output_bus_names())) {
    for (const NetId n : nl.output_bus(name)) h.str(name).u64(label[n]);
  }
  return h.digest();
}

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

}  // namespace
}  // namespace aapx
