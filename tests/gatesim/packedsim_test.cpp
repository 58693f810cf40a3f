#include "gatesim/packedsim.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "gatesim/funcsim.hpp"
#include "synth/components.hpp"
#include "util/rng.hpp"

namespace aapx {
namespace {

class PackedFuncSimTest : public ::testing::Test {
 protected:
  CellLibrary lib_ = make_nangate45_like();
};

constexpr LogicFn kAllFns[] = {
    LogicFn::kBuf,   LogicFn::kInv,   LogicFn::kAnd2,  LogicFn::kNand2,
    LogicFn::kOr2,   LogicFn::kNor2,  LogicFn::kXor2,  LogicFn::kXnor2,
    LogicFn::kAnd3,  LogicFn::kNand3, LogicFn::kOr3,   LogicFn::kNor3,
    LogicFn::kAoi21, LogicFn::kOai21, LogicFn::kMux2,  LogicFn::kMaj3,
};

// Drives every input combination of every logic function through one packed
// eval (lane m = input mask m) and pins each lane to the scalar truth table.
TEST_F(PackedFuncSimTest, EveryFunctionMatchesFnEval) {
  for (const LogicFn fn : kAllFns) {
    Netlist nl(lib_);
    const NetId a = nl.add_input("a");
    const NetId b = nl.add_input("b");
    const NetId c = nl.add_input("c");
    const int arity = fn_num_inputs(fn);
    const NetId y = arity == 1   ? nl.mk(fn, a)
                    : arity == 2 ? nl.mk(fn, a, b)
                                 : nl.mk(fn, a, b, c);
    nl.mark_output(y, "y");
    PackedFuncSim sim(nl);
    std::uint64_t la = 0, lb = 0, lc = 0;
    for (unsigned m = 0; m < 8; ++m) {
      if (m & 1) la |= std::uint64_t{1} << m;
      if (m & 2) lb |= std::uint64_t{1} << m;
      if (m & 4) lc |= std::uint64_t{1} << m;
    }
    sim.set_input_lanes(a, la);
    sim.set_input_lanes(b, lb);
    sim.set_input_lanes(c, lc);
    sim.eval();
    for (unsigned m = 0; m < (1u << arity); ++m) {
      const bool expect = fn_eval(fn, m);
      EXPECT_EQ((sim.lanes(y) >> m) & 1u, expect ? 1u : 0u)
          << to_string(fn) << " mask " << m;
    }
  }
}

TEST_F(PackedFuncSimTest, ConstantsFixedInAllLanes) {
  Netlist nl(lib_);
  nl.add_input("a");
  PackedFuncSim sim(nl);
  sim.eval();
  EXPECT_EQ(sim.lanes(nl.const0()), 0u);
  EXPECT_EQ(sim.lanes(nl.const1()), ~std::uint64_t{0});
}

TEST_F(PackedFuncSimTest, SetInputRejectsDrivenNets) {
  Netlist nl(lib_);
  const NetId a = nl.add_input("a");
  const NetId y = nl.mk(LogicFn::kInv, a);
  PackedFuncSim sim(nl);
  EXPECT_THROW(sim.set_input_lanes(y, 1), std::invalid_argument);
  EXPECT_THROW(sim.set_input_lanes(nl.const1(), 1), std::invalid_argument);
}

/// 64 random vectors through the packed simulator vs. 64 scalar FuncSim
/// evals, compared on *every net* (not just outputs).
void expect_lane_exact(const CellLibrary& lib, const ComponentSpec& spec,
                       std::uint64_t seed) {
  const Netlist nl = make_component(lib, spec);
  Rng rng(seed);
  const std::vector<std::string> buses = nl.input_bus_names();
  std::vector<std::vector<std::uint64_t>> lane_values(buses.size());
  for (auto& lanes : lane_values) {
    lanes.resize(PackedFuncSim::kLanes);
    for (auto& v : lanes) v = rng.next_u64();
  }

  PackedFuncSim packed(nl);
  for (std::size_t b = 0; b < buses.size(); ++b) {
    packed.set_bus(buses[b], lane_values[b]);
  }
  packed.eval();

  FuncSim scalar(nl);
  for (int lane = 0; lane < PackedFuncSim::kLanes; ++lane) {
    for (std::size_t b = 0; b < buses.size(); ++b) {
      scalar.set_bus(buses[b], lane_values[b][static_cast<std::size_t>(lane)]);
    }
    scalar.eval();
    for (std::size_t n = 0; n < nl.num_nets(); ++n) {
      const unsigned packed_bit =
          static_cast<unsigned>((packed.lanes(static_cast<NetId>(n)) >> lane) & 1u);
      const unsigned scalar_bit = scalar.values()[n] ? 1u : 0u;
      ASSERT_EQ(packed_bit, scalar_bit)
          << spec.name() << " lane " << lane << " net " << n;
    }
    for (const std::string& bus : nl.output_bus_names()) {
      ASSERT_EQ(packed.bus_value(bus, lane), scalar.bus_value(bus))
          << spec.name() << " lane " << lane << " bus " << bus;
    }
  }
}

TEST_F(PackedFuncSimTest, AdderArchitecturesLaneExact) {
  for (const AdderArch arch :
       {AdderArch::ripple, AdderArch::cla4, AdderArch::kogge_stone}) {
    ComponentSpec spec{ComponentKind::adder, 16, 0, arch, MultArch::array};
    expect_lane_exact(lib_, spec, 7);
    spec.truncated_bits = 5;
    expect_lane_exact(lib_, spec, 11);
  }
}

TEST_F(PackedFuncSimTest, MultiplierArchitecturesLaneExact) {
  for (const MultArch arch : {MultArch::array, MultArch::wallace}) {
    ComponentSpec spec{ComponentKind::multiplier, 8, 0, AdderArch::cla4, arch};
    expect_lane_exact(lib_, spec, 13);
    spec.truncated_bits = 3;
    expect_lane_exact(lib_, spec, 17);
  }
}

TEST_F(PackedFuncSimTest, MacAndClampLaneExact) {
  ComponentSpec mac{ComponentKind::mac, 8, 0, AdderArch::cla4, MultArch::array};
  expect_lane_exact(lib_, mac, 19);
  ComponentSpec clamp{ComponentKind::clamp, 12, 0, AdderArch::cla4,
                      MultArch::array};
  expect_lane_exact(lib_, clamp, 23);
}

TEST_F(PackedFuncSimTest, ApproxTechniquesLaneExact) {
  ComponentSpec window{ComponentKind::adder, 16, 6, AdderArch::ripple,
                       MultArch::array, ApproxTechnique::carry_window};
  expect_lane_exact(lib_, window, 29);
  ComponentSpec pp{ComponentKind::multiplier, 8, 3, AdderArch::cla4,
                   MultArch::array, ApproxTechnique::pp_truncation};
  expect_lane_exact(lib_, pp, 31);
}

TEST_F(PackedFuncSimTest, ShortLaneSpanDrivesRemainingLanesZero) {
  const ComponentSpec spec{ComponentKind::adder, 8, 0, AdderArch::ripple,
                           MultArch::array};
  const Netlist nl = make_component(lib_, spec);
  const std::vector<std::uint64_t> a = {0x55, 0x0F, 0xFF};
  const std::vector<std::uint64_t> b = {0x01, 0xF0, 0x02};
  PackedFuncSim packed(nl);
  packed.set_bus("a", a);
  packed.set_bus("b", b);
  packed.eval();
  FuncSim scalar(nl);
  for (int lane = 0; lane < PackedFuncSim::kLanes; ++lane) {
    const std::size_t i = static_cast<std::size_t>(lane);
    scalar.set_bus("a", i < a.size() ? a[i] : 0);
    scalar.set_bus("b", i < b.size() ? b[i] : 0);
    scalar.eval();
    ASSERT_EQ(packed.bus_value("y", lane), scalar.bus_value("y")) << lane;
  }
}

TEST_F(PackedFuncSimTest, RejectsTooManyLanes) {
  Netlist nl(lib_);
  nl.add_input_bus("a", 4);
  PackedFuncSim sim(nl);
  const std::vector<std::uint64_t> lanes(65, 0);
  EXPECT_THROW(sim.set_bus("a", lanes), std::invalid_argument);
}

// Constant-tied bus bits (the realized form of truncated LSBs in hand-wired
// netlists): set_bus must leave const0/const1 nets untouched, matching
// FuncSim::set_bus, while still driving the live bits.
TEST_F(PackedFuncSimTest, ConstantTiedBusBitsStayConstant) {
  Netlist nl(lib_);
  std::vector<NetId> bus = nl.add_input_bus("a", 4);
  // Re-tie the two LSBs: bit 0 -> const0, bit 1 -> const1.
  bus[0] = nl.const0();
  bus[1] = nl.const1();
  nl.set_input_bus("a", std::vector<NetId>(bus));
  const NetId y = nl.mk(LogicFn::kOr2, bus[2], bus[3]);
  nl.mark_output(y, "y");
  const std::vector<NetId> y_nets{y};
  PackedFuncSim sim(nl);
  std::vector<std::uint64_t> vals(PackedFuncSim::kLanes);
  for (int l = 0; l < PackedFuncSim::kLanes; ++l) {
    // Try to overwrite the constants with the opposite value every lane.
    vals[static_cast<std::size_t>(l)] =
        0b0001u | (static_cast<std::uint64_t>(l & 3) << 2);
  }
  sim.set_bus("a", vals);
  sim.eval();
  EXPECT_EQ(sim.lanes(nl.const0()), 0u);
  EXPECT_EQ(sim.lanes(nl.const1()), ~std::uint64_t{0});
  for (int l = 0; l < PackedFuncSim::kLanes; ++l) {
    // vals bit 2 = l&1, bit 3 = (l>>1)&1 — the live OR inputs.
    const bool expect = (l & 1) || ((l >> 1) & 1);
    ASSERT_EQ(sim.word_value(y_nets, l), expect ? 1u : 0u) << "lane " << l;
  }
}

// The duty-extraction readout must equal a per-lane walk of the same lane
// words, counting only lanes below the limit and accumulating into sums.
TEST_F(PackedFuncSimTest, AddHighPopcountsMatchesPerLaneReadout) {
  const ComponentSpec spec{ComponentKind::adder, 8, 0, AdderArch::cla4,
                           MultArch::array};
  const Netlist nl = make_component(lib_, spec);
  std::vector<NetId> fanouts(nl.num_gates());
  for (std::size_t g = 0; g < nl.num_gates(); ++g) {
    fanouts[g] = nl.gate(static_cast<GateId>(g)).fanout;
  }
  PackedFuncSim sim(nl);
  Rng rng(43);
  std::vector<std::uint64_t> a(PackedFuncSim::kLanes), b(PackedFuncSim::kLanes);
  for (auto& v : a) v = rng.next_u64() & 0xFF;
  for (auto& v : b) v = rng.next_u64() & 0xFF;
  sim.set_bus("a", a);
  sim.set_bus("b", b);
  sim.eval();
  for (const int limit : {PackedFuncSim::kLanes, PackedFuncSim::kLanes - 3}) {
    std::vector<std::uint64_t> sums(fanouts.size(), 5);  // accumulates
    sim.add_high_popcounts(fanouts, limit, sums.data());
    for (std::size_t g = 0; g < fanouts.size(); ++g) {
      std::uint64_t expect = 5;
      for (int lane = 0; lane < limit; ++lane) {
        expect += (sim.lanes(fanouts[g]) >> lane) & 1u;
      }
      ASSERT_EQ(sums[g], expect) << "limit " << limit << " gate " << g;
    }
  }
}

}  // namespace
}  // namespace aapx
