#include "netlist/netlist.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "synth/components.hpp"
#include "util/rng.hpp"

namespace aapx {
namespace {

class NetlistTest : public ::testing::Test {
 protected:
  CellLibrary lib_ = make_nangate45_like();
};

TEST_F(NetlistTest, ConstantsExistFromConstruction) {
  const Netlist nl(lib_);
  EXPECT_EQ(nl.num_nets(), 2u);
  EXPECT_TRUE(nl.is_constant(nl.const0()));
  EXPECT_TRUE(nl.is_constant(nl.const1()));
  EXPECT_EQ(nl.driver(nl.const0()), kInvalidGate);
}

TEST_F(NetlistTest, AddInputAndBus) {
  Netlist nl(lib_);
  const NetId a = nl.add_input("a");
  EXPECT_EQ(nl.inputs().size(), 1u);
  EXPECT_EQ(nl.input_name(0), "a");
  EXPECT_FALSE(nl.is_constant(a));

  const auto bus = nl.add_input_bus("x", 4);
  EXPECT_EQ(bus.size(), 4u);
  EXPECT_EQ(nl.inputs().size(), 5u);
  EXPECT_EQ(nl.input_bus("x"), bus);
  EXPECT_TRUE(nl.has_input_bus("x"));
  EXPECT_FALSE(nl.has_input_bus("y"));
  EXPECT_THROW(nl.input_bus("y"), std::out_of_range);
}

TEST_F(NetlistTest, AddGateWiresReaders) {
  Netlist nl(lib_);
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId y = nl.mk(LogicFn::kAnd2, a, b);
  EXPECT_EQ(nl.num_gates(), 1u);
  EXPECT_EQ(nl.driver(y), 0u);
  ASSERT_EQ(nl.readers(a).size(), 1u);
  EXPECT_EQ(nl.readers(a)[0].gate, 0u);
  EXPECT_EQ(nl.readers(a)[0].pin, 0);
  EXPECT_EQ(nl.readers(b)[0].pin, 1);
}

TEST_F(NetlistTest, PinCountValidation) {
  Netlist nl(lib_);
  const NetId a = nl.add_input("a");
  const CellId and2 = lib_.smallest(LogicFn::kAnd2);
  const NetId one_input[] = {a};
  EXPECT_THROW(nl.add_gate(and2, one_input), std::invalid_argument);
}

TEST_F(NetlistTest, TopoOrderRespectsDependencies) {
  Netlist nl(lib_);
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId u = nl.mk(LogicFn::kAnd2, a, b);
  const NetId v = nl.mk(LogicFn::kInv, u);
  const NetId w = nl.mk(LogicFn::kOr2, u, v);
  nl.mark_output(w, "w");
  const auto& order = nl.topo_order();
  ASSERT_EQ(order.size(), 3u);
  // Gate 0 (AND) before gate 1 (INV) before gate 2 (OR).
  std::vector<std::size_t> pos(3);
  for (std::size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  EXPECT_LT(pos[0], pos[1]);
  EXPECT_LT(pos[1], pos[2]);
}

/// `src` rebuilt through the public builder API with the same net and gate
/// ids, so nothing has read it yet: its reader and order caches are unfilled.
Netlist rebuild(const Netlist& src) {
  Netlist nl(src.lib());
  for (NetId id = 2; id < src.num_nets(); ++id) {
    if (src.pi_index(id) != kInvalidNet) {
      nl.add_input(src.input_name(src.pi_index(id)));
    } else {
      nl.add_net();
    }
  }
  for (const Gate& g : src.gates()) {
    nl.add_gate_driving(
        g.cell,
        std::span<const NetId>(g.fanin.data(),
                               static_cast<std::size_t>(g.num_inputs())),
        g.fanout);
  }
  for (std::size_t i = 0; i < src.outputs().size(); ++i) {
    nl.mark_output(src.outputs()[i], src.output_name(i));
  }
  return nl;
}

// A netlist's first readers may be concurrent (measure_gate_duty's per-chunk
// simulators). Four threads racing on the first fill must all see the same,
// complete order; the sanitizer build checks that the fill is race-free.
TEST_F(NetlistTest, TopoOrderFirstFillIsThreadSafe) {
  const ComponentSpec spec{ComponentKind::multiplier, 8, 0, AdderArch::cla4,
                           MultArch::array};
  const Netlist built = make_component(lib_, spec);
  const std::vector<GateId> expect = built.topo_order();
  const Netlist nl = rebuild(built);

  constexpr int kThreads = 4;
  std::atomic<int> arrived{0};
  std::vector<std::vector<GateId>> seen(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      arrived.fetch_add(1);
      while (arrived.load() < kThreads) {
      }
      seen[static_cast<std::size_t>(t)] = nl.topo_order();
    });
  }
  for (std::thread& th : threads) th.join();
  for (const std::vector<GateId>& order : seen) EXPECT_EQ(order, expect);
}

/// Random DAG over every library function; pins read any earlier net,
/// constants included, so nets get zero, one or many readers.
Netlist random_dag(const CellLibrary& lib, std::uint64_t seed) {
  Rng rng(seed);
  Netlist nl(lib);
  std::vector<NetId> pool = {nl.const0(), nl.const1()};
  for (int i = 0; i < 6; ++i) pool.push_back(nl.add_input(std::string("i").append(std::to_string(i))));
  const int gates = 40 + static_cast<int>(rng.next_below(80));
  for (int g = 0; g < gates; ++g) {
    const auto fn = static_cast<LogicFn>(rng.next_below(kNumLogicFns));
    std::vector<NetId> ins;
    for (int p = 0; p < fn_num_inputs(fn); ++p) {
      ins.push_back(pool[rng.next_below(pool.size())]);
    }
    pool.push_back(nl.add_gate(lib.smallest(fn), ins));
  }
  nl.mark_output(pool.back(), "y");
  return nl;
}

TEST_F(NetlistTest, ReadersAreAscendingAndMatchAScan) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const Netlist nl = random_dag(lib_, seed);
    for (NetId n = 0; n < nl.num_nets(); ++n) {
      std::vector<std::pair<GateId, int>> expect;
      for (GateId g = 0; g < nl.num_gates(); ++g) {
        for (int p = 0; p < nl.gate_num_inputs(g); ++p) {
          if (nl.gate(g).fanin[static_cast<std::size_t>(p)] == n) {
            expect.emplace_back(g, p);
          }
        }
      }
      std::vector<std::pair<GateId, int>> seen;
      for (const NetReader& r : nl.readers(n)) seen.emplace_back(r.gate, r.pin);
      EXPECT_EQ(seen, expect) << "seed " << seed << " net " << n;
    }
  }
}

TEST_F(NetlistTest, ConstructionAfterAReadRefreshesReaders) {
  Netlist nl(lib_);
  const NetId a = nl.add_input("a");
  nl.mk(LogicFn::kInv, a);
  ASSERT_EQ(nl.readers(a).size(), 1u);
  nl.mk(LogicFn::kBuf, a);
  ASSERT_EQ(nl.readers(a).size(), 2u);
  EXPECT_EQ(nl.readers(a)[1].gate, 1u);
  EXPECT_TRUE(nl.readers(nl.add_net()).empty());
}

// Moving a netlist takes its filled caches along; the result reads exactly
// as a copy does, and the moved-from netlist holds no stale cache.
TEST_F(NetlistTest, MovedNetlistKeepsReadersAndOrder) {
  Netlist source = random_dag(lib_, 7);
  source.topo_order();  // fill both caches before the move
  const Netlist copy = source;
  const Netlist moved = std::move(source);
  EXPECT_EQ(moved.topo_order(), copy.topo_order());
  for (NetId n = 0; n < copy.num_nets(); ++n) {
    const auto a = moved.readers(n);
    const auto b = copy.readers(n);
    ASSERT_EQ(a.size(), b.size()) << "net " << n;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].gate, b[i].gate);
      EXPECT_EQ(a[i].pin, b[i].pin);
    }
  }
  Netlist assigned(lib_);
  assigned = Netlist(copy);
  EXPECT_EQ(assigned.topo_order(), copy.topo_order());
}

// Same race as TopoOrderFirstFillIsThreadSafe, entered through readers():
// the reader CSR is filled lazily under the topological order's guard.
TEST_F(NetlistTest, ReadersFirstFillIsThreadSafe) {
  const ComponentSpec spec{ComponentKind::adder, 16, 0, AdderArch::cla4,
                           MultArch::array};
  const Netlist built = make_component(lib_, spec);
  std::vector<std::size_t> expect;
  for (NetId n = 0; n < built.num_nets(); ++n) {
    expect.push_back(built.readers(n).size());
  }
  const Netlist nl = rebuild(built);

  constexpr int kThreads = 4;
  std::atomic<int> arrived{0};
  std::vector<std::vector<std::size_t>> seen(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      arrived.fetch_add(1);
      while (arrived.load() < kThreads) {
      }
      for (NetId n = 0; n < nl.num_nets(); ++n) {
        seen[static_cast<std::size_t>(t)].push_back(nl.readers(n).size());
      }
      if (t == 0) nl.topo_order();
    });
  }
  for (std::thread& th : threads) th.join();
  for (const std::vector<std::size_t>& counts : seen) EXPECT_EQ(counts, expect);
  EXPECT_EQ(nl.topo_order(), built.topo_order());
}

TEST_F(NetlistTest, NetLoadSumsPinCaps) {
  Netlist nl(lib_);
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  nl.mk(LogicFn::kAnd2, a, b);
  nl.mk(LogicFn::kInv, a);
  const Cell& and2 = lib_.cell(lib_.smallest(LogicFn::kAnd2));
  const Cell& inv = lib_.cell(lib_.smallest(LogicFn::kInv));
  EXPECT_NEAR(nl.net_load(a),
              and2.pin_cap + inv.pin_cap + 2 * Netlist::kWireCapPerFanout, 1e-12);
  EXPECT_NEAR(nl.net_load(b), and2.pin_cap + Netlist::kWireCapPerFanout, 1e-12);
}

TEST_F(NetlistTest, OutputBusRoundTrip) {
  Netlist nl(lib_);
  const NetId a = nl.add_input("a");
  const NetId y0 = nl.mk(LogicFn::kInv, a);
  const NetId y1 = nl.mk(LogicFn::kBuf, a);
  const NetId bus[] = {y0, y1};
  nl.mark_output_bus(bus, "y");
  EXPECT_EQ(nl.outputs().size(), 2u);
  EXPECT_EQ(nl.output_name(0), "y[0]");
  EXPECT_EQ(nl.output_bus("y")[1], y1);
}

TEST_F(NetlistTest, SetGateCellSwapsDriveOnly) {
  Netlist nl(lib_);
  const NetId a = nl.add_input("a");
  nl.mk(LogicFn::kInv, a);
  const CellId inv_x4 = *lib_.find(LogicFn::kInv, 4);
  nl.set_gate_cell(0, inv_x4);
  EXPECT_EQ(nl.gate(0).cell, inv_x4);
  const CellId and2 = lib_.smallest(LogicFn::kAnd2);
  EXPECT_THROW(nl.set_gate_cell(0, and2), std::invalid_argument);
}

TEST_F(NetlistTest, GateCountedInputsMatchCell) {
  Netlist nl(lib_);
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId c = nl.add_input("c");
  nl.mk(LogicFn::kMaj3, a, b, c);
  EXPECT_EQ(nl.gate_num_inputs(0), 3);
  EXPECT_EQ(nl.gate(0).num_inputs(), 3);
  // The fanin sentinels give the cell's pin count on every gate.
  const Netlist dag = random_dag(lib_, 3);
  for (const Gate& g : dag.gates()) {
    EXPECT_EQ(g.num_inputs(), lib_.cell(g.cell).num_inputs());
  }
}

TEST_F(NetlistTest, InvalidAccessThrows) {
  Netlist nl(lib_);
  EXPECT_THROW(nl.gate(0), std::out_of_range);
  EXPECT_THROW(nl.driver(99), std::out_of_range);
  EXPECT_THROW(nl.readers(99), std::out_of_range);
  EXPECT_THROW(nl.mark_output(99, "x"), std::out_of_range);
  EXPECT_THROW(nl.add_input_bus("b", 0), std::invalid_argument);
}

}  // namespace
}  // namespace aapx
