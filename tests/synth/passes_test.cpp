#include "synth/passes.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "engine/context.hpp"
#include "gatesim/funcsim.hpp"
#include "netlist_digest.hpp"
#include "synth/arith.hpp"
#include "util/rng.hpp"

namespace aapx {
namespace {

class PassesTest : public ::testing::Test {
 protected:
  CellLibrary lib_ = make_nangate45_like();
};

/// Checks functional equivalence of two netlists with identical interfaces
/// over random input vectors.
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
          << "output " << a.output_name(o) << " vector " << v;
    }
  }
}

TEST_F(PassesTest, ConstantGateFolds) {
  Netlist nl(lib_);
  const NetId a = nl.add_input("a");
  const NetId y = nl.mk(LogicFn::kAnd2, nl.const0(), a);
  nl.mark_output(y, "y");
  const OptimizeResult res = optimize(nl);
  EXPECT_EQ(res.netlist.num_gates(), 0u);
  EXPECT_EQ(res.netlist.outputs()[0], res.netlist.const0());
}

TEST_F(PassesTest, IdentitySimplifications) {
  Netlist nl(lib_);
  const NetId a = nl.add_input("a");
  // AND2(a, 1) == a: output aliases the input, no gate needed.
  nl.mark_output(nl.mk(LogicFn::kAnd2, a, nl.const1()), "y_and");
  // OR2(a, 0) == a.
  nl.mark_output(nl.mk(LogicFn::kOr2, a, nl.const0()), "y_or");
  // XOR2(a, 0) == a.
  nl.mark_output(nl.mk(LogicFn::kXor2, a, nl.const0()), "y_xor");
  const OptimizeResult res = optimize(nl);
  EXPECT_EQ(res.netlist.num_gates(), 0u);
  for (const NetId out : res.netlist.outputs()) {
    EXPECT_EQ(out, res.netlist.inputs()[0]);
  }
}

TEST_F(PassesTest, InversionSimplifications) {
  Netlist nl(lib_);
  const NetId a = nl.add_input("a");
  // NAND2(a, 1) == !a, XOR2(a, 1) == !a — both become a single shared INV.
  nl.mark_output(nl.mk(LogicFn::kNand2, a, nl.const1()), "y1");
  nl.mark_output(nl.mk(LogicFn::kXor2, a, nl.const1()), "y2");
  const OptimizeResult res = optimize(nl);
  EXPECT_EQ(res.netlist.num_gates(), 1u);  // CSE merges the two inverters
  expect_equivalent(nl, res.netlist, 4, 1);
}

TEST_F(PassesTest, ThreeInputPartialConstants) {
  Netlist nl(lib_);
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  // MAJ3(a, b, 0) == AND2(a, b); MAJ3(a, b, 1) == OR2(a, b).
  nl.mark_output(nl.mk(LogicFn::kMaj3, a, b, nl.const0()), "maj0");
  nl.mark_output(nl.mk(LogicFn::kMaj3, a, b, nl.const1()), "maj1");
  // MUX2 with constant select: pins (a, b, sel).
  nl.mark_output(nl.mk(LogicFn::kMux2, a, b, nl.const0()), "mux0");
  nl.mark_output(nl.mk(LogicFn::kMux2, a, b, nl.const1()), "mux1");
  const OptimizeResult res = optimize(nl);
  expect_equivalent(nl, res.netlist, 8, 2);
  // maj0 -> AND2, maj1 -> OR2; mux selections collapse to aliases.
  EXPECT_EQ(res.netlist.num_gates(), 2u);
}

TEST_F(PassesTest, DeadGateElimination) {
  Netlist nl(lib_);
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId used = nl.mk(LogicFn::kAnd2, a, b);
  nl.mk(LogicFn::kOr2, a, b);  // dead
  nl.mk(LogicFn::kXor2, a, b); // dead
  nl.mark_output(used, "y");
  const OptimizeResult res = optimize(nl);
  EXPECT_EQ(res.netlist.num_gates(), 1u);
  EXPECT_EQ(res.gates_removed, 2u);
}

TEST_F(PassesTest, CseMergesCommutativeDuplicates) {
  Netlist nl(lib_);
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId u = nl.mk(LogicFn::kAnd2, a, b);
  const NetId v = nl.mk(LogicFn::kAnd2, b, a);  // same function, swapped pins
  nl.mark_output(nl.mk(LogicFn::kXor2, u, v), "y");  // == 0
  const OptimizeResult res = optimize(nl);
  // AND(a,b) merges with AND(b,a); XOR(x, x) is not folded by CSE alone,
  // but the two pins now alias, keeping the result functionally equal.
  expect_equivalent(nl, res.netlist, 8, 3);
  EXPECT_LE(res.netlist.num_gates(), 2u);
}

TEST_F(PassesTest, PreservesArithmeticFunction) {
  Netlist nl(lib_);
  const Word a = nl.add_input_bus("a", 8);
  const Word b = nl.add_input_bus("b", 8);
  nl.mark_output_bus(build_multiplier(nl, a, b, MultArch::array), "y");
  const OptimizeResult res = optimize(nl);
  EXPECT_LT(res.netlist.num_gates(), nl.num_gates());
  expect_equivalent(nl, res.netlist, 300, 4);
}

TEST_F(PassesTest, PreservesBusGroupings) {
  Netlist nl(lib_);
  const Word a = nl.add_input_bus("a", 4);
  const Word b = nl.add_input_bus("b", 4);
  nl.mark_output_bus(build_adder(nl, a, b, nl.const0(), AdderArch::ripple), "y");
  const OptimizeResult res = optimize(nl);
  EXPECT_EQ(res.netlist.input_bus("a").size(), 4u);
  EXPECT_EQ(res.netlist.output_bus("y").size(), 5u);
  EXPECT_EQ(res.netlist.input_name(0), "a[0]");
}

TEST_F(PassesTest, IdempotentOnOptimizedNetlist) {
  Netlist nl(lib_);
  const Word a = nl.add_input_bus("a", 6);
  const Word b = nl.add_input_bus("b", 6);
  nl.mark_output_bus(build_adder(nl, a, b, nl.const0(), AdderArch::cla4), "y");
  const OptimizeResult once = optimize(nl);
  const OptimizeResult twice = optimize(once.netlist);
  EXPECT_EQ(once.netlist.num_gates(), twice.netlist.num_gates());
  expect_equivalent(once.netlist, twice.netlist, 100, 5);
}

TEST_F(PassesTest, ConstantOutputsStayConstant) {
  Netlist nl(lib_);
  const NetId a = nl.add_input("a");
  // XOR(a, a) == 0 via CSE-aliased pins? XOR2 with both pins the same net.
  const NetId y = nl.mk(LogicFn::kXor2, a, a);
  nl.mark_output(y, "y");
  const OptimizeResult res = optimize(nl);
  // Truth table over "distinct" vars still sees two pins; the optimizer may
  // keep a gate, but function must be preserved.
  expect_equivalent(nl, res.netlist, 4, 6);
}

/// A seeded random DAG that no component generator builds: any library cell
/// (BUF included), pins tied to constants or repeating the previous pin's
/// net, outputs that leave some gates dead from the start, and a cone that
/// is live in the structure but dead once constants fold. With `driving`,
/// every net is allocated first and the gates are instantiated in shuffled
/// order through add_gate_driving, so gate ids are not topological.
Netlist random_dag(const CellLibrary& lib, std::uint64_t seed, bool driving) {
  Rng rng(seed);
  Netlist nl(lib);
  const int num_inputs = 3 + static_cast<int>(rng.next_below(8));  // 3..10
  std::vector<NetId> pool = nl.add_input_bus("a", num_inputs);

  struct Node {
    CellId cell;
    std::vector<NetId> ins;
    NetId out;
  };
  std::vector<Node> nodes;
  // Pins read only nets that exist before the node, so the graph is acyclic
  // in whatever order its gates are instantiated.
  const auto add = [&](CellId cell, std::vector<NetId> ins) {
    const NetId out = driving ? nl.add_net() : nl.add_gate(cell, ins);
    nodes.push_back({cell, std::move(ins), out});
    pool.push_back(out);
    return out;
  };
  const int num_nodes = 20 + static_cast<int>(rng.next_below(60));
  for (int n = 0; n < num_nodes; ++n) {
    const auto cell = static_cast<CellId>(rng.next_below(lib.size()));
    std::vector<NetId> ins;
    for (int p = 0; p < lib.cell(cell).num_inputs(); ++p) {
      const std::uint64_t pick = rng.next_below(8);
      if (pick == 0) {
        ins.push_back(rng.next_bool() ? nl.const1() : nl.const0());
      } else if (pick == 1 && p > 0) {
        ins.push_back(ins.back());
      } else {
        ins.push_back(pool[rng.next_below(pool.size())]);
      }
    }
    add(cell, std::move(ins));
  }
  // The dead cone: AND2(cone, x & 0) folds to 0 after the pass has already
  // emitted the cone's gates.
  NetId cone = pool[rng.next_below(pool.size())];
  for (int d = 0; d < 3; ++d) {
    const NetId other = pool[rng.next_below(pool.size())];
    cone = add(lib.smallest(d % 2 == 0 ? LogicFn::kXnor2 : LogicFn::kOai21),
               d % 2 == 0 ? std::vector<NetId>{cone, other}
                          : std::vector<NetId>{other, cone, pool[2]});
  }
  const NetId zero =
      add(lib.smallest(LogicFn::kAnd2), {pool[rng.next_below(pool.size())],
                                         nl.const0()});
  nl.mark_output(add(lib.smallest(LogicFn::kAnd2), {cone, zero}), "folded");

  if (driving) {
    std::vector<std::size_t> order(nodes.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.next_below(i)]);
    }
    for (const std::size_t i : order) {
      nl.add_gate_driving(nodes[i].cell, nodes[i].ins, nodes[i].out);
    }
  }
  for (int o = 0; o < 3; ++o) {
    nl.mark_output(pool[rng.next_below(pool.size())],
                   std::string("o").append(std::to_string(o)));
  }
  const std::vector<NetId> bus = {nodes[0].out, nodes[nodes.size() / 2].out,
                                  nodes[num_nodes - 1].out};
  nl.mark_output_bus(bus, "y");
  return nl;
}

/// Exhaustive equivalence over every input vector (at most 10 inputs).
void expect_exhaustively_equivalent(const Netlist& a, const Netlist& b) {
  ASSERT_EQ(a.inputs().size(), b.inputs().size());
  ASSERT_LE(a.inputs().size(), 10u);
  ASSERT_EQ(a.outputs().size(), b.outputs().size());
  FuncSim sa(a);
  FuncSim sb(b);
  for (std::uint64_t v = 0; v < (std::uint64_t{1} << a.inputs().size()); ++v) {
    sa.set_bus("a", v);
    sb.set_bus("a", v);
    sa.eval();
    sb.eval();
    for (std::size_t o = 0; o < a.outputs().size(); ++o) {
      ASSERT_EQ(sa.value(a.outputs()[o]), sb.value(b.outputs()[o]))
          << "output " << a.output_name(o) << " vector " << v;
    }
  }
}

TEST_F(PassesTest, RandomDagsReachTheFixpointInOneCall) {
  int compacted = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE(std::string("seed ").append(std::to_string(seed)));
    const Netlist nl = random_dag(lib_, seed, seed % 2 == 0);
    Context ctx;
    const OptimizeResult res = optimize(nl, &ctx);
    const Netlist& out = res.netlist;
    EXPECT_EQ(res.gates_removed, nl.num_gates() - out.num_gates());
    const std::uint64_t passes =
        ctx.metrics().counter("optimize.passes").value();
    ASSERT_LE(passes, 2u);
    if (passes == 2) ++compacted;

    std::vector<char> is_output(out.num_nets(), 0);
    for (const NetId o : out.outputs()) is_output[o] = 1;
    for (GateId g = 0; g < out.num_gates(); ++g) {
      const Gate& gate = out.gate(g);
      const LogicFn fn = lib_.cell(gate.cell).fn;
      EXPECT_NE(fn, LogicFn::kBuf) << "gate " << g;
      EXPECT_TRUE(is_output[gate.fanout] || !out.readers(gate.fanout).empty())
          << "dead gate " << g;
      // Commutative pins stay sorted under the final net numbering.
      EXPECT_TRUE(std::is_sorted(
          gate.fanin.begin(),
          gate.fanin.begin() + commuting_pins(fn, gate.num_inputs())))
          << "gate " << g;
    }

    const OptimizeResult again = optimize(out);
    EXPECT_EQ(again.gates_removed, 0u);
    EXPECT_EQ(renumbering_invariant_digest(again.netlist),
              renumbering_invariant_digest(out));
    expect_exhaustively_equivalent(nl, out);
  }
  EXPECT_GT(compacted, 0) << "no seed exercised the dead-gate compaction";
}

}  // namespace
}  // namespace aapx
