// Cross-module round-trip integration: the interchange formats must carry
// enough information that analyses agree bit-for-bit after a round trip.
#include <gtest/gtest.h>

#include <sstream>

#include "cell/liberty.hpp"
#include "gatesim/funcsim.hpp"
#include "netlist/verilog.hpp"
#include "sta/sta.hpp"
#include "support/interchange_reader.hpp"
#include "synth/components.hpp"
#include "synth/passes.hpp"
#include "util/rng.hpp"

namespace aapx {
namespace {

TEST(RoundTripIntegrationTest, StaAgreesOnLibertyReloadedLibrary) {
  const CellLibrary lib = make_nangate45_like();
  std::stringstream ss;
  write_liberty(lib, ss);
  const CellLibrary reloaded = test::read_liberty(ss);

  // The same component synthesized against both libraries must time equally.
  // Cell ids may differ, so rebuild the netlist against the reloaded library.
  const ComponentSpec spec{ComponentKind::adder, 16, 0, AdderArch::cla4,
                           MultArch::array};
  const Netlist a = make_component(lib, spec);
  const Netlist b = make_component(reloaded, spec);
  EXPECT_EQ(a.num_gates(), b.num_gates());
  EXPECT_NEAR(Sta(a).run_fresh().max_delay, Sta(b).run_fresh().max_delay, 1e-6);
}

TEST(RoundTripIntegrationTest, AgedStaAgreesAfterLibertyRoundTrip) {
  const CellLibrary lib = make_nangate45_like();
  std::stringstream ss;
  write_liberty(lib, ss);
  const CellLibrary reloaded = test::read_liberty(ss);
  const AgingModel model;
  const ComponentSpec spec{ComponentKind::multiplier, 10, 0, AdderArch::cla4,
                           MultArch::array};
  const Netlist a = make_component(lib, spec);
  const Netlist b = make_component(reloaded, spec);
  const DegradationAwareLibrary aged_a(lib, model, 10.0);
  const DegradationAwareLibrary aged_b(reloaded, model, 10.0);
  const StressProfile stress =
      StressProfile::uniform(StressMode::worst, a.num_gates());
  EXPECT_NEAR(Sta(a).run_aged(aged_a, stress).max_delay,
              Sta(b).run_aged(aged_b, stress).max_delay, 1e-6);
}

TEST(RoundTripIntegrationTest, VerilogRoundTripPreservesTiming) {
  const CellLibrary lib = make_nangate45_like();
  const Netlist nl = make_component(
      lib, {ComponentKind::adder, 12, 3, AdderArch::cla4, MultArch::array});
  std::stringstream ss;
  write_verilog(nl, ss, "adder12_k9");
  const Netlist back = test::read_verilog(ss, lib);
  EXPECT_NEAR(Sta(nl).run_fresh().max_delay, Sta(back).run_fresh().max_delay,
              1e-9);
}

// --- optimizer equivalence fuzzing ----------------------------------------

/// Builds a random combinational DAG over the library's functions.
Netlist random_netlist(const CellLibrary& lib, Rng& rng, int num_inputs,
                       int num_gates, int num_outputs, double const_prob) {
  Netlist nl(lib);
  std::vector<NetId> pool;
  for (int i = 0; i < num_inputs; ++i) {
    pool.push_back(nl.add_input(std::string("i").append(std::to_string(i))));
  }
  const LogicFn fns[] = {LogicFn::kInv,   LogicFn::kBuf,   LogicFn::kAnd2,
                         LogicFn::kNand2, LogicFn::kOr2,   LogicFn::kNor2,
                         LogicFn::kXor2,  LogicFn::kXnor2, LogicFn::kAnd3,
                         LogicFn::kNand3, LogicFn::kOr3,   LogicFn::kNor3,
                         LogicFn::kAoi21, LogicFn::kOai21, LogicFn::kMux2,
                         LogicFn::kMaj3};
  for (int g = 0; g < num_gates; ++g) {
    const LogicFn fn = fns[rng.next_below(std::size(fns))];
    std::vector<NetId> ins;
    for (int p = 0; p < fn_num_inputs(fn); ++p) {
      if (rng.next_bool(const_prob)) {
        ins.push_back(rng.next_bool() ? nl.const1() : nl.const0());
      } else {
        ins.push_back(pool[rng.next_below(pool.size())]);
      }
    }
    NetId out = kInvalidNet;
    switch (ins.size()) {
      case 1: out = nl.mk(fn, ins[0]); break;
      case 2: out = nl.mk(fn, ins[0], ins[1]); break;
      case 3: out = nl.mk(fn, ins[0], ins[1], ins[2]); break;
      default: throw std::logic_error("unexpected pin count");
    }
    pool.push_back(out);
  }
  for (int o = 0; o < num_outputs; ++o) {
    nl.mark_output(pool[pool.size() - 1 - static_cast<std::size_t>(o)],
                   std::string("o").append(std::to_string(o)));
  }
  return nl;
}

class OptimizerFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(OptimizerFuzzTest, OptimizePreservesFunctionOnRandomNetlists) {
  const CellLibrary lib = make_nangate45_like();
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  const int num_inputs = 4 + static_cast<int>(rng.next_below(6));
  const int num_gates = 20 + static_cast<int>(rng.next_below(120));
  const int num_outputs = 1 + static_cast<int>(rng.next_below(5));
  const double const_prob = 0.05 + 0.30 * rng.next_double();
  const Netlist original =
      random_netlist(lib, rng, num_inputs, num_gates, num_outputs, const_prob);
  const OptimizeResult res = optimize(original);
  ASSERT_LE(res.netlist.num_gates(), original.num_gates());
  // The random netlists carry BUFs and dead logic, the two things a further
  // pass could still remove; optimize must have reached its fixpoint.
  EXPECT_EQ(optimize(res.netlist).gates_removed, 0u) << "seed " << GetParam();

  FuncSim sa(original);
  FuncSim sb(res.netlist);
  for (unsigned mask = 0; mask < (1u << std::min(num_inputs, 10)); ++mask) {
    for (int i = 0; i < num_inputs; ++i) {
      const bool bit = (mask >> i) & 1u;
      sa.set_input(original.inputs()[static_cast<std::size_t>(i)], bit);
      sb.set_input(res.netlist.inputs()[static_cast<std::size_t>(i)], bit);
    }
    sa.eval();
    sb.eval();
    for (int o = 0; o < num_outputs; ++o) {
      ASSERT_EQ(sa.value(original.outputs()[static_cast<std::size_t>(o)]),
                sb.value(res.netlist.outputs()[static_cast<std::size_t>(o)]))
          << "seed " << GetParam() << " mask " << mask << " output " << o;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptimizerFuzzTest, ::testing::Range(0, 24));

class VerilogFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(VerilogFuzzTest, RoundTripPreservesRandomNetlists) {
  const CellLibrary lib = make_nangate45_like();
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 5);
  const int num_inputs = 3 + static_cast<int>(rng.next_below(5));
  const Netlist original = random_netlist(lib, rng, num_inputs,
                                          15 + static_cast<int>(rng.next_below(60)),
                                          2, 0.1);
  std::stringstream ss;
  write_verilog(original, ss, "fuzz");
  const Netlist back = test::read_verilog(ss, lib);
  ASSERT_EQ(back.num_gates(), original.num_gates());

  FuncSim sa(original);
  FuncSim sb(back);
  for (unsigned mask = 0; mask < (1u << num_inputs); ++mask) {
    for (int i = 0; i < num_inputs; ++i) {
      const bool bit = (mask >> i) & 1u;
      sa.set_input(original.inputs()[static_cast<std::size_t>(i)], bit);
      sb.set_input(back.inputs()[static_cast<std::size_t>(i)], bit);
    }
    sa.eval();
    sb.eval();
    for (std::size_t o = 0; o < original.outputs().size(); ++o) {
      ASSERT_EQ(sa.value(original.outputs()[o]), sb.value(back.outputs()[o]))
          << "seed " << GetParam() << " mask " << mask;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VerilogFuzzTest, ::testing::Range(0, 12));

}  // namespace
}  // namespace aapx
