#include "netlist/stats.hpp"

#include <gtest/gtest.h>

namespace aapx {
namespace {

TEST(NetlistStatsTest, CountsAndArea) {
  const CellLibrary lib = make_nangate45_like();
  Netlist nl(lib);
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId u = nl.mk(LogicFn::kAnd2, a, b);
  const NetId v = nl.mk(LogicFn::kInv, u);
  nl.mark_output(v, "v");

  const NetlistStats stats = compute_stats(nl);
  EXPECT_EQ(stats.gates, 2u);
  EXPECT_EQ(stats.inputs, 2u);
  EXPECT_EQ(stats.outputs, 1u);
  const double expected = lib.cell(lib.smallest(LogicFn::kAnd2)).area +
                          lib.cell(lib.smallest(LogicFn::kInv)).area;
  EXPECT_NEAR(stats.cell_area, expected, 1e-12);
}

TEST(NetlistStatsTest, TotalAreaIncludesRegisters) {
  const CellLibrary lib = make_nangate45_like();
  Netlist nl(lib);
  const NetId a = nl.add_input("a");
  nl.mark_output(nl.mk(LogicFn::kInv, a), "y");
  const double without = total_area(nl, 0);
  const double with = total_area(nl, 10);
  EXPECT_NEAR(with - without, 10 * lib.dff().area, 1e-12);
}

}  // namespace
}  // namespace aapx
