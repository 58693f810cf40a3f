#include "cell/library.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>

namespace aapx {
namespace {

class LibraryTest : public ::testing::Test {
 protected:
  CellLibrary lib_ = make_nangate45_like();
};

TEST_F(LibraryTest, HasAllFunctionsAndDrives) {
  // 16 functions x 4 drive strengths.
  EXPECT_EQ(lib_.size(), 64u);
  for (const LogicFn fn :
       {LogicFn::kInv, LogicFn::kNand2, LogicFn::kXor2, LogicFn::kMaj3}) {
    for (const int drive : {1, 2, 4}) {
      EXPECT_TRUE(lib_.find(fn, drive).has_value())
          << to_string(fn) << "_X" << drive;
    }
  }
}

TEST_F(LibraryTest, FindByName) {
  const auto id = lib_.find("NAND2_X2");
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(lib_.cell(*id).fn, LogicFn::kNand2);
  EXPECT_EQ(lib_.cell(*id).drive, 2);
  EXPECT_FALSE(lib_.find("NAND9_X1").has_value());
}

TEST_F(LibraryTest, SmallestPicksX1) {
  const CellId id = lib_.smallest(LogicFn::kXor2);
  EXPECT_EQ(lib_.cell(id).drive, 1);
}

TEST_F(LibraryTest, DriveVariantsSorted) {
  const auto variants = lib_.drive_variants(LogicFn::kInv);
  ASSERT_EQ(variants.size(), 4u);
  EXPECT_EQ(lib_.cell(variants[0]).drive, 1);
  EXPECT_EQ(lib_.cell(variants[1]).drive, 2);
  EXPECT_EQ(lib_.cell(variants[2]).drive, 4);
  EXPECT_EQ(lib_.cell(variants[3]).drive, 8);
}

TEST_F(LibraryTest, StrongerCellsHaveMoreAreaLessResistance) {
  const Cell& x1 = lib_.cell(*lib_.find(LogicFn::kNand2, 1));
  const Cell& x4 = lib_.cell(*lib_.find(LogicFn::kNand2, 4));
  EXPECT_GT(x4.area, x1.area);
  EXPECT_GT(x4.pin_cap, x1.pin_cap);
  EXPECT_GT(x4.max_load, x1.max_load);
  // A stronger cell drives the same load faster.
  const double d1 = x1.arc(0).rise_delay.lookup(20.0, 8.0);
  const double d4 = x4.arc(0).rise_delay.lookup(20.0, 8.0);
  EXPECT_LT(d4, d1);
}

TEST_F(LibraryTest, DelayIncreasesWithLoadAndSlew) {
  const Cell& c = lib_.cell(*lib_.find(LogicFn::kXor2, 1));
  const TimingArc& arc = c.arc(0);
  EXPECT_LT(arc.rise_delay.lookup(20.0, 1.0), arc.rise_delay.lookup(20.0, 16.0));
  EXPECT_LT(arc.rise_delay.lookup(10.0, 4.0), arc.rise_delay.lookup(100.0, 4.0));
  EXPECT_LT(arc.fall_delay.lookup(20.0, 1.0), arc.fall_delay.lookup(20.0, 16.0));
}

TEST_F(LibraryTest, EveryPinHasAnArc) {
  for (const Cell& cell : lib_.cells()) {
    ASSERT_EQ(cell.arcs.size(), static_cast<std::size_t>(cell.num_inputs()))
        << cell.name;
    for (int p = 0; p < cell.num_inputs(); ++p) {
      EXPECT_NO_THROW(cell.arc(p)) << cell.name;
    }
  }
}

TEST_F(LibraryTest, LeakageStateTableComplete) {
  for (const Cell& cell : lib_.cells()) {
    EXPECT_EQ(cell.leakage_per_state.size(),
              std::size_t{1} << cell.num_inputs())
        << cell.name;
    for (const double leak : cell.leakage_per_state) EXPECT_GT(leak, 0.0);
  }
}

TEST_F(LibraryTest, AgingSensitivityDifferentiatesTopologies) {
  // Stacked AND/OR pull-networks must age faster than XOR/MAJ structures —
  // the calibrated property behind per-component aging differences.
  const Cell& nor2 = lib_.cell(*lib_.find(LogicFn::kNor2, 1));
  const Cell& xor2 = lib_.cell(*lib_.find(LogicFn::kXor2, 1));
  const Cell& maj3 = lib_.cell(*lib_.find(LogicFn::kMaj3, 1));
  EXPECT_GT(nor2.aging_sensitivity, 1.5);
  EXPECT_LT(xor2.aging_sensitivity, 0.8);
  EXPECT_LT(maj3.aging_sensitivity, 0.8);
}

TEST_F(LibraryTest, DffSpecPresent) {
  EXPECT_GT(lib_.dff().area, 0.0);
  EXPECT_GT(lib_.dff().clk_to_q, 0.0);
  EXPECT_GT(lib_.dff().setup, 0.0);
}

// smallest() is a table that add() keeps current; it must answer what a scan
// of the cells in insertion order answers: the least area, and the first
// added cell among equal areas.
TEST(CellLibraryTest, SmallestMatchesAScanOverAnyInsertionOrder) {
  const CellLibrary generated = make_nangate45_like();
  CellLibrary lib;
  const auto add_cell = [&](LogicFn fn, int drive, double area) {
    Cell cell = generated.cell(generated.smallest(fn));
    cell.name = to_string(fn) + "_T" + std::to_string(lib.size());
    cell.drive = drive;
    cell.area = area;
    lib.add(std::move(cell));
  };
  add_cell(LogicFn::kNand2, 4, 3.0);
  add_cell(LogicFn::kInv, 2, 0.9);
  add_cell(LogicFn::kNand2, 2, 1.5);
  add_cell(LogicFn::kNand2, 1, 1.5);  // ties the X2: the earlier one wins
  add_cell(LogicFn::kInv, 8, 2.0);
  add_cell(LogicFn::kInv, 1, 0.5);    // smaller, added last
  add_cell(LogicFn::kMaj3, 1, 2.1);

  for (std::size_t f = 0; f < kNumLogicFns; ++f) {
    const auto fn = static_cast<LogicFn>(f);
    CellId best = kInvalidCell;
    for (CellId id = 0; id < lib.size(); ++id) {
      if (lib.cell(id).fn != fn) continue;
      if (best == kInvalidCell || lib.cell(id).area < lib.cell(best).area) best = id;
    }
    if (best == kInvalidCell) {
      EXPECT_THROW(lib.smallest(fn), std::out_of_range) << to_string(fn);
    } else {
      EXPECT_EQ(lib.smallest(fn), best) << to_string(fn);
    }
  }
  EXPECT_EQ(lib.cell(lib.smallest(LogicFn::kNand2)).drive, 2);
  EXPECT_EQ(lib.cell(lib.smallest(LogicFn::kInv)).drive, 1);
  EXPECT_THROW(lib.smallest(LogicFn::kXor2), std::out_of_range);
}

TEST(CellLibraryTest, OutOfRangeAccessThrows) {
  CellLibrary lib;
  EXPECT_THROW(lib.cell(0), std::out_of_range);
  EXPECT_THROW(lib.smallest(LogicFn::kInv), std::out_of_range);
}

}  // namespace
}  // namespace aapx
