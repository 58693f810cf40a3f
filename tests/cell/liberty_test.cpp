#include "cell/liberty.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "support/interchange_reader.hpp"

namespace aapx {
namespace {

class LibertyTest : public ::testing::Test {
 protected:
  CellLibrary lib_ = make_nangate45_like();
};

TEST_F(LibertyTest, WriterEmitsLibertyStructure) {
  std::ostringstream os;
  write_liberty(lib_, os);
  const std::string text = os.str();
  EXPECT_NE(text.find("library (aapx_nangate45_like)"), std::string::npos);
  EXPECT_NE(text.find("lu_table_template (delay_template)"), std::string::npos);
  EXPECT_NE(text.find("cell (NAND2_X1)"), std::string::npos);
  EXPECT_NE(text.find("cell_rise (delay_template)"), std::string::npos);
  EXPECT_NE(text.find("related_pin : \"A0\""), std::string::npos);
  EXPECT_NE(text.find("function : \"!(A0 A1)\""), std::string::npos);
}

TEST_F(LibertyTest, RoundTripPreservesEverything) {
  std::stringstream ss;
  write_liberty(lib_, ss);
  const CellLibrary loaded = test::read_liberty(ss);
  ASSERT_EQ(loaded.size(), lib_.size());
  for (CellId id = 0; id < lib_.size(); ++id) {
    const Cell& a = lib_.cell(id);
    // Parsed library preserves names; find by name to be order-agnostic.
    const auto found = loaded.find(a.name);
    ASSERT_TRUE(found.has_value()) << a.name;
    const Cell& b = loaded.cell(*found);
    EXPECT_EQ(a.fn, b.fn) << a.name;
    EXPECT_EQ(a.drive, b.drive);
    EXPECT_NEAR(a.area, b.area, 1e-9);
    EXPECT_NEAR(a.pin_cap, b.pin_cap, 1e-9);
    EXPECT_NEAR(a.max_load, b.max_load, 1e-9);
    EXPECT_NEAR(a.aging_sensitivity, b.aging_sensitivity, 1e-9);
    ASSERT_EQ(a.leakage_per_state.size(), b.leakage_per_state.size());
    for (std::size_t s = 0; s < a.leakage_per_state.size(); ++s) {
      EXPECT_NEAR(a.leakage_per_state[s], b.leakage_per_state[s], 1e-6);
    }
    ASSERT_EQ(a.arcs.size(), b.arcs.size());
    for (int p = 0; p < a.num_inputs(); ++p) {
      // Table lookups must agree on and off the grid.
      for (const double slew : {10.0, 33.0, 200.0}) {
        for (const double load : {1.0, 5.5, 20.0}) {
          EXPECT_NEAR(a.arc(p).rise_delay.lookup(slew, load),
                      b.arc(p).rise_delay.lookup(slew, load), 1e-6);
          EXPECT_NEAR(a.arc(p).fall_slew.lookup(slew, load),
                      b.arc(p).fall_slew.lookup(slew, load), 1e-6);
        }
      }
    }
  }
}

TEST_F(LibertyTest, AgedExportScalesDelays) {
  const AgingModel model;
  const DegradationAwareLibrary aged(lib_, model, 10.0);
  std::stringstream fresh_ss;
  std::stringstream aged_ss;
  write_liberty(lib_, fresh_ss);
  write_aged_liberty(aged, kWorstCaseStress, aged_ss);
  const CellLibrary fresh = test::read_liberty(fresh_ss);
  const CellLibrary worn = test::read_liberty(aged_ss);
  const CellId nand_fresh = *fresh.find("NAND2_X1");
  const CellId nand_worn = *worn.find("NAND2_X1");
  const double d_fresh =
      fresh.cell(nand_fresh).arc(0).rise_delay.lookup(20.0, 4.0);
  const double d_worn = worn.cell(nand_worn).arc(0).rise_delay.lookup(20.0, 4.0);
  const double expect =
      aged.rise_factor(*lib_.find("NAND2_X1"), kWorstCaseStress);
  EXPECT_NEAR(d_worn / d_fresh, expect, 1e-6);
}

TEST_F(LibertyTest, EmptyLibraryRejected) {
  CellLibrary empty;
  std::ostringstream os;
  EXPECT_THROW(write_liberty(empty, os), std::invalid_argument);
}

}  // namespace
}  // namespace aapx
