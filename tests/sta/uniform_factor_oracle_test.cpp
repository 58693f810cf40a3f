// Differential test: the table-driven uniform branch of Sta::gate_delays
// against the per-gate arithmetic it replaced.
//
// Under a worst or balanced profile every gate of a sensitivity class shares
// one stress pair and one toggle activity, so DegradationAwareLibrary keeps
// each class's factors in a table and gate_delays reads one entry per gate.
// The reference below is the arithmetic gate_delays did per cell before:
// the fresh delay times rise_factor / fall_factor at the profile's pair,
// with the HCI alpha-power factor of the activity-driven drift applied to
// falls. Every cell of the library, three lifetimes, a BTI-only and a
// BTI+HCI model, both uniform modes: each delay must match with ==.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "aging/aging_model.hpp"
#include "aging/stress.hpp"
#include "cell/degradation.hpp"
#include "cell/library.hpp"
#include "netlist/netlist.hpp"
#include "sta/sta.hpp"

namespace aapx {
namespace {

/// One gate per cell of `lib`, each reading the first pins of three shared
/// primary inputs and driving its own primary output.
Netlist one_gate_per_cell(const CellLibrary& lib) {
  Netlist nl(lib);
  const std::array<NetId, 3> in = {nl.add_input("a"), nl.add_input("b"),
                                   nl.add_input("c")};
  for (CellId c = 0; c < lib.size(); ++c) {
    const std::size_t pins = static_cast<std::size_t>(lib.cell(c).num_inputs());
    const NetId out = nl.add_gate(c, std::span<const NetId>(in.data(), pins));
    nl.mark_output(out, std::string("y").append(std::to_string(c)));
  }
  return nl;
}

AgingModel bti_hci_model() {
  AgingParams p;
  p.mechanisms = {MechanismKind::bti, MechanismKind::hci};
  return AgingModel(p);
}

class UniformFactorOracleTest : public ::testing::Test {
 protected:
  CellLibrary lib_ = make_nangate45_like();
};

TEST_F(UniformFactorOracleTest, GateDelaysMatchPerCellArithmetic) {
  const Netlist nl = one_gate_per_cell(lib_);
  ASSERT_EQ(nl.num_gates(), lib_.size());
  const Sta sta(nl);
  const Sta::GateDelays base = sta.gate_delays(nullptr, nullptr);
  for (const AgingModel& model : {AgingModel(), bti_hci_model()}) {
    for (const double years : {0.0, 1.0, 10.0}) {
      const DegradationAwareLibrary aged(lib_, model, years);
      for (const StressMode mode : {StressMode::worst, StressMode::balanced}) {
        const StressPair pair =
            mode == StressMode::worst ? kWorstCaseStress : kBalancedStress;
        const double activity = mode == StressMode::worst ? 1.0 : 0.5;
        const StressProfile stress =
            StressProfile::uniform(mode, nl.num_gates());
        const Sta::GateDelays gd = sta.gate_delays(&aged, &stress);
        for (GateId g = 0; g < nl.num_gates(); ++g) {
          const CellId cell = nl.gate(g).cell;
          double fall = aged.fall_factor(cell, pair);
          if (model.has_hci()) {
            const double dvth = model.hci_delta_vth(activity, years) *
                                lib_.cell(cell).aging_sensitivity;
            fall *= model.delay_factor_from_dvth(dvth);
          }
          const std::string what = lib_.cell(cell).name + " " +
                                   std::to_string(years) + "y " +
                                   to_string(mode) +
                                   (model.has_hci() ? " bti+hci" : " bti");
          EXPECT_EQ(gd.rise[g], base.rise[g] * aged.rise_factor(cell, pair))
              << what;
          EXPECT_EQ(gd.fall[g], base.fall[g] * fall) << what;
        }
      }
    }
  }
}

TEST_F(UniformFactorOracleTest, UniformProfileKeepsItsRangeChecks) {
  for (const StressMode mode : {StressMode::worst, StressMode::balanced}) {
    const StressProfile stress = StressProfile::uniform(mode, 5);
    EXPECT_EQ(stress.gate_count(), 5u);
    EXPECT_EQ(stress.gate(4).pmos, stress.gate(0).pmos);
    EXPECT_NO_THROW(stress.gate_activity(4));
    EXPECT_THROW(stress.gate(5), std::out_of_range);
    EXPECT_THROW(stress.gate_activity(5), std::out_of_range);
  }
  const StressProfile empty = StressProfile::uniform(StressMode::worst, 0);
  EXPECT_EQ(empty.gate_count(), 0u);
  EXPECT_THROW(empty.gate(0), std::out_of_range);
  EXPECT_THROW(empty.gate_activity(0), std::out_of_range);
}

TEST_F(UniformFactorOracleTest, HciDriftPastTheOverdriveStillThrowsPerRun) {
  // HCI at full activity eats the whole overdrive of the most sensitive
  // cells, so a worst-mode run throws. The library itself still builds (its
  // table marks the class), and a measured run at low activity still works,
  // exactly as before the table existed.
  AgingParams p;
  p.mechanisms = {MechanismKind::bti, MechanismKind::hci};
  p.hci.a_hci = 0.5;
  const AgingModel model(p);
  const Netlist nl = one_gate_per_cell(lib_);
  const Sta sta(nl);
  std::unique_ptr<DegradationAwareLibrary> aged;
  ASSERT_NO_THROW(aged = std::make_unique<DegradationAwareLibrary>(lib_, model, 10.0));
  const StressProfile worst =
      StressProfile::uniform(StressMode::worst, nl.num_gates());
  EXPECT_THROW(sta.gate_delays(aged.get(), &worst), std::domain_error);
  const StressProfile quiet =
      StressProfile::measured(std::vector<double>(nl.num_gates(), 0.0));
  EXPECT_NO_THROW(sta.gate_delays(aged.get(), &quiet));
}

}  // namespace
}  // namespace aapx
