#include "sta/sta.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "engine/context.hpp"
#include "obs/metrics.hpp"
#include "synth/components.hpp"
#include "util/rng.hpp"

namespace aapx {
namespace {

class StaTest : public ::testing::Test {
 protected:
  CellLibrary lib_ = make_nangate45_like();
  AgingModel model_;

  Netlist make_adder(int width, AdderArch arch = AdderArch::ripple) const {
    return make_component(lib_,
                          {ComponentKind::adder, width, 0, arch, MultArch::array});
  }
};

TEST_F(StaTest, EmptyDesignHasZeroDelay) {
  Netlist nl(lib_);
  const NetId a = nl.add_input("a");
  nl.mark_output(a, "y");  // wire-through
  const StaResult res = Sta(nl).run_fresh();
  EXPECT_DOUBLE_EQ(res.max_delay, 0.0);
}

TEST_F(StaTest, SingleGateDelayMatchesTable) {
  Netlist nl(lib_);
  const NetId a = nl.add_input("a");
  const NetId y = nl.mk(LogicFn::kInv, a);
  nl.mark_output(y, "y");
  StaOptions opt;
  const StaResult res = Sta(nl, opt).run_fresh();
  const Cell& inv = lib_.cell(lib_.smallest(LogicFn::kInv));
  const double load = opt.primary_output_load;  // no readers, PO load only
  const double expect =
      std::max(inv.arc(0).rise_delay.lookup(opt.primary_input_slew, load),
               inv.arc(0).fall_delay.lookup(opt.primary_input_slew, load));
  EXPECT_NEAR(res.max_delay, expect, 1e-9);
}

TEST_F(StaTest, DelayGrowsWithWidthForRipple) {
  double prev = 0.0;
  for (const int width : {4, 8, 16, 32}) {
    const double d = Sta(make_adder(width)).run_fresh().max_delay;
    EXPECT_GT(d, prev);
    prev = d;
  }
}

TEST_F(StaTest, RippleSlowerThanCla4SlowerThanKoggeStone) {
  const double ripple = Sta(make_adder(32, AdderArch::ripple)).run_fresh().max_delay;
  const double cla = Sta(make_adder(32, AdderArch::cla4)).run_fresh().max_delay;
  const double ks = Sta(make_adder(32, AdderArch::kogge_stone)).run_fresh().max_delay;
  EXPECT_GT(ripple, cla);
  EXPECT_GT(cla, ks);
}

TEST_F(StaTest, AgedSlowerThanFresh) {
  const Netlist nl = make_adder(16);
  const Sta sta(nl);
  const double fresh = sta.run_fresh().max_delay;
  const DegradationAwareLibrary aged(lib_, model_, 10.0);
  const StressProfile stress =
      StressProfile::uniform(StressMode::worst, nl.num_gates());
  const double aged_delay = sta.run_aged(aged, stress).max_delay;
  EXPECT_GT(aged_delay, fresh);
  // Within the calibrated band (a few % to ~30%).
  EXPECT_LT(aged_delay, fresh * 1.4);
}

TEST_F(StaTest, WorstStressSlowerThanBalanced) {
  const Netlist nl = make_adder(16);
  const Sta sta(nl);
  const DegradationAwareLibrary aged(lib_, model_, 10.0);
  const double worst =
      sta.run_aged(aged, StressProfile::uniform(StressMode::worst, nl.num_gates()))
          .max_delay;
  const double bal =
      sta.run_aged(aged,
                   StressProfile::uniform(StressMode::balanced, nl.num_gates()))
          .max_delay;
  EXPECT_GT(worst, bal);
}

TEST_F(StaTest, ZeroYearAgedEqualsFresh) {
  const Netlist nl = make_adder(8);
  const Sta sta(nl);
  const DegradationAwareLibrary aged(lib_, model_, 0.0);
  const StressProfile stress =
      StressProfile::uniform(StressMode::worst, nl.num_gates());
  EXPECT_NEAR(sta.run_aged(aged, stress).max_delay, sta.run_fresh().max_delay,
              1e-9);
}

TEST_F(StaTest, CriticalPathIsConnectedAndMonotone) {
  const Netlist nl = make_adder(16);
  const Sta sta(nl);
  const StaResult res = sta.run_fresh();
  const std::vector<PathStep> path =
      critical_path(nl, sta.gate_delays(nullptr, nullptr), res.arrival);
  ASSERT_FALSE(path.empty());
  // Arrivals strictly increase along the path, ending at max_delay.
  double prev = 0.0;
  for (const PathStep& step : path) {
    EXPECT_GT(step.arrival, prev);
    prev = step.arrival;
  }
  EXPECT_NEAR(prev, res.max_delay, 1e-9);
  // Consecutive steps are structurally connected.
  for (std::size_t i = 1; i < path.size(); ++i) {
    const PathStep& cur = path[i];
    const NetId in =
        nl.gate(cur.gate).fanin[static_cast<std::size_t>(cur.input_pin)];
    EXPECT_EQ(nl.driver(in), path[i - 1].gate);
  }
}

TEST_F(StaTest, GateDelaysCoverEveryGate) {
  const Netlist nl = make_adder(8);
  const Sta sta(nl);
  const Sta::GateDelays gd = sta.gate_delays(nullptr, nullptr);
  ASSERT_EQ(gd.rise.size(), nl.num_gates());
  ASSERT_EQ(gd.fall.size(), nl.num_gates());
  for (std::size_t g = 0; g < nl.num_gates(); ++g) {
    EXPECT_GT(gd.rise[g], 0.0);
    EXPECT_GT(gd.fall[g], 0.0);
  }
}

TEST_F(StaTest, StressProfileSizeMismatchThrows) {
  const Netlist nl = make_adder(8);
  const Sta sta(nl);
  const DegradationAwareLibrary aged(lib_, model_, 1.0);
  EXPECT_THROW(
      sta.run_aged(aged, StressProfile::uniform(StressMode::worst, 3)),
      std::invalid_argument);
}

TEST_F(StaTest, GateDelaysRejectStressOfTheWrongSize) {
  // A cla4 adder mixes cells, so a uniform profile one gate short or long
  // must not slip through the once-per-cell factor lookup either.
  const Netlist nl = make_adder(32, AdderArch::cla4);
  const Sta sta(nl);
  const DegradationAwareLibrary aged(lib_, model_, 10.0);
  for (const std::size_t n : {nl.num_gates() - 1, nl.num_gates() + 1}) {
    const StressProfile uniform = StressProfile::uniform(StressMode::worst, n);
    const StressProfile measured =
        StressProfile::measured(std::vector<double>(n, 0.3));
    for (const StressProfile* stress : {&uniform, &measured}) {
      EXPECT_THROW(sta.gate_delays(&aged, stress), std::invalid_argument) << n;
      EXPECT_THROW(sta.run_aged(aged, *stress), std::invalid_argument) << n;
    }
  }
}

TEST_F(StaTest, MeasuredStressBetweenFreshAndWorst) {
  const Netlist nl = make_adder(16);
  const Sta sta(nl);
  const DegradationAwareLibrary aged(lib_, model_, 10.0);
  const double fresh = sta.run_fresh().max_delay;
  const double worst =
      sta.run_aged(aged, StressProfile::uniform(StressMode::worst, nl.num_gates()))
          .max_delay;
  const StressProfile measured =
      StressProfile::measured(std::vector<double>(nl.num_gates(), 0.3));
  const double meas = sta.run_aged(aged, measured).max_delay;
  EXPECT_GT(meas, fresh);
  EXPECT_LT(meas, worst);
}

/// The per-gate delay formula as it stood before Sta cached the fresh
/// delays: every arc looked up and every factor looked up for each gate.
Sta::GateDelays reference_gate_delays(const Netlist& nl, const StaOptions& opt,
                                      const DegradationAwareLibrary* aged,
                                      const StressProfile* stress) {
  Sta::GateDelays gd;
  std::vector<char> is_po(nl.num_nets(), 0);
  for (const NetId po : nl.outputs()) is_po[po] = 1;
  for (std::size_t g = 0; g < nl.num_gates(); ++g) {
    const auto gid = static_cast<GateId>(g);
    const Gate& gate = nl.gate(gid);
    const Cell& cell = nl.lib().cell(gate.cell);
    double load = nl.net_load(gate.fanout);
    if (is_po[gate.fanout]) load += opt.primary_output_load;
    double rise_factor = 1.0;
    double fall_factor = 1.0;
    if (aged != nullptr && stress != nullptr) {
      const StressPair sp = stress->gate(gid);
      rise_factor = aged->rise_factor(gate.cell, sp);
      fall_factor = aged->fall_factor(gate.cell, sp);
      if (aged->model().has_hci()) {
        const double dvth =
            aged->model().hci_delta_vth(stress->gate_activity(g),
                                        aged->years()) *
            cell.aging_sensitivity;
        fall_factor *= aged->model().delay_factor_from_dvth(dvth);
      }
    }
    double rise = 0.0;
    double fall = 0.0;
    for (const TimingArc& arc : cell.arcs) {
      const double slew = opt.primary_input_slew;
      rise = std::max(rise, arc.rise_delay.lookup(slew, load));
      fall = std::max(fall, arc.fall_delay.lookup(slew, load));
    }
    gd.rise.push_back(rise * rise_factor);
    gd.fall.push_back(fall * fall_factor);
  }
  return gd;
}

TEST_F(StaTest, GateDelaysBitIdenticalToPerGateFormula) {
  AgingParams hci_params;
  hci_params.mechanisms = {MechanismKind::bti, MechanismKind::hci};
  const AgingModel hci_model(hci_params);
  const DegradationAwareLibrary bti_lib(lib_, model_, 10.0);
  const DegradationAwareLibrary hci_lib(lib_, hci_model, 10.0);
  StaOptions opt;
  opt.primary_output_load = 6.5;  // non-default, so the PO term is exercised

  for (const ComponentKind kind :
       {ComponentKind::adder, ComponentKind::multiplier, ComponentKind::mac,
        ComponentKind::clamp}) {
    for (const AdderArch adder :
         {AdderArch::ripple, AdderArch::cla4, AdderArch::kogge_stone}) {
      for (const MultArch mult : {MultArch::array, MultArch::wallace}) {
        for (const int truncated : {0, 3}) {
          const Netlist nl =
              make_component(lib_, {kind, 10, truncated, adder, mult});
          const std::size_t n = nl.num_gates();
          Rng rng(n);
          std::vector<double> duty(n);
          for (double& d : duty) d = rng.next_double();
          const StressProfile worst =
              StressProfile::uniform(StressMode::worst, n);
          const StressProfile balanced =
              StressProfile::uniform(StressMode::balanced, n);
          const StressProfile measured = StressProfile::measured(duty);
          const std::vector<const StressProfile*> profiles = {
              &worst, &balanced, &measured};

          Context ctx;
          const Sta sta(nl, opt, &ctx);
          const std::string what = to_string(kind) + " " + to_string(adder) +
                                   "/" + to_string(mult) + " t" +
                                   std::to_string(truncated);
          const Sta::GateDelays fresh = sta.gate_delays(nullptr, nullptr);
          const Sta::GateDelays fresh_ref =
              reference_gate_delays(nl, opt, nullptr, nullptr);
          EXPECT_EQ(fresh.rise, fresh_ref.rise) << what;
          EXPECT_EQ(fresh.fall, fresh_ref.fall) << what;
          std::uint64_t hci_calls = 0;
          for (const DegradationAwareLibrary* aged : {&bti_lib, &hci_lib}) {
            for (const StressProfile* stress : profiles) {
              const Sta::GateDelays gd = sta.gate_delays(aged, stress);
              const Sta::GateDelays ref =
                  reference_gate_delays(nl, opt, aged, stress);
              EXPECT_EQ(gd.rise, ref.rise) << what;
              EXPECT_EQ(gd.fall, ref.fall) << what;
              if (aged->model().has_hci()) ++hci_calls;
            }
          }
          // HCI drift is still counted once per gate per call.
          EXPECT_EQ(
              ctx.metrics().counter("aging.mechanism.hci.drift_evals").value(),
              hci_calls * n)
              << what;
        }
      }
    }
  }

  // Every library cell driving one, two and three readers, the last also a
  // primary output: more distinct (cell, load) pairs than the constructor's
  // memo has slots, so pairs collide and evict each other.
  Netlist wide(lib_);
  const NetId a = wide.add_input("a");
  for (CellId c = 0; c < lib_.size(); ++c) {
    const std::vector<NetId> ins(
        static_cast<std::size_t>(lib_.cell(c).num_inputs()), a);
    for (int fanout = 1; fanout <= 3; ++fanout) {
      const NetId y = wide.add_gate(c, ins);
      for (int r = 0; r < fanout; ++r) {
        wide.mark_output(wide.mk(LogicFn::kInv, y), "r");
      }
      if (fanout == 3) wide.mark_output(y, "y");
    }
  }
  std::vector<std::pair<CellId, double>> pairs;
  for (const Gate& gate : wide.gates()) {
    pairs.emplace_back(gate.cell, wide.net_load(gate.fanout));
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  ASSERT_GT(pairs.size(), std::size_t{1} << Sta::kBaseDelayMemoBits);
  const StressProfile worst =
      StressProfile::uniform(StressMode::worst, wide.num_gates());
  for (const StaOptions& o : {StaOptions{}, opt}) {
    const Sta sta(wide, o);
    const Sta::GateDelays fresh = sta.gate_delays(nullptr, nullptr);
    const Sta::GateDelays fresh_ref =
        reference_gate_delays(wide, o, nullptr, nullptr);
    EXPECT_EQ(fresh.rise, fresh_ref.rise) << o.primary_output_load;
    EXPECT_EQ(fresh.fall, fresh_ref.fall) << o.primary_output_load;
    const Sta::GateDelays aged = sta.gate_delays(&bti_lib, &worst);
    const Sta::GateDelays aged_ref =
        reference_gate_delays(wide, o, &bti_lib, &worst);
    EXPECT_EQ(aged.rise, aged_ref.rise) << o.primary_output_load;
    EXPECT_EQ(aged.fall, aged_ref.fall) << o.primary_output_load;
  }
}

}  // namespace
}  // namespace aapx
