#include "gatesim/timedsim.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "cell/degradation.hpp"
#include "core/stimulus.hpp"
#include "gatesim/funcsim.hpp"
#include "synth/components.hpp"
#include "util/rng.hpp"

namespace aapx {
namespace {

class TimedSimTest : public ::testing::Test {
 protected:
  CellLibrary lib_ = make_nangate45_like();
  AgingModel model_;

  Netlist make_adder(int width) const {
    return make_component(
        lib_, {ComponentKind::adder, width, 0, AdderArch::ripple, MultArch::array});
  }
};

TEST_F(TimedSimTest, SettledMatchesFunctionalSim) {
  const Netlist nl = make_adder(8);
  const Sta sta(nl);
  TimedSim sim(nl, sta.gate_delays(nullptr, nullptr));
  FuncSim ref(nl);
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t a = rng.next_u64() & 0xFF;
    const std::uint64_t b = rng.next_u64() & 0xFF;
    sim.stage_bus("a", a);
    sim.stage_bus("b", b);
    sim.step_staged(1e9);
    ref.set_bus("a", a);
    ref.set_bus("b", b);
    ref.eval();
    ASSERT_EQ(sim.settled_bus("y"), ref.bus_value("y")) << "a=" << a << " b=" << b;
  }
}

TEST_F(TimedSimTest, NoErrorsAtStaClockWithFreshDelays) {
  // The paper's Eq. 1 guarantee: tCP <= tclock implies no timing errors.
  // Our STA shares the simulator's delay model, so its max delay upper-bounds
  // every simulated settling time.
  const Netlist nl = make_adder(16);
  const Sta sta(nl);
  const double tclk = sta.run_fresh().max_delay;
  for (const DelayModel model : {DelayModel::inertial, DelayModel::transport}) {
    TimedSim sim(nl, sta.gate_delays(nullptr, nullptr), model);
    Rng rng(6);
    for (int i = 0; i < 300; ++i) {
      sim.stage_bus("a", rng.next_u64() & 0xFFFF);
      sim.stage_bus("b", rng.next_u64() & 0xFFFF);
      EXPECT_FALSE(sim.step_staged(tclk));
      EXPECT_LE(sim.last_output_settle_time(), tclk + 1e-9);
    }
  }
}

TEST_F(TimedSimTest, AgedNoErrorsAtAgedStaClock) {
  const Netlist nl = make_adder(16);
  const Sta sta(nl);
  const DegradationAwareLibrary aged(lib_, model_, 10.0);
  const StressProfile stress =
      StressProfile::uniform(StressMode::worst, nl.num_gates());
  const double aged_clk = sta.run_aged(aged, stress).max_delay;
  TimedSim sim(nl, sta.gate_delays(&aged, &stress));
  Rng rng(7);
  for (int i = 0; i < 300; ++i) {
    sim.stage_bus("a", rng.next_u64() & 0xFFFF);
    sim.stage_bus("b", rng.next_u64() & 0xFFFF);
    EXPECT_FALSE(sim.step_staged(aged_clk));
  }
}

TEST_F(TimedSimTest, TightClockProducesErrors) {
  const Netlist nl = make_adder(16);
  const Sta sta(nl);
  TimedSim sim(nl, sta.gate_delays(nullptr, nullptr));
  // A clock far below any gate delay must sample mid-flight values whenever
  // outputs change.
  std::vector<char> zeros(nl.inputs().size(), 0);
  sim.reset(zeros);
  sim.stage_bus("a", 0xFFFF);
  sim.stage_bus("b", 0x0001);
  EXPECT_TRUE(sim.step_staged(1.0));
  // The sampled value is the stale pre-transition value.
  EXPECT_EQ(sim.sampled_bus("y"), 0u);
  EXPECT_EQ(sim.settled_bus("y"), 0x10000u);
}

TEST_F(TimedSimTest, ErrorExactlyWhenSampledDiffersFromSettled) {
  const Netlist nl = make_adder(8);
  const Sta sta(nl);
  TimedSim sim(nl, sta.gate_delays(nullptr, nullptr));
  Rng rng(8);
  for (int i = 0; i < 100; ++i) {
    sim.stage_bus("a", rng.next_u64() & 0xFF);
    sim.stage_bus("b", rng.next_u64() & 0xFF);
    const bool err = sim.step_staged(120.0);  // mid-range clock
    EXPECT_EQ(err, sim.sampled_bus("y") != sim.settled_bus("y"));
  }
}

TEST_F(TimedSimTest, ActivityAccumulates) {
  const Netlist nl = make_adder(8);
  const Sta sta(nl);
  TimedSim sim(nl, sta.gate_delays(nullptr, nullptr));
  sim.clear_activity();
  sim.stage_bus("a", 0xFF);
  sim.stage_bus("b", 0x00);
  sim.step_staged(1e9);
  sim.stage_bus("a", 0x00);
  sim.step_staged(1e9);
  const Activity& act = sim.activity();
  EXPECT_EQ(act.cycles, 2u);
  // Input a[0] toggled twice (0->1->0).
  const NetId a0 = nl.input_bus("a")[0];
  EXPECT_EQ(act.toggles[a0], 2u);
  EXPECT_DOUBLE_EQ(act.duty_high(a0), 0.5);
}

TEST_F(TimedSimTest, GateOutputDutyMatchesFunction) {
  Netlist nl(lib_);
  const NetId a = nl.add_input("a");
  const NetId y = nl.mk(LogicFn::kInv, a);
  nl.mark_output(y, "y");
  const Sta sta(nl);
  TimedSim sim(nl, sta.gate_delays(nullptr, nullptr));
  sim.clear_activity();
  // a: 1, 0, 0, 0 -> y high 3 of 4 cycles.
  for (const char v : {1, 0, 0, 0}) {
    sim.step({v}, 1e9);
  }
  const auto duty = sim.activity().gate_output_duty(nl);
  ASSERT_EQ(duty.size(), 1u);
  EXPECT_DOUBLE_EQ(duty[0], 0.75);
}

TEST_F(TimedSimTest, TransportSettlesSameAsInertial) {
  // Both delay models must agree on the settled (steady-state) values.
  const Netlist nl = make_component(
      lib_, {ComponentKind::multiplier, 8, 0, AdderArch::cla4, MultArch::array});
  const Sta sta(nl);
  TimedSim inertial(nl, sta.gate_delays(nullptr, nullptr), DelayModel::inertial);
  TimedSim transport(nl, sta.gate_delays(nullptr, nullptr), DelayModel::transport);
  Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t a = rng.next_u64() & 0xFF;
    const std::uint64_t b = rng.next_u64() & 0xFF;
    inertial.stage_bus("a", a);
    inertial.stage_bus("b", b);
    inertial.step_staged(1e9);
    transport.stage_bus("a", a);
    transport.stage_bus("b", b);
    transport.step_staged(1e9);
    ASSERT_EQ(inertial.settled_bus("y"), transport.settled_bus("y"));
  }
}

TEST_F(TimedSimTest, InertialProcessesFewerEvents) {
  const Netlist nl = make_component(
      lib_, {ComponentKind::multiplier, 12, 0, AdderArch::cla4, MultArch::array});
  const Sta sta(nl);
  TimedSim inertial(nl, sta.gate_delays(nullptr, nullptr), DelayModel::inertial);
  TimedSim transport(nl, sta.gate_delays(nullptr, nullptr), DelayModel::transport);
  Rng rng(10);
  for (int i = 0; i < 30; ++i) {
    const std::uint64_t a = rng.next_u64() & 0xFFF;
    const std::uint64_t b = rng.next_u64() & 0xFFF;
    inertial.stage_bus("a", a);
    inertial.stage_bus("b", b);
    inertial.step_staged(1e9);
    transport.stage_bus("a", a);
    transport.stage_bus("b", b);
    transport.step_staged(1e9);
  }
  EXPECT_LT(inertial.events_processed(), transport.events_processed());
}

TEST_F(TimedSimTest, ResetRestoresSettledState) {
  const Netlist nl = make_adder(8);
  const Sta sta(nl);
  TimedSim sim(nl, sta.gate_delays(nullptr, nullptr));
  std::vector<char> pis(nl.inputs().size(), 1);
  sim.reset(pis);
  FuncSim ref(nl);
  for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
    ref.set_input(nl.inputs()[i], true);
  }
  ref.eval();
  EXPECT_EQ(sim.settled_bus("y"), ref.bus_value("y"));
}

TEST_F(TimedSimTest, SizeMismatchThrows) {
  const Netlist nl = make_adder(8);
  const Sta sta(nl);
  TimedSim sim(nl, sta.gate_delays(nullptr, nullptr));
  EXPECT_THROW(sim.step({1, 0}, 100.0), std::invalid_argument);
  EXPECT_THROW(sim.reset({1}), std::invalid_argument);
  Sta::GateDelays bad;
  EXPECT_THROW(TimedSim(nl, bad), std::invalid_argument);
}

TEST_F(TimedSimTest, NegativeOrNonFiniteDelayThrows) {
  const Netlist nl = make_adder(8);
  const Sta sta(nl);
  const Sta::GateDelays good = sta.gate_delays(nullptr, nullptr);
  for (const double bad : {-1.0, std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    Sta::GateDelays rise = good;
    rise.rise[3] = bad;
    EXPECT_THROW(TimedSim(nl, rise), std::invalid_argument) << bad;
    Sta::GateDelays fall = good;
    fall.fall.back() = bad;
    EXPECT_THROW(TimedSim(nl, fall, DelayModel::transport),
                 std::invalid_argument)
        << bad;
  }
  Sta::GateDelays zero = good;
  zero.rise[0] = 0.0;
  EXPECT_NO_THROW(TimedSim(nl, zero));
}

// STA upper-bounds simulation: no output settles later than the STA max
// delay computed from the same library and stress as the simulator's gate
// delays. The calendar queue's horizon relies on this bound.
TEST_F(TimedSimTest, StaMaxDelayBoundsEveryOutputSettleTime) {
  using K = ComponentKind;
  const std::vector<ComponentSpec> specs = {
      {K::adder, 8, 0, AdderArch::ripple, MultArch::array},
      {K::adder, 8, 0, AdderArch::cla4, MultArch::array},
      {K::adder, 8, 0, AdderArch::kogge_stone, MultArch::array},
      {K::multiplier, 8, 0, AdderArch::cla4, MultArch::array},
      {K::multiplier, 8, 0, AdderArch::cla4, MultArch::wallace},
      {K::mac, 8, 0, AdderArch::ripple, MultArch::array},
      {K::clamp, 10, 0, AdderArch::cla4, MultArch::array},  // needs >= 9 bits
  };
  const DegradationAwareLibrary aged1(lib_, model_, 1.0);
  const DegradationAwareLibrary aged10(lib_, model_, 10.0);
  Rng rng(11);
  for (const ComponentSpec& spec : specs) {
    const Netlist nl = make_component(lib_, spec);
    const Sta sta(nl);
    for (const DegradationAwareLibrary* aged :
         {static_cast<const DegradationAwareLibrary*>(nullptr), &aged1,
          &aged10}) {
      for (const StressMode mode : {StressMode::worst, StressMode::balanced}) {
        const StressProfile stress =
            StressProfile::uniform(mode, nl.num_gates());
        const StressProfile* sp = aged != nullptr ? &stress : nullptr;
        const double bound = aged != nullptr
                                 ? sta.run_aged(*aged, stress).max_delay
                                 : sta.run_fresh().max_delay;
        for (const DelayModel dm :
             {DelayModel::inertial, DelayModel::transport}) {
          TimedSim sim(nl, sta.gate_delays(aged, sp), dm);
          std::vector<char> pis(nl.inputs().size(), 0);
          for (int i = 0; i < 40; ++i) {
            for (char& b : pis) b = rng.next_bool() ? 1 : 0;
            EXPECT_FALSE(sim.step(pis, bound));
            for (const NetId po : nl.outputs()) {
              ASSERT_LE(sim.settle_time(po), bound)
                  << spec.name() << " aged " << (aged ? aged->years() : 0.0)
                  << " " << to_string(mode);
            }
          }
        }
        if (aged == nullptr) break;  // stress does not affect fresh delays
      }
    }
  }
}

}  // namespace
}  // namespace aapx
