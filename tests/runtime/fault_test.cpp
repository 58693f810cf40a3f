#include "runtime/fault.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "cell/library.hpp"
#include "engine/context.hpp"
#include "synth/components.hpp"

namespace aapx {
namespace {

class FaultInjectorTest : public ::testing::Test {
 protected:
  FaultInjectorTest()
      : lib_(make_nangate45_like()),
        nl_(make_component(
            lib_, {ComponentKind::adder, 8, 0, AdderArch::ripple,
                   MultArch::array})) {}

  const Context ctx_;
  CellLibrary lib_;
  Netlist nl_;
  AgingModel nominal_;
};

TEST_F(FaultInjectorTest, ValidatesScenario) {
  FaultScenario s;
  s.aging_acceleration = 0.0;
  EXPECT_THROW(FaultInjector(ctx_, lib_, nominal_, s), std::invalid_argument);
  s = {};
  s.gate_outlier_fraction = 1.5;
  EXPECT_THROW(FaultInjector(ctx_, lib_, nominal_, s), std::invalid_argument);
  s = {};
  s.gate_outlier_factor = 0.5;
  EXPECT_THROW(FaultInjector(ctx_, lib_, nominal_, s), std::invalid_argument);
  s = {};
  s.temp_step_from_years = -1.0;
  EXPECT_THROW(FaultInjector(ctx_, lib_, nominal_, s), std::invalid_argument);
}

TEST_F(FaultInjectorTest, NominalScenarioIsTransparent) {
  const FaultInjector inj(ctx_, lib_, nominal_, FaultScenario::nominal());
  // Equivalent age is the wall-clock age.
  EXPECT_DOUBLE_EQ(inj.equivalent_nominal_years(0.0), 0.0);
  EXPECT_NEAR(inj.equivalent_nominal_years(5.0), 5.0, 1e-9);
  // Ground-truth delays equal the nominal aged delays.
  const Sta sta(nl_);
  const DegradationAwareLibrary aged(lib_, nominal_, 5.0);
  const StressProfile stress =
      StressProfile::uniform(StressMode::worst, nl_.num_gates());
  const auto expect = sta.gate_delays(&aged, &stress);
  const auto got = inj.true_delays(nl_, StressMode::worst, 5.0);
  ASSERT_EQ(got.rise.size(), expect.rise.size());
  for (std::size_t g = 0; g < got.rise.size(); ++g) {
    EXPECT_DOUBLE_EQ(got.rise[g], expect.rise[g]);
    EXPECT_DOUBLE_EQ(got.fall[g], expect.fall[g]);
  }
}

TEST_F(FaultInjectorTest, AccelerationInflatesDelaysAndEquivalentAge) {
  FaultScenario s;
  s.aging_acceleration = 1.5;
  const FaultInjector inj(ctx_, lib_, nominal_, s);
  const FaultInjector nom(ctx_, lib_, nominal_, FaultScenario::nominal());

  // ΔVth acceleration r maps to equivalent age t * r^(1/n) under the
  // power law — far more than r itself.
  const double n = nominal_.params().bti.time_exponent;
  EXPECT_NEAR(inj.equivalent_nominal_years(4.0), 4.0 * std::pow(1.5, 1.0 / n),
              1e-6);

  const auto accel = inj.true_delays(nl_, StressMode::worst, 5.0);
  const auto base = nom.true_delays(nl_, StressMode::worst, 5.0);
  for (std::size_t g = 0; g < accel.rise.size(); ++g) {
    EXPECT_GT(accel.rise[g], base.rise[g]);
    EXPECT_GT(accel.fall[g], base.fall[g]);
  }
}

TEST_F(FaultInjectorTest, TemperatureStepActivatesAtItsOnset) {
  FaultScenario s;
  s.temp_step_kelvin = 20.0;
  s.temp_step_from_years = 5.0;
  const FaultInjector inj(ctx_, lib_, nominal_, s);
  // Before the excursion the die is nominal; after it ages harder.
  EXPECT_NEAR(inj.equivalent_nominal_years(4.0), 4.0, 1e-9);
  EXPECT_GT(inj.equivalent_nominal_years(6.0), 6.0);
  EXPECT_EQ(inj.faulted_model(4.0).params().bti.temp_kelvin,
            nominal_.params().bti.temp_kelvin);
  EXPECT_EQ(inj.faulted_model(6.0).params().bti.temp_kelvin,
            nominal_.params().bti.temp_kelvin + 20.0);
}

TEST_F(FaultInjectorTest, OutliersAreDeterministicPerDie) {
  FaultScenario s;
  s.gate_outlier_fraction = 0.25;
  s.gate_outlier_factor = 1.3;
  s.seed = 9;
  const FaultInjector inj(ctx_, lib_, nominal_, s);
  const FaultInjector nom(ctx_, lib_, nominal_, FaultScenario::nominal());

  const auto a = inj.true_delays(nl_, StressMode::worst, 2.0);
  const auto b = inj.true_delays(nl_, StressMode::worst, 2.0);
  const auto base = nom.true_delays(nl_, StressMode::worst, 2.0);

  std::size_t outliers = 0;
  for (std::size_t g = 0; g < a.rise.size(); ++g) {
    // Same die, same query -> identical fingerprint.
    EXPECT_DOUBLE_EQ(a.rise[g], b.rise[g]);
    if (a.rise[g] > base.rise[g] * 1.0001) {
      ++outliers;
      EXPECT_NEAR(a.rise[g], base.rise[g] * 1.3, 1e-9);
      EXPECT_NEAR(a.fall[g], base.fall[g] * 1.3, 1e-9);
    }
  }
  EXPECT_GT(outliers, 0u);
  EXPECT_LT(outliers, a.rise.size());
}

TEST_F(FaultInjectorTest, SensorInheritsScenarioFaults) {
  FaultScenario s;
  s.sensor_gain = 0.5;
  s.sensor_offset_years = 1.0;
  const FaultInjector inj(ctx_, lib_, nominal_, s);
  AgingSensor sensor = inj.make_sensor();
  EXPECT_NEAR(sensor.read(8.0), 0.5 * 8.0 + 1.0, 1e-12);
}

TEST_F(FaultInjectorTest, RejectsNegativeAges) {
  const FaultInjector inj(ctx_, lib_, nominal_, FaultScenario::nominal());
  EXPECT_THROW(inj.equivalent_nominal_years(-1.0), std::invalid_argument);
  EXPECT_THROW(inj.true_delays(nl_, StressMode::worst, -1.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace aapx
