// BTI power law and alpha-power delay law, exercised through the composite
// AgingModel under its default BTI-only mechanism set.
#include "aging/aging_model.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace aapx {
namespace {

TEST(BtiModelTest, NoStressNoShift) {
  const AgingModel m;
  EXPECT_EQ(m.delta_vth(TransistorType::pMos, 0.0, 10.0), 0.0);
  EXPECT_EQ(m.delta_vth(TransistorType::pMos, 1.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(m.delay_factor(TransistorType::pMos, 0.0, 10.0), 1.0);
}

TEST(BtiModelTest, MonotoneInTime) {
  const AgingModel m;
  double prev = 0.0;
  for (const double years : {0.5, 1.0, 2.0, 5.0, 10.0, 20.0}) {
    const double d = m.delta_vth(TransistorType::pMos, 1.0, years);
    EXPECT_GT(d, prev);
    prev = d;
  }
}

TEST(BtiModelTest, MonotoneInStress) {
  const AgingModel m;
  double prev = -1.0;
  for (const double s : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    const double d = m.delta_vth(TransistorType::nMos, s, 10.0);
    EXPECT_GT(d, prev);
    prev = d;
  }
}

TEST(BtiModelTest, PowerLawExponent) {
  const AgingModel m;
  const double d1 = m.delta_vth(TransistorType::pMos, 1.0, 1.0);
  const double d10 = m.delta_vth(TransistorType::pMos, 1.0, 10.0);
  EXPECT_NEAR(d10 / d1, std::pow(10.0, m.params().bti.time_exponent), 1e-9);
}

TEST(BtiModelTest, NbtiStrongerThanPbti) {
  const AgingModel m;
  EXPECT_GT(m.delta_vth(TransistorType::pMos, 1.0, 10.0),
            m.delta_vth(TransistorType::nMos, 1.0, 10.0));
}

TEST(BtiModelTest, DelayFactorAboveOne) {
  const AgingModel m;
  for (const double years : {1.0, 5.0, 10.0}) {
    EXPECT_GT(m.delay_factor(TransistorType::pMos, 1.0, years), 1.0);
    EXPECT_GT(m.delay_factor(TransistorType::nMos, 0.5, years), 1.0);
  }
}

TEST(BtiModelTest, CalibrationBand) {
  // DESIGN.md Sec. 5: worst-case pMOS 10-year delay factor lands in the
  // 10-20% band that reproduces the paper's guardband magnitudes.
  const AgingModel m;
  const double k10 = m.delay_factor(TransistorType::pMos, 1.0, 10.0);
  EXPECT_GT(k10, 1.10);
  EXPECT_LT(k10, 1.20);
  const double k1 = m.delay_factor(TransistorType::pMos, 1.0, 1.0);
  EXPECT_GT(k1, 1.05);
  EXPECT_LT(k10 - k1, 0.10);
}

TEST(BtiModelTest, AlphaPowerFromDvth) {
  const AgingModel m;
  // Hand-computed: vdd=1.1, vth0=0.45, overdrive 0.65.
  const double f = m.delay_factor_from_dvth(0.065);
  EXPECT_NEAR(f, std::pow(0.65 / 0.585, 1.3), 1e-12);
}

TEST(BtiModelTest, RejectsInvalidArguments) {
  const AgingModel m;
  EXPECT_THROW(m.delta_vth(TransistorType::pMos, -0.1, 1.0), std::invalid_argument);
  EXPECT_THROW(m.delta_vth(TransistorType::pMos, 1.1, 1.0), std::invalid_argument);
  EXPECT_THROW(m.delta_vth(TransistorType::pMos, 0.5, -1.0), std::invalid_argument);
  EXPECT_THROW(m.delay_factor_from_dvth(0.70), std::domain_error);
  AgingParams bad;
  bad.bti.vdd = 0.4;  // below vth0
  EXPECT_THROW(AgingModel{bad}, std::invalid_argument);
}

TEST(BtiModelTest, TemperatureAcceleration) {
  AgingParams hot;
  hot.bti.temp_kelvin = 398.15;  // 125 C
  AgingParams cold;
  cold.bti.temp_kelvin = 318.15;  // 45 C
  const AgingModel reference;  // 85 C characterization corner
  const AgingModel hot_model(hot);
  const AgingModel cold_model(cold);
  const double d_ref = reference.delta_vth(TransistorType::pMos, 1.0, 10.0);
  EXPECT_GT(hot_model.delta_vth(TransistorType::pMos, 1.0, 10.0), d_ref);
  EXPECT_LT(cold_model.delta_vth(TransistorType::pMos, 1.0, 10.0), d_ref);
  // Identity at the reference temperature (calibration unaffected).
  BtiParams same;
  same.temp_kelvin = same.t_ref_kelvin;
  EXPECT_DOUBLE_EQ(
      BtiMechanism(same).delta_vth(TransistorType::pMos, 1.0, 10.0), d_ref);
}

TEST(BtiModelTest, TemperatureFollowsArrhenius) {
  BtiParams hot;
  hot.temp_kelvin = 398.15;
  const BtiMechanism reference{BtiParams{}};
  const BtiMechanism hot_model(hot);
  const double ratio = hot_model.delta_vth(TransistorType::nMos, 0.5, 3.0) /
                       reference.delta_vth(TransistorType::nMos, 0.5, 3.0);
  const double expect = std::exp(hot.activation_ev / 8.617333262e-5 *
                                 (1.0 / hot.t_ref_kelvin - 1.0 / hot.temp_kelvin));
  EXPECT_NEAR(ratio, expect, 1e-9);
}

TEST(BtiModelTest, InvalidTemperatureThrows) {
  AgingParams bad;
  bad.bti.temp_kelvin = 0.0;
  EXPECT_THROW(AgingModel{bad}, std::invalid_argument);
}

TEST(BtiModelTest, StressExponentShape) {
  const AgingModel m;
  const double half = m.delta_vth(TransistorType::pMos, 0.5, 10.0);
  const double full = m.delta_vth(TransistorType::pMos, 1.0, 10.0);
  EXPECT_NEAR(half / full, std::pow(0.5, m.params().bti.stress_exponent), 1e-9);
}

}  // namespace
}  // namespace aapx
