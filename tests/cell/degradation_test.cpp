#include "cell/degradation.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace aapx {
namespace {

class DegradationTest : public ::testing::Test {
 protected:
  CellLibrary lib_ = make_nangate45_like();
  AgingModel model_;
};

TEST_F(DegradationTest, ZeroYearsIsIdentity) {
  const DegradationAwareLibrary aged(lib_, model_, 0.0);
  for (CellId c = 0; c < lib_.size(); ++c) {
    EXPECT_DOUBLE_EQ(aged.rise_factor(c, kWorstCaseStress), 1.0);
    EXPECT_DOUBLE_EQ(aged.fall_factor(c, kWorstCaseStress), 1.0);
  }
}

TEST_F(DegradationTest, FactorsAtLeastOne) {
  const DegradationAwareLibrary aged(lib_, model_, 10.0);
  for (CellId c = 0; c < lib_.size(); ++c) {
    for (const double sp : {0.0, 0.3, 1.0}) {
      for (const double sn : {0.0, 0.5, 1.0}) {
        EXPECT_GE(aged.rise_factor(c, {sp, sn}), 1.0);
        EXPECT_GE(aged.fall_factor(c, {sp, sn}), 1.0);
      }
    }
  }
}

TEST_F(DegradationTest, RiseDominatedByPmosStress) {
  const DegradationAwareLibrary aged(lib_, model_, 10.0);
  const CellId inv = *lib_.find(LogicFn::kInv, 1);
  // Rising output = pull-up pMOS = NBTI: S_p matters much more than S_n.
  const double high_sp = aged.rise_factor(inv, {1.0, 0.0});
  const double high_sn = aged.rise_factor(inv, {0.0, 1.0});
  EXPECT_GT(high_sp, high_sn);
  // And symmetrically for the falling transition.
  EXPECT_GT(aged.fall_factor(inv, {0.0, 1.0}), aged.fall_factor(inv, {1.0, 0.0}));
}

TEST_F(DegradationTest, MonotoneInStress) {
  const DegradationAwareLibrary aged(lib_, model_, 10.0);
  const CellId nand2 = *lib_.find(LogicFn::kNand2, 1);
  double prev = 0.0;
  for (const double s : {0.0, 0.2, 0.4, 0.6, 0.8, 1.0}) {
    const double f = aged.rise_factor(nand2, {s, s});
    EXPECT_GE(f, prev);
    prev = f;
  }
}

TEST_F(DegradationTest, MonotoneInYears) {
  const CellId xor2 = *lib_.find(LogicFn::kXor2, 1);
  double prev = 1.0;
  for (const double years : {1.0, 3.0, 10.0}) {
    const DegradationAwareLibrary aged(lib_, model_, years);
    const double f = aged.rise_factor(xor2, kWorstCaseStress);
    EXPECT_GT(f, prev);
    prev = f;
  }
}

TEST_F(DegradationTest, GridInterpolationMatchesGridPoints) {
  const DegradationAwareLibrary aged(lib_, model_, 10.0);
  const CellId inv = *lib_.find(LogicFn::kInv, 1);
  // Mid-grid lookups stay between the surrounding grid-point values.
  const double f_lo = aged.rise_factor(inv, {0.5, 0.5});
  const double f_hi = aged.rise_factor(inv, {0.6, 0.6});
  const double f_mid = aged.rise_factor(inv, {0.55, 0.55});
  EXPECT_GE(f_mid, std::min(f_lo, f_hi));
  EXPECT_LE(f_mid, std::max(f_lo, f_hi));
}

TEST_F(DegradationTest, SensitiveCellsAgeFaster) {
  const DegradationAwareLibrary aged(lib_, model_, 10.0);
  const CellId nor2 = *lib_.find(LogicFn::kNor2, 1);   // high sensitivity
  const CellId xor2 = *lib_.find(LogicFn::kXor2, 1);   // low sensitivity
  EXPECT_GT(aged.rise_factor(nor2, kWorstCaseStress),
            aged.rise_factor(xor2, kWorstCaseStress));
}

TEST_F(DegradationTest, BalancedBelowWorst) {
  const DegradationAwareLibrary aged(lib_, model_, 10.0);
  for (CellId c = 0; c < lib_.size(); ++c) {
    EXPECT_LT(aged.rise_factor(c, kBalancedStress),
              aged.rise_factor(c, kWorstCaseStress));
  }
}

TEST_F(DegradationTest, RejectsNegativeYears) {
  EXPECT_THROW(DegradationAwareLibrary(lib_, model_, -1.0), std::invalid_argument);
}

TEST_F(DegradationTest, OutOfRangeCellThrows) {
  const DegradationAwareLibrary aged(lib_, model_, 1.0);
  EXPECT_THROW(aged.rise_factor(static_cast<CellId>(lib_.size()), kWorstCaseStress),
               std::out_of_range);
}

TEST_F(DegradationTest, GridsBitIdenticalToNaiveDoubleLoop) {
  AgingParams hot;
  hot.bti.a_pmos = 0.07;
  hot.bti.alpha = 1.5;
  hot.bti.temp_kelvin = 398.15;
  constexpr double kDrivingWeight = 0.92;  // as in cell/degradation.cpp
  const int n = DegradationAwareLibrary::kGridPoints;
  for (const AgingModel& model : {model_, AgingModel(hot)}) {
    for (const double years : {1.0, 3.0, 10.0}) {
      const DegradationAwareLibrary aged(lib_, model, years);
      for (CellId c = 0; c < lib_.size(); ++c) {
        const double sens = lib_.cell(c).aging_sensitivity;
        for (int i = 0; i < n; ++i) {
          const double sp = static_cast<double>(i) / (n - 1);
          const double kp = model.delay_factor_from_dvth(
              model.delta_vth(TransistorType::pMos, sp, years) * sens);
          for (int j = 0; j < n; ++j) {
            const double sn = static_cast<double>(j) / (n - 1);
            const double kn = model.delay_factor_from_dvth(
                model.delta_vth(TransistorType::nMos, sn, years) * sens);
            const double rise = std::pow(kp, kDrivingWeight) *
                                std::pow(kn, 1.0 - kDrivingWeight);
            const double fall = std::pow(kn, kDrivingWeight) *
                                std::pow(kp, 1.0 - kDrivingWeight);
            ASSERT_EQ(aged.rise_grid(c).at(i, j), rise)
                << lib_.cell(c).name << " " << years << "y (" << i << ","
                << j << ")";
            ASSERT_EQ(aged.fall_grid(c).at(i, j), fall)
                << lib_.cell(c).name << " " << years << "y (" << i << ","
                << j << ")";
          }
        }
      }
    }
  }
}

TEST_F(DegradationTest, ConsumedOverdriveThrowsDomainError) {
  AgingParams extreme;
  extreme.bti.a_pmos = 1.0;  // dVth far beyond vdd - vth0
  EXPECT_THROW(DegradationAwareLibrary(lib_, AgingModel(extreme), 10.0),
               std::domain_error);
}

}  // namespace
}  // namespace aapx
