#include "cell/degradation.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "util/interp.hpp"
#include "util/rng.hpp"

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

/// The paper's per-cell 11x11 grids, materialized by the naive double loop
/// over the axis points, exactly as a released library would store them.
struct NaiveGrids {
  Table2D rise;
  Table2D fall;
};
NaiveGrids naive_grids(const AgingModel& model, double years, double sens) {
  constexpr double kDrivingWeight = 0.92;  // as in cell/degradation.cpp
  const int n = DegradationAwareLibrary::kGridPoints;
  std::vector<double> axis;
  for (int i = 0; i < n; ++i) axis.push_back(static_cast<double>(i) / (n - 1));
  std::vector<double> rise;
  std::vector<double> fall;
  for (int i = 0; i < n; ++i) {
    const double kp = model.delay_factor_from_dvth(
        model.delta_vth(TransistorType::pMos, axis[i], years) * sens);
    for (int j = 0; j < n; ++j) {
      const double kn = model.delay_factor_from_dvth(
          model.delta_vth(TransistorType::nMos, axis[j], years) * sens);
      rise.push_back(std::pow(kp, kDrivingWeight) *
                     std::pow(kn, 1.0 - kDrivingWeight));
      fall.push_back(std::pow(kn, kDrivingWeight) *
                     std::pow(kp, 1.0 - kDrivingWeight));
    }
  }
  return {Table2D(axis, axis, rise), Table2D(axis, axis, std::move(fall))};
}

/// The stress pairs the oracle checks: all 121 grid points, the 100 cell
/// midpoints, 1,000 seeded random points in [0,1]^2 and the edge
/// extrapolation points -0.05 and 1.05 paired with every axis point.
std::vector<StressPair> oracle_points() {
  const int n = DegradationAwareLibrary::kGridPoints;
  std::vector<StressPair> pts;
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      pts.push_back({static_cast<double>(i) / (n - 1),
                     static_cast<double>(j) / (n - 1)});
      if (i + 1 < n && j + 1 < n) {
        pts.push_back({(i + 0.5) / (n - 1), (j + 0.5) / (n - 1)});
      }
    }
  }
  Rng rng(29);
  for (int k = 0; k < 1000; ++k) {
    const double sp = rng.next_double();
    pts.push_back({sp, rng.next_double()});
  }
  for (const double out : {-0.05, 1.05}) {
    for (int i = 0; i < n; ++i) {
      const double axis = static_cast<double>(i) / (n - 1);
      pts.push_back({out, axis});
      pts.push_back({axis, out});
    }
    pts.push_back({out, -0.05});
    pts.push_back({out, 1.05});
  }
  return pts;
}

/// Every factor of `aged` is == to Table2D::lookup on the naive grids of its
/// cell, at every oracle point.
void expect_matches_naive_grids(const CellLibrary& lib, const AgingModel& model,
                                double years) {
  const DegradationAwareLibrary aged(lib, model, years);
  const std::vector<StressPair> pts = oracle_points();
  for (CellId c = 0; c < lib.size(); ++c) {
    const NaiveGrids grids =
        naive_grids(model, years, lib.cell(c).aging_sensitivity);
    for (const StressPair& sp : pts) {
      ASSERT_EQ(aged.rise_factor(c, sp), grids.rise.lookup(sp.pmos, sp.nmos))
          << lib.cell(c).name << " " << years << "y (" << sp.pmos << ","
          << sp.nmos << ")";
      ASSERT_EQ(aged.fall_factor(c, sp), grids.fall.lookup(sp.pmos, sp.nmos))
          << lib.cell(c).name << " " << years << "y (" << sp.pmos << ","
          << sp.nmos << ")";
    }
  }
}

TEST_F(DegradationTest, FactorsEqualLookupOnNaiveGrids) {
  AgingParams hot;
  hot.bti.a_pmos = 0.07;
  hot.bti.alpha = 1.5;
  hot.bti.temp_kelvin = 398.15;
  for (const AgingModel& model : {model_, AgingModel(hot)}) {
    for (const double years : {1.0, 3.0, 10.0}) {
      expect_matches_naive_grids(lib_, model, years);
    }
  }
}

TEST_F(DegradationTest, SharedAndUniqueSensitivitiesMatchNaiveGrids) {
  // Classes are keyed by the sensitivity's bits: equal values share one set
  // of factor rows, and a value one ulp away gets its own.
  const double one_up = std::nextafter(1.0, 2.0);
  CellLibrary mixed;
  const std::vector<double> sens = {1.0, 0.75, 1.0, 1.3, one_up,
                                    0.75, 2.0, 0.0, 1.0, 1.3};
  for (std::size_t k = 0; k < sens.size(); ++k) {
    Cell cell = lib_.cell(static_cast<CellId>(k % lib_.size()));
    cell.name += "_S" + std::to_string(k);
    cell.aging_sensitivity = sens[k];
    mixed.add(std::move(cell));
  }
  for (const double years : {1.0, 3.0, 10.0}) {
    expect_matches_naive_grids(mixed, model_, years);
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
