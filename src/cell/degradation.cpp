#include "cell/degradation.hpp"

#include <cmath>
#include <stdexcept>

namespace aapx {
namespace {

// Weight of the driving network in the transition's degradation; the
// remainder models the opposing network's slew interaction.
constexpr double kDrivingWeight = 0.92;

}  // namespace

DegradationAwareLibrary::DegradationAwareLibrary(const CellLibrary& lib,
                                                 const AgingModel& model,
                                                 double years)
    : lib_(&lib), model_(model), years_(years) {
  if (years < 0.0) {
    throw std::invalid_argument("DegradationAwareLibrary: negative lifetime");
  }
  std::vector<double> axis(kGridPoints);
  for (int i = 0; i < kGridPoints; ++i) {
    axis[i] = static_cast<double>(i) / (kGridPoints - 1);
  }

  // The drift depends on the transistor type and the axis point only, the
  // delay factor and its two powers also on the cell's sensitivity; each
  // grid entry is the product of one pMOS and one nMOS term.
  std::vector<double> dvth_p(kGridPoints);
  std::vector<double> dvth_n(kGridPoints);
  for (int i = 0; i < kGridPoints; ++i) {
    dvth_p[i] = model_.delta_vth(TransistorType::pMos, axis[i], years);
    dvth_n[i] = model_.delta_vth(TransistorType::nMos, axis[i], years);
  }
  std::vector<double> p_drive(kGridPoints);  // pow(kp, driving weight)
  std::vector<double> p_cross(kGridPoints);  // pow(kp, 1 - driving weight)
  std::vector<double> n_drive(kGridPoints);
  std::vector<double> n_cross(kGridPoints);

  rise_grid_.reserve(lib.size());
  fall_grid_.reserve(lib.size());
  for (const Cell& cell : lib.cells()) {
    for (int i = 0; i < kGridPoints; ++i) {
      const double kp =
          model_.delay_factor_from_dvth(dvth_p[i] * cell.aging_sensitivity);
      const double kn =
          model_.delay_factor_from_dvth(dvth_n[i] * cell.aging_sensitivity);
      p_drive[i] = std::pow(kp, kDrivingWeight);
      p_cross[i] = std::pow(kp, 1.0 - kDrivingWeight);
      n_drive[i] = std::pow(kn, kDrivingWeight);
      n_cross[i] = std::pow(kn, 1.0 - kDrivingWeight);
    }
    std::vector<double> rise_vals;
    std::vector<double> fall_vals;
    rise_vals.reserve(kGridPoints * kGridPoints);
    fall_vals.reserve(kGridPoints * kGridPoints);
    for (int i = 0; i < kGridPoints; ++i) {
      for (int j = 0; j < kGridPoints; ++j) {
        rise_vals.push_back(p_drive[i] * n_cross[j]);
        fall_vals.push_back(n_drive[j] * p_cross[i]);
      }
    }
    rise_grid_.emplace_back(axis, axis, std::move(rise_vals));
    fall_grid_.emplace_back(axis, axis, std::move(fall_vals));
  }
}

DegradationAwareLibrary::DegradationAwareLibrary(const CellLibrary& lib,
                                                 const AgingModel& model,
                                                 double years,
                                                 std::vector<Table2D> rise_grid,
                                                 std::vector<Table2D> fall_grid)
    : lib_(&lib),
      model_(model),
      years_(years),
      rise_grid_(std::move(rise_grid)),
      fall_grid_(std::move(fall_grid)) {
  if (years < 0.0) {
    throw std::invalid_argument("DegradationAwareLibrary: negative lifetime");
  }
  if (rise_grid_.size() != lib.size() || fall_grid_.size() != lib.size()) {
    throw std::invalid_argument(
        "DegradationAwareLibrary: grid count does not match library size");
  }
}

const Table2D& DegradationAwareLibrary::rise_grid(CellId cell) const {
  if (cell >= rise_grid_.size()) {
    throw std::out_of_range("DegradationAwareLibrary::rise_grid");
  }
  return rise_grid_[cell];
}

const Table2D& DegradationAwareLibrary::fall_grid(CellId cell) const {
  if (cell >= fall_grid_.size()) {
    throw std::out_of_range("DegradationAwareLibrary::fall_grid");
  }
  return fall_grid_[cell];
}

double DegradationAwareLibrary::rise_factor(CellId cell, StressPair stress) const {
  if (cell >= rise_grid_.size()) {
    throw std::out_of_range("DegradationAwareLibrary::rise_factor");
  }
  return rise_grid_[cell].lookup(stress.pmos, stress.nmos);
}

double DegradationAwareLibrary::fall_factor(CellId cell, StressPair stress) const {
  if (cell >= fall_grid_.size()) {
    throw std::out_of_range("DegradationAwareLibrary::fall_factor");
  }
  return fall_grid_[cell].lookup(stress.pmos, stress.nmos);
}

}  // namespace aapx
