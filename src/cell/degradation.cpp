#include "cell/degradation.hpp"

#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/interp.hpp"

namespace aapx {
namespace {

// Weight of the driving network in the transition's degradation; the
// remainder models the opposing network's slew interaction.
constexpr double kDrivingWeight = 0.92;

/// The stress axis shared by S_p and S_n: 0, 0.1, ..., 1.
const std::vector<double>& stress_axis() {
  static const std::vector<double> axis = [] {
    constexpr int n = DegradationAwareLibrary::kGridPoints;
    std::vector<double> a(n);
    for (int i = 0; i < n; ++i) a[i] = static_cast<double>(i) / (n - 1);
    return a;
  }();
  return axis;
}

}  // namespace

DegradationAwareLibrary::DegradationAwareLibrary(const CellLibrary& lib,
                                                 const AgingModel& model,
                                                 double years)
    : lib_(&lib), model_(model), years_(years) {
  if (years < 0.0) {
    throw std::invalid_argument("DegradationAwareLibrary: negative lifetime");
  }
  const std::vector<double>& axis = stress_axis();
  // The drift depends on the transistor type and the axis point only.
  Row dvth_p;
  Row dvth_n;
  for (int i = 0; i < kGridPoints; ++i) {
    dvth_p[i] = model_.delta_vth(TransistorType::pMos, axis[i], years);
    dvth_n[i] = model_.delta_vth(TransistorType::nMos, axis[i], years);
  }

  // A class's factors under a uniform profile, from its first cell: every
  // cell of the class shares them. NaN marks a fall factor that threw.
  const auto at_uniform = [this](CellId cell, StressMode mode) -> Factors {
    const StressProfile one = StressProfile::uniform(mode, 1);
    try {
      return gate_factors(cell, one, 0);
    } catch (const std::exception&) {
      return {rise_factor(cell, one.gate(0)),
              std::numeric_limits<double>::quiet_NaN()};
    }
  };

  // One class per bit-equal sensitivity, in order of first appearance.
  std::vector<std::uint64_t> class_bits;
  class_of_.reserve(lib.size());
  for (const Cell& cell : lib.cells()) {
    const auto bits = std::bit_cast<std::uint64_t>(cell.aging_sensitivity);
    std::size_t k = 0;
    while (k < class_bits.size() && class_bits[k] != bits) ++k;
    class_of_.push_back(static_cast<std::uint32_t>(k));
    if (k < class_bits.size()) continue;
    class_bits.push_back(bits);
    FactorRows& rows = classes_.emplace_back();
    for (int i = 0; i < kGridPoints; ++i) {
      const double kp =
          model_.delay_factor_from_dvth(dvth_p[i] * cell.aging_sensitivity);
      const double kn =
          model_.delay_factor_from_dvth(dvth_n[i] * cell.aging_sensitivity);
      rows.p_drive[i] = std::pow(kp, kDrivingWeight);
      rows.p_cross[i] = std::pow(kp, 1.0 - kDrivingWeight);
      rows.n_drive[i] = std::pow(kn, kDrivingWeight);
      rows.n_cross[i] = std::pow(kn, 1.0 - kDrivingWeight);
    }
    const auto id = static_cast<CellId>(class_of_.size() - 1);
    uniform_.push_back({at_uniform(id, StressMode::worst),
                        at_uniform(id, StressMode::balanced)});
  }
  classes_.shrink_to_fit();
  uniform_.shrink_to_fit();
}

void DegradationAwareLibrary::throw_cell_out_of_range() {
  throw std::out_of_range("DegradationAwareLibrary: cell id out of range");
}

DegradationAwareLibrary::Factors DegradationAwareLibrary::gate_factors(
    CellId cell, const StressProfile& stress, std::size_t gate) const {
  const StressPair sp = stress.gate(gate);
  Factors f{rise_factor(cell, sp), fall_factor(cell, sp)};
  if (model_.has_hci()) {
    // Output falls only; the factor composes multiplicatively with the BTI
    // grid's.
    const double dvth =
        model_.hci_delta_vth(stress.gate_activity(gate), years_) *
        lib_->cell(cell).aging_sensitivity;
    f.fall *= model_.delay_factor_from_dvth(dvth);
  }
  return f;
}

double DegradationAwareLibrary::rise_factor(CellId cell, StressPair stress) const {
  const FactorRows& r = classes_[class_index(cell)];
  const std::vector<double>& axis = stress_axis();
  return bilinear(axis, axis, stress.pmos, stress.nmos,
                  [&r](std::size_t i, std::size_t j) {
                    return r.p_drive[i] * r.n_cross[j];
                  });
}

double DegradationAwareLibrary::fall_factor(CellId cell, StressPair stress) const {
  const FactorRows& r = classes_[class_index(cell)];
  const std::vector<double>& axis = stress_axis();
  return bilinear(axis, axis, stress.pmos, stress.nmos,
                  [&r](std::size_t i, std::size_t j) {
                    return r.n_drive[j] * r.p_cross[i];
                  });
}

}  // namespace aapx
