// Degradation-aware cell library (reproduction of [4]/[9] from the paper).
//
// The paper's aging-aware STA consumes a released cell library that stores,
// for every cell, delay information under an 11x11 grid of pMOS/nMOS stress
// factors (0%, 10%, ..., 100%). We regenerate that artifact: for a chosen
// lifetime, each cell gets an 11x11 grid of *delay scale factors* per
// transition direction, derived from the BTI model. STA multiplies the fresh
// NLDM delay by the bilinear-interpolated factor for the gate's stress pair.
//
// A rising output is driven by the pull-up pMOS network, so its factor is
// dominated by NBTI at stress S_p; symmetrically the falling output by PBTI
// at S_n. A small cross term models the slew interaction of the opposing
// network, which is what makes the grid genuinely two-dimensional.
//
// Layout: every grid entry is a product of one pMOS and one nMOS term,
//   rise[i][j] = p_drive[i] * n_cross[j],  fall[i][j] = n_drive[j] * p_cross[i],
// and the four 11-point rows depend on a cell only through its
// aging_sensitivity. So the library stores one set of rows per distinct
// (bit-equal) sensitivity and a class index per cell, never the 121-entry
// grids: 4 x 11 doubles = 352 bytes per class, about 5 KB per library for
// the 13 classes of make_nangate45_like()'s 64 cells. rise_factor/fall_factor
// interpolate over the corner products with util/interp's bilinear(), the
// same arithmetic as Table2D::lookup on the materialized grid, so every
// factor is bit-identical to it.
//
// Uniform (worst / balanced) profiles give every gate of a class the same
// stress pair and toggle activity, so each class also keeps its gate_factors
// at those two points, HCI included: 4 doubles per class, computed once by
// the very calls a per-gate evaluation makes. An aged STA under a uniform
// profile reads one table entry per gate and interpolates nothing.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "aging/aging_model.hpp"
#include "aging/stress.hpp"
#include "cell/library.hpp"

namespace aapx {

class DegradationAwareLibrary {
 public:
  /// Precomputes the factor rows of every sensitivity class of `lib` at the
  /// given lifetime. years == 0 produces the identity library (all factors
  /// 1). The rows hold the model's duty-driven (BTI) drift; activity-driven
  /// HCI drift is applied per gate by the STA on top (it needs the gate's
  /// activity, which is not a grid axis).
  DegradationAwareLibrary(const CellLibrary& lib, const AgingModel& model,
                          double years);

  /// Delay scale factor (>= 1) for an output-rise transition of `cell`
  /// under the given stress pair, bilinear over the 11x11 grid.
  double rise_factor(CellId cell, StressPair stress) const;
  /// Same for an output-fall transition.
  double fall_factor(CellId cell, StressPair stress) const;

  /// Delay scale factors of one gate's output rise and fall.
  struct Factors {
    double rise = 1.0;
    double fall = 1.0;
  };
  /// The factors of gate `gate` of `stress`, a gate of `cell`: rise_factor
  /// and fall_factor at its stress pair, with the model's activity-driven
  /// HCI drift (when enabled) at its toggle activity composed into the fall
  /// factor, since HCI wears the nMOS pull-down network. HCI is not a grid
  /// axis, so this is where it enters. Throws std::domain_error once the HCI
  /// drift consumes the gate overdrive.
  Factors gate_factors(CellId cell, const StressProfile& stress,
                       std::size_t gate) const;
  /// gate_factors of `cell` under a uniform profile of `mode` (worst or
  /// balanced), read from the table built at construction. A fall factor
  /// whose evaluation threw is NaN there: the caller re-evaluates
  /// gate_factors, which throws the same error a per-gate evaluation always
  /// did.
  const Factors& uniform_factors(CellId cell, StressMode mode) const {
    return uniform_[class_index(cell)][mode == StressMode::balanced ? 1 : 0];
  }

  double years() const noexcept { return years_; }
  const CellLibrary& base() const noexcept { return *lib_; }
  const AgingModel& model() const noexcept { return model_; }

  /// Number of grid points per stress axis (the "11" in 11x11).
  static constexpr int kGridPoints = 11;

 private:
  using Row = std::array<double, kGridPoints>;
  /// The factor rows of one sensitivity class, indexed by the stress axis
  /// point: pow(k, driving weight) and pow(k, 1 - driving weight) of the
  /// pMOS (p_*) and nMOS (n_*) delay factor k.
  struct FactorRows {
    Row p_drive;
    Row p_cross;
    Row n_drive;
    Row n_cross;
  };
  std::uint32_t class_index(CellId cell) const {
    if (cell >= class_of_.size()) throw_cell_out_of_range();
    return class_of_[cell];
  }
  [[noreturn]] static void throw_cell_out_of_range();

  const CellLibrary* lib_;
  AgingModel model_;
  double years_;
  std::vector<FactorRows> classes_;     ///< one per distinct sensitivity
  std::vector<std::uint32_t> class_of_;  ///< per cell: index into classes_
  /// Per class: uniform_factors at the worst [0] and balanced [1] profile.
  std::vector<std::array<Factors, 2>> uniform_;
};

}  // namespace aapx
