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
// the 13 classes of make_nangate45_like()'s 64 cells. rise_factor/fall_factor interpolate over the corner products
// with util/interp's bilinear(), the same arithmetic as Table2D::lookup on
// the materialized grid, so every factor is bit-identical to it.
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
  const FactorRows& rows_of(CellId cell) const;

  const CellLibrary* lib_;
  AgingModel model_;
  double years_;
  std::vector<FactorRows> classes_;     ///< one per distinct sensitivity
  std::vector<std::uint32_t> class_of_;  ///< per cell: index into classes_
};

}  // namespace aapx
