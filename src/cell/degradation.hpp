// Degradation-aware cell library (reproduction of [4]/[9] from the paper).
//
// The paper's aging-aware STA consumes a released cell library that stores,
// for every cell, delay information under an 11x11 grid of pMOS/nMOS stress
// factors (0%, 10%, ..., 100%). We regenerate that artifact: for a chosen
// lifetime, each cell gets an 11x11 table of *delay scale factors* per
// transition direction, derived from the BTI model. STA multiplies the fresh
// NLDM delay by the bilinear-interpolated factor for the gate's stress pair.
//
// A rising output is driven by the pull-up pMOS network, so its factor is
// dominated by NBTI at stress S_p; symmetrically the falling output by PBTI
// at S_n. A small cross term models the slew interaction of the opposing
// network, which is what makes the grid genuinely two-dimensional.
#pragma once

#include <vector>

#include "aging/aging_model.hpp"
#include "aging/stress.hpp"
#include "cell/library.hpp"
#include "util/interp.hpp"

namespace aapx {

class DegradationAwareLibrary {
 public:
  /// Precomputes 11x11 factor grids for every cell at the given lifetime.
  /// years == 0 produces the identity library (all factors 1). The grids
  /// hold the model's duty-driven (BTI) drift; activity-driven HCI drift is
  /// applied per gate by the STA on top (it needs the gate's activity, which
  /// is not a grid axis).
  DegradationAwareLibrary(const CellLibrary& lib, const AgingModel& model,
                          double years);

  /// Adopts precomputed factor grids instead of rebuilding them — the
  /// deserialization path of the persistent DesignStore (engine/persist).
  /// Both grid vectors must hold one table per cell of `lib`.
  DegradationAwareLibrary(const CellLibrary& lib, const AgingModel& model,
                          double years, std::vector<Table2D> rise_grid,
                          std::vector<Table2D> fall_grid);

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

  /// Raw factor grids of one cell, exposed for serialization. axis1 = S_p,
  /// axis2 = S_n.
  const Table2D& rise_grid(CellId cell) const;
  const Table2D& fall_grid(CellId cell) const;
  /// Number of cells covered (== size of the library this was built from,
  /// without touching it — serialization may outlive the library object).
  std::size_t num_cells() const noexcept { return rise_grid_.size(); }

 private:
  const CellLibrary* lib_;
  AgingModel model_;
  double years_;
  std::vector<Table2D> rise_grid_;  ///< per cell; axis1 = S_p, axis2 = S_n
  std::vector<Table2D> fall_grid_;
};

}  // namespace aapx
