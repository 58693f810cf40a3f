// Cell library container and the parametric NanGate-45-like generator.
//
// Substitution note (DESIGN.md Sec. 2): the paper uses the NanGate 45nm open
// cell library. Its Liberty data is not redistributable here, so we generate
// a library with the same *structure* (NLDM tables over a slew x load grid,
// three drive strengths per function, state-dependent leakage) from a
// parametric RC gate model with NanGate-magnitude constants. Everything
// downstream (STA, simulation, power, the aging flow) consumes only the
// Liberty-shaped interface, so swapping in real vendor data would be a
// drop-in replacement.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "cell/cell.hpp"

namespace aapx {

using CellId = std::uint32_t;
inline constexpr CellId kInvalidCell = static_cast<CellId>(-1);

class CellLibrary {
 public:
  CellLibrary() { smallest_.fill(kInvalidCell); }

  CellId add(Cell cell);

  const Cell& cell(CellId id) const {
    if (id >= cells_.size()) throw std::out_of_range("CellLibrary::cell");
    return cells_[id];
  }
  std::size_t size() const noexcept { return cells_.size(); }

  /// Finds a cell by exact name ("NAND2_X2"); nullopt if absent.
  std::optional<CellId> find(const std::string& name) const;

  /// Finds the cell implementing `fn` at the given drive strength.
  std::optional<CellId> find(LogicFn fn, int drive) const;

  /// Cheapest (smallest-area) cell implementing `fn`; the first one added
  /// among cells of equal area. Throws std::out_of_range if none does.
  CellId smallest(LogicFn fn) const;

  /// All drive variants of `fn`, sorted ascending by drive strength.
  std::vector<CellId> drive_variants(LogicFn fn) const;

  const DffSpec& dff() const noexcept { return dff_; }
  void set_dff(DffSpec spec) { dff_ = std::move(spec); }

  const std::vector<Cell>& cells() const noexcept { return cells_; }

 private:
  std::vector<Cell> cells_;
  /// Per LogicFn: the answer of smallest(), kept current by add().
  std::array<CellId, kNumLogicFns> smallest_;
  DffSpec dff_;
};

/// Characterization grid + electrical constants of the generated library.
struct LibraryGenParams {
  std::vector<double> slew_axis = {5, 10, 20, 40, 80, 160, 300};     // ps
  std::vector<double> load_axis = {0.5, 1, 2, 4, 8, 16, 32};         // fF
  std::vector<int> drives = {1, 2, 4, 8};
  double slew_to_delay = 0.12;  ///< delay contribution per ps of input slew
  double slew_gain = 0.9;       ///< output slew per ps of R*C
};

/// Builds the NanGate-45-like library (16 functions x 3 strengths + DFF).
CellLibrary make_nangate45_like(const LibraryGenParams& params = {});

}  // namespace aapx
