// Liberty (.lib) export of the cell library.
//
// The paper's degradation-aware cell libraries [9] are distributed as
// Liberty files compatible with the Synopsys flow. This module writes our
// generated library in a faithful Liberty subset — library header with unit
// attributes, lu_table templates, per-cell area/leakage/function, pins with
// capacitance, and NLDM timing groups (cell_rise/cell_fall/rise_transition/
// fall_transition) — so aged variants can be inspected with standard EDA
// tooling. The flow only hands libraries out; it never reads Liberty back.
//
// Aged export: `write_aged_liberty` emits the library with every delay table
// pre-scaled by the degradation factors of a chosen stress pair and lifetime
// (one stress corner per file, the way [9] ships 11x11 corner files).
#pragma once

#include <iosfwd>

#include "cell/degradation.hpp"
#include "cell/library.hpp"

namespace aapx {

/// Writes the fresh library. Throws std::invalid_argument when it is empty.
void write_liberty(const CellLibrary& lib, std::ostream& os);

/// Writes an aged corner: all delay/slew tables scaled by the degradation
/// factors for `stress` at the library's lifetime.
void write_aged_liberty(const DegradationAwareLibrary& aged, StressPair stress,
                        std::ostream& os);

}  // namespace aapx
