#include "cell/library.hpp"

#include <bit>
#include <cmath>
#include <stdexcept>

namespace aapx {

CellId CellLibrary::add(Cell cell) {
  const auto id = static_cast<CellId>(cells_.size());
  CellId& best = smallest_[static_cast<std::size_t>(cell.fn)];
  if (best == kInvalidCell || cell.area < cells_[best].area) best = id;
  cells_.push_back(std::move(cell));
  return id;
}

std::optional<CellId> CellLibrary::find(const std::string& name) const {
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    if (cells_[i].name == name) return static_cast<CellId>(i);
  }
  return std::nullopt;
}

std::optional<CellId> CellLibrary::find(LogicFn fn, int drive) const {
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    if (cells_[i].fn == fn && cells_[i].drive == drive) {
      return static_cast<CellId>(i);
    }
  }
  return std::nullopt;
}

CellId CellLibrary::smallest(LogicFn fn) const {
  const CellId best = smallest_[static_cast<std::size_t>(fn)];
  if (best == kInvalidCell) {
    throw std::out_of_range("CellLibrary::smallest: no cell for " + to_string(fn));
  }
  return best;
}

std::vector<CellId> CellLibrary::drive_variants(LogicFn fn) const {
  std::vector<CellId> out;
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    if (cells_[i].fn == fn) out.push_back(static_cast<CellId>(i));
  }
  for (std::size_t i = 1; i < out.size(); ++i) {
    for (std::size_t j = i; j > 0 && cells_[out[j - 1]].drive > cells_[out[j]].drive;
         --j) {
      std::swap(out[j - 1], out[j]);
    }
  }
  return out;
}

namespace {

/// Per-function electrical prototype at drive X1.
struct Proto {
  LogicFn fn;
  double d0_rise;    ///< intrinsic output-rise delay, ps
  double d0_fall;    ///< intrinsic output-fall delay, ps
  double r_drive;    ///< effective drive resistance, ps/fF
  double pin_cap;    ///< fF
  double area;       ///< um^2
  double leakage;    ///< nW, averaged over states
  double aging_sens; ///< stacked-transistor BTI sensitivity multiplier
};

// NanGate-45-magnitude constants. Stacked-pMOS topologies (NOR-like) get a
// higher aging sensitivity: series pull-up devices see longer effective NBTI
// stress, which is what makes aging non-uniform across paths (paper Sec. I).
// BTI sensitivity is strongly topology dependent: series (stacked) pull-up
// and pull-down networks of AND/OR/NOR-style gates keep individual devices
// conducting for longer effective stress windows, whereas the complementary
// pass-transistor-like XOR/majority topologies distribute stress across
// parallel branches. This asymmetry is what makes aging hit the lookahead
// (AND/OR-chain) adder harder than the XOR/MAJ-dominated multiplier array —
// the per-component difference the paper highlights in Secs. II and VI.
constexpr Proto kProtos[] = {
    {LogicFn::kInv, 8, 7, 2.0, 1.0, 0.53, 10, 1.00},
    {LogicFn::kBuf, 16, 15, 1.8, 1.1, 0.80, 16, 1.00},
    {LogicFn::kNand2, 12, 10, 2.3, 1.1, 0.80, 18, 0.80},
    {LogicFn::kNor2, 14, 12, 2.6, 1.1, 0.80, 16, 1.95},
    {LogicFn::kAnd2, 18, 16, 2.0, 1.1, 1.06, 22, 1.86},
    {LogicFn::kOr2, 20, 17, 2.1, 1.1, 1.06, 20, 2.05},
    {LogicFn::kXor2, 28, 26, 2.8, 1.8, 1.60, 32, 0.52},
    {LogicFn::kXnor2, 28, 26, 2.8, 1.8, 1.60, 32, 0.52},
    {LogicFn::kNand3, 16, 14, 2.6, 1.2, 1.06, 24, 0.85},
    {LogicFn::kNor3, 20, 17, 3.0, 1.2, 1.06, 22, 2.05},
    {LogicFn::kAnd3, 22, 19, 2.1, 1.2, 1.33, 28, 1.90},
    {LogicFn::kOr3, 24, 20, 2.2, 1.2, 1.33, 26, 2.10},
    {LogicFn::kAoi21, 16, 14, 2.7, 1.2, 1.06, 20, 1.30},
    {LogicFn::kOai21, 15, 13, 2.5, 1.2, 1.06, 20, 1.25},
    {LogicFn::kMux2, 26, 24, 2.4, 1.4, 1.86, 30, 0.90},
    {LogicFn::kMaj3, 30, 28, 2.6, 1.5, 2.13, 36, 0.50},
};

/// Deterministic per-state leakage variation (replaces SPICE state tables).
double state_leakage(double base, unsigned state, int pins) {
  const int highs = std::popcount(state);
  const double duty = pins > 0 ? static_cast<double>(highs) / pins : 0.0;
  // More conducting nMOS stacks -> slightly higher subthreshold leakage.
  const unsigned h = (state * 2654435761u) >> 28;  // 0..15 pseudo-jitter
  const double jitter = 0.95 + 0.00625 * static_cast<double>(h);
  return base * (0.80 + 0.40 * duty) * jitter;
}

Table2D make_table(const LibraryGenParams& p, double intrinsic, double r,
                   double slew_coeff) {
  std::vector<double> values;
  values.reserve(p.slew_axis.size() * p.load_axis.size());
  for (const double slew : p.slew_axis) {
    for (const double load : p.load_axis) {
      values.push_back(intrinsic + r * load + slew_coeff * slew);
    }
  }
  return Table2D(p.slew_axis, p.load_axis, std::move(values));
}

Table2D make_slew_table(const LibraryGenParams& p, double intrinsic, double r) {
  std::vector<double> values;
  values.reserve(p.slew_axis.size() * p.load_axis.size());
  for (const double slew : p.slew_axis) {
    for (const double load : p.load_axis) {
      values.push_back(0.5 * intrinsic + p.slew_gain * r * load + 0.10 * slew);
    }
  }
  return Table2D(p.slew_axis, p.load_axis, std::move(values));
}

}  // namespace

CellLibrary make_nangate45_like(const LibraryGenParams& params) {
  CellLibrary lib;
  for (const Proto& proto : kProtos) {
    const int pins = fn_num_inputs(proto.fn);
    for (const int drive : params.drives) {
      Cell cell;
      cell.name = to_string(proto.fn) + "_X" + std::to_string(drive);
      cell.fn = proto.fn;
      cell.drive = drive;
      cell.area = proto.area * (1.0 + 0.55 * (drive - 1));
      cell.pin_cap = proto.pin_cap * std::pow(drive, 0.85);
      cell.max_load = 12.0 * drive;
      cell.aging_sensitivity = proto.aging_sens;

      const unsigned states = 1u << pins;
      cell.leakage_per_state.reserve(states);
      for (unsigned s = 0; s < states; ++s) {
        cell.leakage_per_state.push_back(
            state_leakage(proto.leakage * drive, s, pins));
      }

      // Pull-up networks are typically weaker than pull-down; pins physically
      // closer to the output node switch slightly faster.
      const double r_rise = proto.r_drive * 1.15 / drive;
      const double r_fall = proto.r_drive * 0.90 / drive;
      for (int pin = 0; pin < pins; ++pin) {
        const double pin_factor = 1.0 - 0.06 * pin;
        TimingArc arc;
        arc.input_pin = pin;
        arc.rise_delay = make_table(params, proto.d0_rise * pin_factor, r_rise,
                                    params.slew_to_delay);
        arc.fall_delay = make_table(params, proto.d0_fall * pin_factor, r_fall,
                                    params.slew_to_delay);
        arc.rise_slew = make_slew_table(params, proto.d0_rise, r_rise);
        arc.fall_slew = make_slew_table(params, proto.d0_fall, r_fall);
        cell.arcs.push_back(std::move(arc));
      }
      lib.add(std::move(cell));
    }
  }
  lib.set_dff(DffSpec{});
  return lib;
}

}  // namespace aapx
