// Standard-cell model: logic function, NLDM timing arcs, power and area.
//
// The library mirrors the structure of a Liberty (.lib) characterization of
// the NanGate 45nm open cell library the paper synthesizes against: per-arc
// 2-D delay and output-slew tables indexed by input slew and output load,
// state-dependent leakage, pin capacitance and area per drive strength.
// Units: time ps, capacitance fF, area um^2, leakage nW.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/interp.hpp"

namespace aapx {

/// Combinational logic functions offered by the library (plus DFF for the
/// sequential boundary element).
enum class LogicFn : std::uint8_t {
  kBuf,
  kInv,
  kAnd2,
  kNand2,
  kOr2,
  kNor2,
  kXor2,
  kXnor2,
  kAnd3,
  kNand3,
  kOr3,
  kNor3,
  kAoi21,  ///< !((a & b) | c)
  kOai21,  ///< !((a | b) & c)
  kMux2,   ///< sel ? b : a  (pins: 0=a, 1=b, 2=sel)
  kMaj3,   ///< majority — the carry function of a full adder
};

/// Number of LogicFn values (kMaj3 is the last), for per-function tables.
inline constexpr std::size_t kNumLogicFns =
    static_cast<std::size_t>(LogicFn::kMaj3) + 1;

/// Number of input pins of a logic function.
inline int fn_num_inputs(LogicFn fn) {
  switch (fn) {
    case LogicFn::kBuf:
    case LogicFn::kInv:
      return 1;
    case LogicFn::kAnd2:
    case LogicFn::kNand2:
    case LogicFn::kOr2:
    case LogicFn::kNor2:
    case LogicFn::kXor2:
    case LogicFn::kXnor2:
      return 2;
    case LogicFn::kAnd3:
    case LogicFn::kNand3:
    case LogicFn::kOr3:
    case LogicFn::kNor3:
    case LogicFn::kAoi21:
    case LogicFn::kOai21:
    case LogicFn::kMux2:
    case LogicFn::kMaj3:
      return 3;
  }
  throw std::invalid_argument("fn_num_inputs: unknown function");
}

/// Evaluates `fn` on an input bitmask (bit i = logic value of pin i).
bool fn_eval(LogicFn fn, unsigned input_mask);

/// True if toggling pin `pin` from the given input mask flips the output.
/// (Used by the timed simulator for event filtering and by power analysis.)
bool fn_pin_controls(LogicFn fn, unsigned input_mask, int pin);

std::string to_string(LogicFn fn);

/// One combinational timing arc: input pin -> output, with separate tables
/// for output-rise and output-fall transitions.
struct TimingArc {
  int input_pin = 0;
  Table2D rise_delay;   ///< ps = f(input slew ps, output load fF)
  Table2D fall_delay;   ///< ps
  Table2D rise_slew;    ///< output slew ps
  Table2D fall_slew;    ///< output slew ps
};

struct Cell {
  std::string name;          ///< e.g. "NAND2_X2"
  LogicFn fn = LogicFn::kInv;
  int drive = 1;             ///< drive strength (1, 2, 4)
  double area = 0.0;         ///< um^2
  double pin_cap = 0.0;      ///< input capacitance per pin, fF
  double max_load = 0.0;     ///< fF, capacitance limit used by sizing
  std::vector<double> leakage_per_state;  ///< nW, indexed by input mask
  std::vector<TimingArc> arcs;            ///< one per input pin

  /// Relative BTI sensitivity of this topology (stacked pull-ups age
  /// differently from single transistors); scales dVth in the degradation
  /// library.  1.0 = inverter-like.
  double aging_sensitivity = 1.0;

  int num_inputs() const { return fn_num_inputs(fn); }
  double avg_leakage() const;
  const TimingArc& arc(int input_pin) const;
};

/// Sequential boundary element (D flip-flop). The microarchitecture flow
/// places these between RTL blocks; they contribute area/power and a fixed
/// clk->q plus setup overhead to each block's timing budget.
struct DffSpec {
  std::string name = "DFF_X1";
  double area = 4.52;       ///< um^2
  double pin_cap = 1.0;     ///< fF on D
  double leakage = 48.0;    ///< nW
  double clk_to_q = 55.0;   ///< ps
  double setup = 30.0;      ///< ps
  double cap_per_bit = 1.2; ///< fF internal switched cap per toggle
};

}  // namespace aapx
