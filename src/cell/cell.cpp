#include "cell/cell.hpp"

#include <numeric>
#include <stdexcept>

namespace aapx {

bool fn_eval(LogicFn fn, unsigned m) {
  const bool a = (m & 1u) != 0;
  const bool b = (m & 2u) != 0;
  const bool c = (m & 4u) != 0;
  switch (fn) {
    case LogicFn::kBuf: return a;
    case LogicFn::kInv: return !a;
    case LogicFn::kAnd2: return a && b;
    case LogicFn::kNand2: return !(a && b);
    case LogicFn::kOr2: return a || b;
    case LogicFn::kNor2: return !(a || b);
    case LogicFn::kXor2: return a != b;
    case LogicFn::kXnor2: return a == b;
    case LogicFn::kAnd3: return a && b && c;
    case LogicFn::kNand3: return !(a && b && c);
    case LogicFn::kOr3: return a || b || c;
    case LogicFn::kNor3: return !(a || b || c);
    case LogicFn::kAoi21: return !((a && b) || c);
    case LogicFn::kOai21: return !((a || b) && c);
    case LogicFn::kMux2: return c ? b : a;
    case LogicFn::kMaj3: return (a && b) || (a && c) || (b && c);
  }
  throw std::invalid_argument("fn_eval: unknown function");
}

bool fn_pin_controls(LogicFn fn, unsigned input_mask, int pin) {
  const unsigned flipped = input_mask ^ (1u << pin);
  return fn_eval(fn, input_mask) != fn_eval(fn, flipped);
}

std::string to_string(LogicFn fn) {
  switch (fn) {
    case LogicFn::kBuf: return "BUF";
    case LogicFn::kInv: return "INV";
    case LogicFn::kAnd2: return "AND2";
    case LogicFn::kNand2: return "NAND2";
    case LogicFn::kOr2: return "OR2";
    case LogicFn::kNor2: return "NOR2";
    case LogicFn::kXor2: return "XOR2";
    case LogicFn::kXnor2: return "XNOR2";
    case LogicFn::kAnd3: return "AND3";
    case LogicFn::kNand3: return "NAND3";
    case LogicFn::kOr3: return "OR3";
    case LogicFn::kNor3: return "NOR3";
    case LogicFn::kAoi21: return "AOI21";
    case LogicFn::kOai21: return "OAI21";
    case LogicFn::kMux2: return "MUX2";
    case LogicFn::kMaj3: return "MAJ3";
  }
  return "UNKNOWN";
}

double Cell::avg_leakage() const {
  if (leakage_per_state.empty()) return 0.0;
  const double sum = std::accumulate(leakage_per_state.begin(),
                                     leakage_per_state.end(), 0.0);
  return sum / static_cast<double>(leakage_per_state.size());
}

const TimingArc& Cell::arc(int input_pin) const {
  for (const auto& a : arcs) {
    if (a.input_pin == input_pin) return a;
  }
  throw std::out_of_range("Cell::arc: no arc for pin " + std::to_string(input_pin) +
                          " in " + name);
}

}  // namespace aapx
