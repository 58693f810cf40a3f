#include "synth/components.hpp"

#include <stdexcept>

#include "synth/passes.hpp"

namespace aapx {

std::string to_string(ComponentKind kind) {
  switch (kind) {
    case ComponentKind::adder: return "adder";
    case ComponentKind::multiplier: return "multiplier";
    case ComponentKind::mac: return "mac";
    case ComponentKind::clamp: return "clamp";
  }
  return "unknown";
}

std::string to_string(ApproxTechnique technique) {
  switch (technique) {
    case ApproxTechnique::lsb_truncation: return "lsb";
    case ApproxTechnique::carry_window: return "window";
    case ApproxTechnique::pp_truncation: return "pp";
  }
  return "unknown";
}

std::string ComponentSpec::name() const {
  std::string n = to_string(kind) + std::to_string(width);
  switch (kind) {
    case ComponentKind::adder:
      n += '_';
      n += to_string(adder_arch);
      break;
    case ComponentKind::multiplier:
      n += '_';
      n += to_string(mult_arch);
      break;
    case ComponentKind::mac:
      n += '_';
      n += to_string(mult_arch);
      n += '_';
      n += to_string(adder_arch);
      break;
    case ComponentKind::clamp: break;
  }
  if (technique != ApproxTechnique::lsb_truncation) {
    n += '_';
    n += to_string(technique);
  }
  if (truncated_bits > 0) {
    n += "_k";
    n += std::to_string(precision());
  }
  return n;
}

namespace {

/// Applies operand truncation: the k low bits read const0 inside the logic.
Word truncated(const Netlist& nl, const Word& bus, int k) {
  Word eff = bus;
  for (int i = 0; i < k && i < static_cast<int>(eff.size()); ++i) {
    eff[static_cast<std::size_t>(i)] = nl.const0();
  }
  return eff;
}

Netlist gen_adder(const CellLibrary& lib, const ComponentSpec& spec) {
  Netlist nl(lib);
  const Word a = nl.add_input_bus("a", spec.width);
  const Word b = nl.add_input_bus("b", spec.width);
  Word y;
  if (spec.technique == ApproxTechnique::carry_window) {
    // Precision knob = carry lookback window of `precision()` bits.
    y = build_windowed_adder(nl, a, b, spec.precision());
  } else {
    const Word ea = truncated(nl, a, spec.truncated_bits);
    const Word eb = truncated(nl, b, spec.truncated_bits);
    y = build_adder(nl, ea, eb, nl.const0(), spec.adder_arch);
  }
  nl.mark_output_bus(y, "y");
  return nl;
}

Word gen_product(Netlist& nl, const ComponentSpec& spec, const Word& a,
                 const Word& b) {
  if (spec.technique == ApproxTechnique::pp_truncation) {
    // Precision knob = dropped least-significant partial-product columns.
    return build_pp_truncated_multiplier(nl, a, b, spec.mult_arch,
                                         spec.truncated_bits);
  }
  const Word ea = truncated(nl, a, spec.truncated_bits);
  const Word eb = truncated(nl, b, spec.truncated_bits);
  return build_multiplier(nl, ea, eb, spec.mult_arch);
}

Netlist gen_multiplier(const CellLibrary& lib, const ComponentSpec& spec) {
  Netlist nl(lib);
  const Word a = nl.add_input_bus("a", spec.width);
  const Word b = nl.add_input_bus("b", spec.width);
  nl.mark_output_bus(gen_product(nl, spec, a, b), "y");
  return nl;
}

Netlist gen_mac(const CellLibrary& lib, const ComponentSpec& spec) {
  Netlist nl(lib);
  const Word a = nl.add_input_bus("a", spec.width);
  const Word b = nl.add_input_bus("b", spec.width);
  const Word acc = nl.add_input_bus("acc", 2 * spec.width);
  const Word prod = gen_product(nl, spec, a, b);
  const Word y = build_adder(nl, prod, acc, nl.const0(), spec.adder_arch);
  nl.mark_output_bus(y, "y");
  return nl;
}

Netlist gen_clamp(const CellLibrary& lib, const ComponentSpec& spec) {
  if (spec.width < 9) {
    throw std::invalid_argument("clamp: width must be at least 9 bits");
  }
  Netlist nl(lib);
  const Word x = nl.add_input_bus("x", spec.width);
  const Word ex = truncated(nl, x, spec.truncated_bits);
  const NetId neg = ex.back();  // sign bit
  // Overflow: any magnitude bit above bit 7 while non-negative.
  std::vector<NetId> high;
  for (std::size_t i = 8; i + 1 < ex.size(); ++i) high.push_back(ex[i]);
  NetId over = nl.const0();
  for (const NetId h : high) {
    over = over == nl.const0() ? h : nl.mk(LogicFn::kOr2, over, h);
  }
  const NetId not_neg = nl.mk(LogicFn::kInv, neg);
  Word y;
  y.reserve(8);
  for (int i = 0; i < 8; ++i) {
    // y_i = !neg & (over | x_i): negative saturates to 0, overflow to 255.
    const NetId sat = nl.mk(LogicFn::kOr2, over, ex[static_cast<std::size_t>(i)]);
    y.push_back(nl.mk(LogicFn::kAnd2, not_neg, sat));
  }
  nl.mark_output_bus(y, "y");
  return nl;
}

Netlist make_component_impl(const CellLibrary& lib, const ComponentSpec& spec,
                            const Context* ctx) {
  if (spec.width <= 0) throw std::invalid_argument("make_component: bad width");
  if (spec.truncated_bits < 0 || spec.truncated_bits >= spec.width) {
    throw std::invalid_argument("make_component: truncated_bits out of range");
  }
  if (spec.technique == ApproxTechnique::carry_window &&
      spec.kind != ComponentKind::adder) {
    throw std::invalid_argument(
        "make_component: carry_window applies to adders only");
  }
  if (spec.technique == ApproxTechnique::pp_truncation &&
      spec.kind != ComponentKind::multiplier && spec.kind != ComponentKind::mac) {
    throw std::invalid_argument(
        "make_component: pp_truncation applies to multipliers/MACs only");
  }
  Netlist raw = [&] {
    switch (spec.kind) {
      case ComponentKind::adder: return gen_adder(lib, spec);
      case ComponentKind::multiplier: return gen_multiplier(lib, spec);
      case ComponentKind::mac: return gen_mac(lib, spec);
      case ComponentKind::clamp: return gen_clamp(lib, spec);
    }
    throw std::invalid_argument("make_component: unknown kind");
  }();
  return optimize(raw, ctx).netlist;
}

}  // namespace

Netlist make_component(const CellLibrary& lib, const ComponentSpec& spec) {
  return make_component_impl(lib, spec, nullptr);
}

Netlist make_component(const Context& ctx, const CellLibrary& lib,
                       const ComponentSpec& spec) {
  return make_component_impl(lib, spec, &ctx);
}

}  // namespace aapx
