#include "synth/passes.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <numeric>
#include <span>
#include <stdexcept>
#include <vector>

#include "engine/context.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace aapx {
namespace {

/// Value of an old net in the new netlist: either a known constant or a net.
struct Mapped {
  bool is_const = false;
  bool const_val = false;
  NetId net = kInvalidNet;
};

/// Sorts the interchangeable pins of `fn` so AND2(a,b) and AND2(b,a) share
/// one structural key.
void canonicalize(LogicFn fn, std::array<NetId, 3>& ins) {
  switch (fn) {
    case LogicFn::kAnd2:
    case LogicFn::kNand2:
    case LogicFn::kOr2:
    case LogicFn::kNor2:
    case LogicFn::kXor2:
    case LogicFn::kXnor2:
      std::sort(ins.begin(), ins.begin() + 2);
      break;
    case LogicFn::kAnd3:
    case LogicFn::kNand3:
    case LogicFn::kOr3:
    case LogicFn::kNor3:
    case LogicFn::kMaj3:
      std::sort(ins.begin(), ins.end());
      break;
    case LogicFn::kAoi21:
    case LogicFn::kOai21:
      std::sort(ins.begin(), ins.begin() + 2);  // (a, b) commute; c does not
      break;
    default:
      break;
  }
}

/// Emits gates with structural hashing over canonical pins. The hash table
/// is an open-addressed array of gate ids: a probe compares the requested
/// cell and pins with the emitted gate itself, so no key is stored twice.
class GateEmitter {
 public:
  /// `expected_gates`, the input netlist's gate count, sizes the table.
  GateEmitter(Netlist& nl, std::size_t expected_gates) : nl_(&nl) {
    std::size_t capacity = 16;
    while (capacity < 2 * expected_gates) capacity *= 2;
    slots_.assign(capacity, kInvalidGate);
  }

  /// Instantiates the smallest cell for `fn` over the first
  /// fn_num_inputs(fn) entries of `ins`, or returns the structurally equal
  /// gate's output net if one was already emitted.
  NetId emit(LogicFn fn, std::array<NetId, 3> ins) {
    const auto pins = static_cast<std::size_t>(fn_num_inputs(fn));
    canonicalize(fn, ins);
    for (std::size_t p = pins; p < ins.size(); ++p) ins[p] = kInvalidNet;
    const CellId cell = nl_->lib().smallest(fn);
    const std::span<const Gate> gates = nl_->gates();
    std::size_t slot = home(cell, ins);
    for (; slots_[slot] != kInvalidGate; slot = (slot + 1) & mask()) {
      const Gate& g = gates[slots_[slot]];
      if (g.cell == cell && g.fanin == ins) return g.fanout;
    }
    const NetId out =
        nl_->add_gate(cell, std::span<const NetId>(ins.data(), pins));
    slots_[slot] = static_cast<GateId>(nl_->num_gates() - 1);
    if (2 * nl_->num_gates() > slots_.size()) grow();
    return out;
  }

  NetId emit_inv(NetId a) { return emit(LogicFn::kInv, {a}); }

 private:
  std::size_t mask() const noexcept { return slots_.size() - 1; }

  std::size_t home(CellId cell,
                   const std::array<NetId, 3>& ins) const noexcept {
    std::uint64_t h = cell;
    for (const NetId n : ins) h = (h ^ n) * 0x9E3779B97F4A7C15ULL;
    return static_cast<std::size_t>(h ^ (h >> 29)) & mask();
  }

  /// Doubles the table and re-inserts every gate (all were emitted here).
  void grow() {
    slots_.assign(2 * slots_.size(), kInvalidGate);
    const std::span<const Gate> gates = nl_->gates();
    for (GateId id = 0; id < gates.size(); ++id) {
      std::size_t slot = home(gates[id].cell, gates[id].fanin);
      while (slots_[slot] != kInvalidGate) slot = (slot + 1) & mask();
      slots_[slot] = id;
    }
  }

  Netlist* nl_;
  std::vector<GateId> slots_;  ///< power-of-two size, at most half full
};

/// Synthesizes an arbitrary 2-variable function given by a 4-bit truth table
/// (bit index = y*2 + x) over new nets x and y.
Mapped synth2(GateEmitter& em, unsigned tt, NetId x, NetId y) {
  switch (tt & 0xFu) {
    case 0x0: return {true, false, kInvalidNet};
    case 0xF: return {true, true, kInvalidNet};
    case 0xA: return {false, false, x};                       // f = x
    case 0xC: return {false, false, y};                       // f = y
    case 0x5: return {false, false, em.emit_inv(x)};          // !x
    case 0x3: return {false, false, em.emit_inv(y)};          // !y
    case 0x8: return {false, false, em.emit(LogicFn::kAnd2, {x, y})};
    case 0xE: return {false, false, em.emit(LogicFn::kOr2, {x, y})};
    case 0x7: return {false, false, em.emit(LogicFn::kNand2, {x, y})};
    case 0x1: return {false, false, em.emit(LogicFn::kNor2, {x, y})};
    case 0x6: return {false, false, em.emit(LogicFn::kXor2, {x, y})};
    case 0x9: return {false, false, em.emit(LogicFn::kXnor2, {x, y})};
    case 0x2:  // x & !y
      return {false, false, em.emit(LogicFn::kNor2, {em.emit_inv(x), y})};
    case 0x4:  // !x & y
      return {false, false, em.emit(LogicFn::kNor2, {x, em.emit_inv(y)})};
    case 0xB:  // x | !y
      return {false, false, em.emit(LogicFn::kNand2, {em.emit_inv(x), y})};
    case 0xD:  // !x | y
      return {false, false, em.emit(LogicFn::kNand2, {x, em.emit_inv(y)})};
    default:
      throw std::logic_error("synth2: unreachable");
  }
}

/// Per net of `nl`, whether it reaches a primary output.
std::vector<char> live_nets(const Netlist& nl) {
  const std::span<const Gate> gates = nl.gates();
  std::vector<char> live(nl.num_nets(), 0);
  std::vector<NetId> stack(nl.outputs().begin(), nl.outputs().end());
  for (const NetId o : stack) live[o] = 1;
  while (!stack.empty()) {
    const NetId net = stack.back();
    stack.pop_back();
    const GateId d = nl.driver(net);
    if (d == kInvalidGate) continue;
    const Gate& g = gates[d];
    const int pins = g.num_inputs();
    for (int p = 0; p < pins; ++p) {
      const NetId in = g.fanin[static_cast<std::size_t>(p)];
      if (!live[in]) {
        live[in] = 1;
        stack.push_back(in);
      }
    }
  }
  return live;
}

/// The forward pass: constant propagation, simplification to smaller cells
/// and structural hashing over the gates that reach a primary output.
Netlist optimize_once(const Netlist& nl) {
  const CellLibrary& lib = nl.lib();
  Netlist out(lib);
  const std::span<const Gate> gates = nl.gates();

  const std::vector<char> live_net = live_nets(nl);
  std::vector<Mapped> map(nl.num_nets());
  map[nl.const0()] = {true, false, kInvalidNet};
  map[nl.const1()] = {true, true, kInvalidNet};

  // Recreate primary inputs verbatim (names, order, buses).
  for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
    const NetId fresh = out.add_input(nl.input_name(i));
    map[nl.inputs()[i]] = {false, false, fresh};
  }
  for (const std::string& bus_name : nl.input_bus_names()) {
    std::vector<NetId> fresh;
    for (const NetId old : nl.input_bus(bus_name)) {
      if (map[old].is_const) {
        fresh.push_back(map[old].const_val ? out.const1() : out.const0());
      } else {
        fresh.push_back(map[old].net);
      }
    }
    out.set_input_bus(bus_name, std::move(fresh));
  }

  GateEmitter emitter(out, nl.num_gates());

  for (const GateId gid : nl.topo_order()) {
    const Gate& g = gates[gid];
    if (!live_net[g.fanout]) continue;
    const LogicFn fn = lib.cell(g.cell).fn;
    const int pins = g.num_inputs();

    // Partition inputs into constants and live variables.
    int var_pins[3];
    NetId var_nets[3];
    int num_vars = 0;
    unsigned const_mask = 0;   // constant input values at their pin positions
    for (int p = 0; p < pins; ++p) {
      const Mapped& m = map[g.fanin[static_cast<std::size_t>(p)]];
      if (m.is_const) {
        if (m.const_val) const_mask |= 1u << p;
      } else {
        var_pins[num_vars] = p;
        var_nets[num_vars] = m.net;
        ++num_vars;
      }
    }

    // Truth table over the variable inputs only.
    unsigned tt = 0;
    for (unsigned v = 0; v < (1u << num_vars); ++v) {
      unsigned input_mask = const_mask;
      for (int k = 0; k < num_vars; ++k) {
        if (v & (1u << k)) input_mask |= 1u << var_pins[k];
      }
      if (fn_eval(fn, input_mask)) tt |= 1u << v;
    }

    Mapped result;
    const unsigned full = (1u << (1u << num_vars)) - 1u;
    if (tt == 0) {
      result = {true, false, kInvalidNet};
    } else if (tt == full) {
      result = {true, true, kInvalidNet};
    } else if (num_vars == 1) {
      result = tt == 0x2u ? Mapped{false, false, var_nets[0]}
                          : Mapped{false, false, emitter.emit_inv(var_nets[0])};
    } else if (num_vars == 2) {
      result = synth2(emitter, tt, var_nets[0], var_nets[1]);
    } else {
      result = {false, false,
                emitter.emit(fn, {var_nets[0], var_nets[1], var_nets[2]})};
    }
    map[g.fanout] = result;
  }

  for (std::size_t i = 0; i < nl.outputs().size(); ++i) {
    const Mapped& m = map[nl.outputs()[i]];
    const NetId net = m.is_const ? (m.const_val ? out.const1() : out.const0())
                                 : m.net;
    out.mark_output(net, nl.output_name(i));
  }
  for (const std::string& bus_name : nl.output_bus_names()) {
    std::vector<NetId> fresh;
    for (const NetId old : nl.output_bus(bus_name)) {
      const Mapped& m = map[old];
      fresh.push_back(m.is_const ? (m.const_val ? out.const1() : out.const0())
                                 : m.net);
    }
    // The member nets were already marked as outputs above via outputs();
    // only the bus grouping needs registering here.
    out.set_output_bus(bus_name, std::move(fresh));
  }
  return out;
}

/// `nl`, a pass's output, without its dead gates and renumbered in its
/// topo_order(): what a second pass builds. That pass finds no constant
/// fanin and no BUF, so it maps each live gate to its own cell over the
/// images of its fanins; the images are distinct nets, so its structural
/// hash merges nothing. Constants and primary inputs keep their ids.
Netlist compact(const Netlist& nl, const std::vector<char>& live_net) {
  Netlist out(nl.lib());
  for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
    out.add_input(nl.input_name(i));
  }
  for (const std::string& bus_name : nl.input_bus_names()) {
    out.set_input_bus(bus_name, nl.input_bus(bus_name));
  }
  std::vector<NetId> map(nl.num_nets());
  std::iota(map.begin(), map.end(), NetId{0});
  const std::span<const Gate> gates = nl.gates();
  for (const GateId g : nl.topo_order()) {
    const Gate& gate = gates[g];
    if (!live_net[gate.fanout]) continue;
    const auto pins = static_cast<std::size_t>(gate.num_inputs());
    std::array<NetId, 3> ins = gate.fanin;
    for (std::size_t p = 0; p < pins; ++p) ins[p] = map[ins[p]];
    // Commutative pins re-sort under the new numbering.
    canonicalize(nl.lib().cell(gate.cell).fn, ins);
    map[gate.fanout] =
        out.add_gate(gate.cell, std::span<const NetId>(ins.data(), pins));
  }
  for (std::size_t i = 0; i < nl.outputs().size(); ++i) {
    out.mark_output(map[nl.outputs()[i]], nl.output_name(i));
  }
  for (const std::string& bus_name : nl.output_bus_names()) {
    std::vector<NetId> fresh;
    for (const NetId old : nl.output_bus(bus_name)) fresh.push_back(map[old]);
    out.set_output_bus(bus_name, std::move(fresh));
  }
  return out;
}

}  // namespace

OptimizeResult optimize(const Netlist& nl, const Context* ctx) {
  obs::Span span(ctx != nullptr ? &ctx->tracer() : nullptr, "optimize",
                 static_cast<std::uint64_t>(nl.num_gates()));
  // Counters resolve against the caller's Context registry (per-call lookup:
  // a static handle would pin the first caller's registry forever).
  obs::MetricsRegistry& registry =
      ctx != nullptr ? ctx->metrics() : obs::metrics();
  obs::Counter& calls = registry.counter("optimize.calls");
  obs::Counter& passes = registry.counter("optimize.passes");
  obs::Counter& removed = registry.counter("optimize.gates_removed");
  calls.add();
  // Constant folding can orphan upstream logic that was still live when the
  // forward pass visited it; the compaction, counted as a second pass, drops
  // it.
  OptimizeResult result{optimize_once(nl)};
  std::uint64_t pass_count = 1;
  const std::vector<char> live_net = live_nets(result.netlist);
  const std::span<const Gate> gates = result.netlist.gates();
  if (std::any_of(gates.begin(), gates.end(),
                  [&](const Gate& g) { return !live_net[g.fanout]; })) {
    result.netlist = compact(result.netlist, live_net);
    ++pass_count;
  }
  result.gates_removed = nl.num_gates() - result.netlist.num_gates();
  passes.add(pass_count);
  removed.add(result.gates_removed);
  return result;
}

}  // namespace aapx
