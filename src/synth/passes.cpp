#include "synth/passes.hpp"

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <unordered_map>
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

/// Emits gates with structural hashing; commutative pins are canonicalized
/// so AND2(a,b) and AND2(b,a) merge.
class GateEmitter {
 public:
  /// `expected_gates`, the input netlist's gate count, sizes the hash table.
  GateEmitter(Netlist& nl, std::size_t expected_gates) : nl_(&nl) {
    cache_.reserve(expected_gates);
  }

  /// Instantiates the smallest cell for `fn` over the first
  /// fn_num_inputs(fn) entries of `ins`, or returns the structurally equal
  /// gate's output net if one was already emitted.
  NetId emit(LogicFn fn, std::array<NetId, 3> ins) {
    const auto pins = static_cast<std::size_t>(fn_num_inputs(fn));
    canonicalize(fn, ins);
    for (std::size_t p = pins; p < ins.size(); ++p) ins[p] = kInvalidNet;
    const auto [it, inserted] = cache_.try_emplace(Key{fn, ins}, kInvalidNet);
    if (inserted) {
      const std::span<const NetId> used(ins.data(), pins);
      it->second = nl_->add_gate(nl_->lib().smallest(fn), used);
    }
    return it->second;
  }

  NetId emit_inv(NetId a) { return emit(LogicFn::kInv, {a}); }

 private:
  struct Key {
    LogicFn fn;
    std::array<NetId, 3> ins;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept {
      std::uint64_t h = static_cast<std::uint64_t>(k.fn);
      for (const NetId n : k.ins) h = (h ^ n) * 0x9E3779B97F4A7C15ULL;
      return static_cast<std::size_t>(h ^ (h >> 29));
    }
  };

  static void canonicalize(LogicFn fn, std::array<NetId, 3>& ins) {
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

  Netlist* nl_;
  std::unordered_map<Key, NetId, KeyHash> cache_;
};

/// Synthesizes an arbitrary 2-variable function given by a 4-bit truth table
/// (bit index = y*2 + x) over new nets x and y.
Mapped synth2(GateEmitter& em, Netlist& nl, unsigned tt, NetId x, NetId y) {
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
  (void)nl;
}

OptimizeResult optimize_once(const Netlist& nl);

/// Whether another pass over `nl`, a pass's output, could remove a gate.
/// Such a pass maps every gate back to its own function over the images of
/// its inputs, and the structural hash that built `nl` already merged equal
/// gates, so it removes nothing unless some gate is dead (its output has no
/// reader and is not a primary output) or is a BUF (which becomes an alias).
bool may_shrink(const Netlist& nl) {
  std::vector<char> is_output(nl.num_nets(), 0);
  for (const NetId o : nl.outputs()) is_output[o] = 1;
  for (GateId g = 0; g < nl.num_gates(); ++g) {
    const Gate& gate = nl.gate(g);
    if (nl.lib().cell(gate.cell).fn == LogicFn::kBuf) return true;
    if (!is_output[gate.fanout] && nl.readers(gate.fanout).empty()) return true;
  }
  return false;
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
  std::uint64_t pass_count = 1;
  // Constant folding can orphan upstream logic that was still live when the
  // forward pass visited it, so iterate to a fixpoint. A pass runs only when
  // may_shrink says it could remove a gate; one that removes none anyway is
  // discarded.
  OptimizeResult result = optimize_once(nl);
  for (int iter = 0; iter < 8 && may_shrink(result.netlist); ++iter) {
    OptimizeResult next = optimize_once(result.netlist);
    ++pass_count;
    if (next.netlist.num_gates() == result.netlist.num_gates()) break;
    result = std::move(next);
  }
  result.gates_removed = nl.num_gates() - result.netlist.num_gates();
  passes.add(pass_count);
  removed.add(result.gates_removed);
  return result;
}

namespace {

OptimizeResult optimize_once(const Netlist& nl) {
  const CellLibrary& lib = nl.lib();
  Netlist out(lib);

  // --- liveness: gates whose output reaches a primary output ---------------
  std::vector<char> live_net(nl.num_nets(), 0);
  {
    std::vector<NetId> stack(nl.outputs().begin(), nl.outputs().end());
    for (const NetId o : stack) live_net[o] = 1;
    while (!stack.empty()) {
      const NetId net = stack.back();
      stack.pop_back();
      const GateId d = nl.driver(net);
      if (d == kInvalidGate) continue;
      const Gate& g = nl.gate(d);
      const int pins = nl.gate_num_inputs(d);
      for (int p = 0; p < pins; ++p) {
        const NetId in = g.fanin[static_cast<std::size_t>(p)];
        if (!live_net[in]) {
          live_net[in] = 1;
          stack.push_back(in);
        }
      }
    }
  }

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
  std::size_t removed = 0;

  for (const GateId gid : nl.topo_order()) {
    const Gate& g = nl.gate(gid);
    if (!live_net[g.fanout]) continue;
    const Cell& cell = lib.cell(g.cell);
    const int pins = cell.num_inputs();

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
      if (fn_eval(cell.fn, input_mask)) tt |= 1u << v;
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
      result = synth2(emitter, out, tt, var_nets[0], var_nets[1]);
    } else {
      result = {false, false,
                emitter.emit(cell.fn, {var_nets[0], var_nets[1], var_nets[2]})};
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

  removed = nl.num_gates() - out.num_gates();
  return {std::move(out), removed};
}

}  // namespace

}  // namespace aapx
