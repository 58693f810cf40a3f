#include "synth/passes.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
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

/// Emits gates with structural hashing; commutative pins are canonicalized
/// so AND2(a,b) and AND2(b,a) merge.
class GateEmitter {
 public:
  explicit GateEmitter(Netlist& nl) : nl_(&nl) {}

  NetId emit(LogicFn fn, std::vector<NetId> ins) {
    canonicalize(fn, ins);
    const Key key{fn, {ins.size() > 0 ? ins[0] : kInvalidNet,
                       ins.size() > 1 ? ins[1] : kInvalidNet,
                       ins.size() > 2 ? ins[2] : kInvalidNet}};
    const auto it = cache_.find(key);
    if (it != cache_.end()) return it->second;
    NetId out = kInvalidNet;
    switch (ins.size()) {
      case 1: out = nl_->mk(fn, ins[0]); break;
      case 2: out = nl_->mk(fn, ins[0], ins[1]); break;
      case 3: out = nl_->mk(fn, ins[0], ins[1], ins[2]); break;
      default: throw std::logic_error("GateEmitter: bad input count");
    }
    cache_.emplace(key, out);
    return out;
  }

  NetId emit_inv(NetId a) { return emit(LogicFn::kInv, {a}); }

 private:
  struct Key {
    LogicFn fn;
    std::array<NetId, 3> ins;
    bool operator<(const Key& o) const {
      if (fn != o.fn) return fn < o.fn;
      return ins < o.ins;
    }
  };

  static void canonicalize(LogicFn fn, std::vector<NetId>& ins) {
    switch (fn) {
      case LogicFn::kAnd2:
      case LogicFn::kNand2:
      case LogicFn::kOr2:
      case LogicFn::kNor2:
      case LogicFn::kXor2:
      case LogicFn::kXnor2:
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
  std::map<Key, NetId> cache_;
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
  // forward pass visited it, so iterate to a fixpoint (2 passes typical).
  OptimizeResult result = optimize_once(nl);
  for (int iter = 0; iter < 8; ++iter) {
    OptimizeResult next = optimize_once(result.netlist);
    ++pass_count;
    if (next.netlist.num_gates() == result.netlist.num_gates()) break;
    next.gates_removed += result.gates_removed;
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

  GateEmitter emitter(out);
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
