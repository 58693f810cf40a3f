// Netlist digests shared by the synthesis tests.
//
// feed_structure() hashes a netlist exactly as built: the net count, each
// gate's cell, fanin and fanout nets, the PI/PO names and nets, and the input
// and output buses. renumbering_invariant_digest() ignores the numbering of
// gates and nets, so two netlists that differ only in emission order agree.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"
#include "util/hash.hpp"

namespace aapx {

inline void feed_nets(Hasher& h, const std::vector<NetId>& nets) {
  h.u64(nets.size());
  for (const NetId n : nets) h.u32(n);
}

inline std::vector<std::string> sorted_names(std::vector<std::string> names) {
  std::sort(names.begin(), names.end());
  return names;
}

inline void feed_structure(Hasher& h, const Netlist& nl) {
  h.u64(nl.num_nets()).u64(nl.num_gates());
  for (GateId g = 0; g < nl.num_gates(); ++g) {
    const Gate& gate = nl.gate(g);
    const int pins = nl.gate_num_inputs(g);
    h.u32(gate.cell).i32(pins);
    for (int p = 0; p < pins; ++p) h.u32(gate.fanin[static_cast<std::size_t>(p)]);
    h.u32(gate.fanout);
  }
  feed_nets(h, nl.inputs());
  for (std::size_t i = 0; i < nl.inputs().size(); ++i) h.str(nl.input_name(i));
  feed_nets(h, nl.outputs());
  for (std::size_t i = 0; i < nl.outputs().size(); ++i) h.str(nl.output_name(i));
  for (const std::string& name : sorted_names(nl.input_bus_names())) {
    h.str(name);
    feed_nets(h, nl.input_bus(name));
  }
  for (const std::string& name : sorted_names(nl.output_bus_names())) {
    h.str(name);
    feed_nets(h, nl.output_bus(name));
  }
}

inline bool pins_commute(LogicFn fn, int i, int j) {
  for (unsigned mask = 0; mask < 8; ++mask) {
    const unsigned bi = (mask >> i) & 1u;
    const unsigned bj = (mask >> j) & 1u;
    const unsigned swapped = (mask & ~((1u << i) | (1u << j))) | (bi << j) |
                             (bj << i);
    if (fn_eval(fn, mask) != fn_eval(fn, swapped)) return false;
  }
  return true;
}

/// How many leading pins of a `pins`-input `fn` are interchangeable: all
/// three of a symmetric 3-input function, the first two when only they
/// commute, else none.
inline int commuting_pins(LogicFn fn, int pins) {
  if (pins == 3 && pins_commute(fn, 0, 1) && pins_commute(fn, 1, 2)) return 3;
  if (pins >= 2 && pins_commute(fn, 0, 1)) return 2;
  return 0;
}

/// Digest that ignores gate and net numbering: each net is labelled by what
/// drives it (a constant, a named PI, or a cell over its fanin labels, with
/// interchangeable pins sorted), so two netlists that differ only in the
/// order their gates were emitted agree.
inline std::uint64_t renumbering_invariant_digest(const Netlist& nl) {
  std::vector<std::uint64_t> label(nl.num_nets(), 0);
  label[nl.const0()] = Hasher{}.str("const0").digest();
  label[nl.const1()] = Hasher{}.str("const1").digest();
  for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
    label[nl.inputs()[i]] = Hasher{}.str("pi").str(nl.input_name(i)).digest();
  }
  std::vector<std::uint64_t> gate_labels;
  for (const GateId g : nl.topo_order()) {
    const Gate& gate = nl.gate(g);
    const int pins = nl.gate_num_inputs(g);
    const LogicFn fn = nl.lib().cell(gate.cell).fn;
    std::vector<std::uint64_t> in;
    for (int p = 0; p < pins; ++p) {
      in.push_back(label[gate.fanin[static_cast<std::size_t>(p)]]);
    }
    std::sort(in.begin(), in.begin() + commuting_pins(fn, pins));
    Hasher h;
    h.u32(gate.cell);
    for (const std::uint64_t l : in) h.u64(l);
    label[gate.fanout] = h.digest();
    gate_labels.push_back(h.digest());
  }
  std::sort(gate_labels.begin(), gate_labels.end());
  Hasher h;
  h.u64(nl.num_nets());
  for (const std::uint64_t l : gate_labels) h.u64(l);
  for (std::size_t i = 0; i < nl.outputs().size(); ++i) {
    h.str(nl.output_name(i)).u64(label[nl.outputs()[i]]);
  }
  for (const std::string& name : sorted_names(nl.output_bus_names())) {
    for (const NetId n : nl.output_bus(name)) h.str(name).u64(label[n]);
  }
  return h.digest();
}

}  // namespace aapx
