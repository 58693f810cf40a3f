#include "gatesim/packedsim.hpp"

#include <bit>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace aapx {
namespace {

/// Bitwise lane-parallel form of each logic function. Must match fn_eval
/// bit for bit; PackedFuncSimTest.EveryFunctionMatchesFnEval holds it to
/// that.
std::uint64_t eval_packed(LogicFn fn, std::uint64_t a, std::uint64_t b,
                          std::uint64_t c) {
  switch (fn) {
    case LogicFn::kBuf:   return a;
    case LogicFn::kInv:   return ~a;
    case LogicFn::kAnd2:  return a & b;
    case LogicFn::kNand2: return ~(a & b);
    case LogicFn::kOr2:   return a | b;
    case LogicFn::kNor2:  return ~(a | b);
    case LogicFn::kXor2:  return a ^ b;
    case LogicFn::kXnor2: return ~(a ^ b);
    case LogicFn::kAnd3:  return a & b & c;
    case LogicFn::kNand3: return ~(a & b & c);
    case LogicFn::kOr3:   return a | b | c;
    case LogicFn::kNor3:  return ~(a | b | c);
    case LogicFn::kAoi21: return ~((a & b) | c);
    case LogicFn::kOai21: return ~((a | b) & c);
    case LogicFn::kMux2:  return (c & b) | (~c & a);
    case LogicFn::kMaj3:  return (a & b) | (a & c) | (b & c);
  }
  throw std::logic_error("eval_packed: unknown logic function");
}

/// In-place transpose of a 64x64 bit matrix (m[i] bit j  <->  m[j] bit i):
/// set_bus turns 64 per-lane bus words into 64 per-bit lane words in ~6*64
/// word ops instead of 64*64 bit probes.
void transpose64(std::uint64_t m[64]) {
  // Recursive block swap (Hacker's Delight 7-3, LSB-first column
  // convention): at step j, swap the high-column half of rows k with the
  // low-column half of rows k + j.
  std::uint64_t msk = 0x00000000FFFFFFFFULL;
  for (int j = 32; j != 0; j >>= 1, msk ^= msk << j) {
    for (int k = 0; k < 64; k = (k + j + 1) & ~j) {
      const std::uint64_t t = ((m[k] >> j) ^ m[k + j]) & msk;
      m[k] ^= t << j;
      m[k + j] ^= t;
    }
  }
}

}  // namespace

PackedFuncSim::PackedFuncSim(const Netlist& nl)
    : nl_(&nl), values_(nl.num_nets(), 0) {
  values_[nl.const1()] = ~std::uint64_t{0};
  gates_.reserve(nl.num_gates());
  for (const GateId gid : nl.topo_order()) {
    const Gate& g = nl.gate(gid);
    PackedGate pg;
    // Unused fanin slots point at const0 so every gate can be evaluated as
    // 3-input without branching on pin count.
    for (std::size_t p = 0; p < pg.fanin.size(); ++p) {
      pg.fanin[p] = g.fanin[p] == kInvalidNet ? nl.const0() : g.fanin[p];
    }
    pg.fanout = g.fanout;
    pg.fn = nl.lib().cell(g.cell).fn;
    gates_.push_back(pg);
  }
}

PackedFuncSim::~PackedFuncSim() {
  static obs::Counter& evals = obs::metrics().counter("packedsim.evals");
  static obs::Counter& lanes = obs::metrics().counter("packedsim.lanes_used");
  evals.add(evals_);
  lanes.add(lanes_used_);
}

void PackedFuncSim::set_input_lanes(NetId net, std::uint64_t lanes) {
  if (nl_->driver(net) != kInvalidGate || nl_->is_constant(net)) {
    throw std::invalid_argument(
        "PackedFuncSim::set_input_lanes: net is not a primary input");
  }
  values_[net] = lanes;
}

void PackedFuncSim::set_bus(const std::string& bus,
                            std::span<const std::uint64_t> lane_values) {
  if (lane_values.size() > static_cast<std::size_t>(kLanes)) {
    throw std::invalid_argument(
        "PackedFuncSim::set_bus: more than 64 lane values");
  }
  last_staged_lanes_ = static_cast<int>(lane_values.size());
  const auto& nets = nl_->input_bus(bus);
  // Transpose the per-lane bus words into per-bit lane words, then scatter
  // row i into bit i's net. Lanes beyond lane_values.size() and bus bits
  // >= 64 transpose to zero rows, preserving the scalar semantics.
  std::uint64_t m[64];
  for (std::size_t lane = 0; lane < 64; ++lane) {
    m[lane] = lane < lane_values.size() ? lane_values[lane] : 0;
  }
  transpose64(m);
  for (std::size_t i = 0; i < nets.size(); ++i) {
    if (nl_->is_constant(nets[i])) continue;  // truncated LSBs stay const
    values_[nets[i]] = i < 64 ? m[i] : 0;
  }
}

void PackedFuncSim::eval() {
  ++evals_;
  lanes_used_ += static_cast<std::uint64_t>(last_staged_lanes_);
  std::uint64_t* const v = values_.data();
  for (const PackedGate& g : gates_) {
    v[g.fanout] =
        eval_packed(g.fn, v[g.fanin[0]], v[g.fanin[1]], v[g.fanin[2]]);
  }
}

std::uint64_t PackedFuncSim::lanes(NetId net) const {
  if (net >= values_.size()) throw std::out_of_range("PackedFuncSim::lanes");
  return values_[net];
}

std::uint64_t PackedFuncSim::word_value(const std::vector<NetId>& nets,
                                        int lane) const {
  if (nets.size() > 64) {
    throw std::invalid_argument("PackedFuncSim::word_value: bus too wide");
  }
  if (lane < 0 || lane >= kLanes) {
    throw std::out_of_range("PackedFuncSim::word_value: bad lane");
  }
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < nets.size(); ++i) {
    if ((values_[nets[i]] >> lane) & 1u) v |= std::uint64_t{1} << i;
  }
  return v;
}

void PackedFuncSim::add_high_popcounts(std::span<const NetId> nets,
                                       int lane_limit,
                                       std::uint64_t* sums) const {
  if (lane_limit < 0 || lane_limit > kLanes) {
    throw std::out_of_range(
        "PackedFuncSim::add_high_popcounts: bad lane limit");
  }
  const std::uint64_t mask = lane_limit == kLanes
                                 ? ~std::uint64_t{0}
                                 : (std::uint64_t{1} << lane_limit) - 1;
  for (std::size_t i = 0; i < nets.size(); ++i) {
    sums[i] +=
        static_cast<std::uint64_t>(std::popcount(values_[nets[i]] & mask));
  }
}

}  // namespace aapx
