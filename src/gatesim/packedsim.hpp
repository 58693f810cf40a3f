// Bit-parallel (64-lane) zero-delay functional simulation.
//
// Packs 64 independent stimulus vectors into one uint64_t per net — bit j of
// a net's word is the net's logic value in stimulus j — and evaluates each
// gate once per word with the bitwise form of its logic function (derived
// from the same fn_eval truth tables the scalar FuncSim uses). One pass over
// the topo order therefore simulates 64 vectors, which turns the inner loops
// of measured-stress extraction (measure_gate_duty) and error-bounds
// sampling from per-vector walks into per-word ones. PackedFuncSimTest pins
// it lane-exact against FuncSim on every component generator.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"

namespace aapx {

class PackedFuncSim {
 public:
  /// Stimulus vectors evaluated per eval() call.
  static constexpr int kLanes = 64;

  explicit PackedFuncSim(const Netlist& nl);

  /// Flushes per-instance statistics (evals, lane utilization) into the
  /// process metrics registry — one registry touch per sim lifetime.
  ~PackedFuncSim();

  PackedFuncSim(const PackedFuncSim&) = delete;
  PackedFuncSim& operator=(const PackedFuncSim&) = delete;

  /// Sets a primary input net's value in all 64 lanes at once
  /// (bit j = value in lane j).
  void set_input_lanes(NetId net, std::uint64_t lanes);

  /// Stages an input bus (LSB-first) from per-lane bus words: lane j takes
  /// the low bits of `lane_values[j]`. At most kLanes values; lanes beyond
  /// lane_values.size() are driven 0. Bus bits tied to constants (truncated
  /// LSBs) are left untouched, matching FuncSim::set_bus.
  void set_bus(const std::string& bus,
               std::span<const std::uint64_t> lane_values);

  /// Evaluates all gates in topological order, 64 lanes per gate.
  void eval();

  /// Lane word of one net (bit j = value in lane j).
  std::uint64_t lanes(NetId net) const;

  /// Reads an output bus in one lane back into a uint64 (width <= 64).
  std::uint64_t bus_value(const std::string& output_bus, int lane) const {
    return word_value(nl_->output_bus(output_bus), lane);
  }

  /// Reads any net collection as an LSB-first word in one lane.
  std::uint64_t word_value(const std::vector<NetId>& nets, int lane) const;

  /// Duty-extraction readout: for each nets[i], adds the number of lanes
  /// below `lane_limit` in which the net is high into sums[i].
  void add_high_popcounts(std::span<const NetId> nets, int lane_limit,
                          std::uint64_t* sums) const;

 private:
  /// Flattened gate record: logic function plus fanin/fanout nets, hoisted
  /// out of Netlist/CellLibrary once so eval() touches only flat arrays.
  struct PackedGate {
    std::array<NetId, 3> fanin;
    NetId fanout;
    LogicFn fn;
  };

  const Netlist* nl_;
  std::vector<PackedGate> gates_;     ///< in topological order
  std::vector<std::uint64_t> values_;  ///< per net, one bit per lane
  /// Lane-utilization accounting (plain members, flushed at destruction):
  /// evals_ counts eval() calls; lanes_used_ sums the staged lane count of
  /// the most recent set_bus before each eval (kLanes when inputs were set
  /// via set_input_lanes only — a full word is in flight either way).
  std::uint64_t evals_ = 0;
  std::uint64_t lanes_used_ = 0;
  int last_staged_lanes_ = kLanes;
};

}  // namespace aapx
