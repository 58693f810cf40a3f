// Gate-level netlist: the synthesized form of every RTL component.
//
// A netlist is a DAG of library gates over nets. Primary inputs and outputs
// are named and may be grouped into buses (LSB-first), which is how the
// arithmetic generators expose operands and results. Two constant nets
// (const0/const1) exist from construction; tying an input bus's LSBs to
// const0 is exactly the paper's precision-reduction mechanism, after which
// constant propagation shrinks the logic (see src/synth/passes).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "cell/library.hpp"

namespace aapx {

using NetId = std::uint32_t;
using GateId = std::uint32_t;
inline constexpr NetId kInvalidNet = static_cast<NetId>(-1);
inline constexpr GateId kInvalidGate = static_cast<GateId>(-1);

struct Gate {
  CellId cell = kInvalidCell;
  std::array<NetId, 3> fanin{kInvalidNet, kInvalidNet, kInvalidNet};
  NetId fanout = kInvalidNet;

  /// Connected input pins: the fanin slots before the first kInvalidNet
  /// sentinel. Equals the cell's pin count (add_gate_driving fills exactly
  /// that many), read without touching the CellLibrary.
  int num_inputs() const noexcept {
    int pins = 0;
    while (pins < static_cast<int>(fanin.size()) &&
           fanin[static_cast<std::size_t>(pins)] != kInvalidNet) {
      ++pins;
    }
    return pins;
  }
};

/// A (gate, pin) endpoint reading a net.
struct NetReader {
  GateId gate;
  int pin;
};

class Netlist {
 public:
  explicit Netlist(const CellLibrary& lib);

  const CellLibrary& lib() const noexcept { return *lib_; }

  // --- construction -------------------------------------------------------
  NetId add_net();
  NetId add_input(std::string name);
  std::vector<NetId> add_input_bus(const std::string& name, int width);
  void mark_output(NetId net, std::string name);
  void mark_output_bus(std::span<const NetId> nets, const std::string& name);

  /// Instantiates `cell`; returns the freshly created output net.
  NetId add_gate(CellId cell, std::span<const NetId> inputs);

  /// Instantiates `cell` driving an existing net. The net must be driverless
  /// and must not be a primary input or constant. For readers that know the
  /// wire names before they see the drivers.
  GateId add_gate_driving(CellId cell, std::span<const NetId> inputs,
                          NetId output);

  /// Convenience: instantiate the smallest cell implementing `fn`.
  NetId mk(LogicFn fn, NetId a);
  NetId mk(LogicFn fn, NetId a, NetId b);
  NetId mk(LogicFn fn, NetId a, NetId b, NetId c);

  NetId const0() const noexcept { return 0; }
  NetId const1() const noexcept { return 1; }
  bool is_constant(NetId net) const noexcept { return net <= 1; }

  // --- topology -----------------------------------------------------------
  std::size_t num_nets() const noexcept { return net_driver_.size(); }
  std::size_t num_gates() const noexcept { return gates_.size(); }
  const Gate& gate(GateId id) const {
    if (id >= gates_.size()) throw std::out_of_range("Netlist::gate");
    return gates_[id];
  }
  int gate_num_inputs(GateId id) const {
    return lib_->cell(gate(id).cell).num_inputs();
  }
  /// Every gate, indexed by GateId: for per-gate walks that index the array
  /// directly instead of range-checking each gate(id) call.
  std::span<const Gate> gates() const noexcept { return gates_; }

  /// Swaps a gate's cell for another implementation of the same function
  /// (drive-strength change). Topology is unchanged.
  void set_gate_cell(GateId id, CellId cell);

  /// Gate driving `net`, or kInvalidGate for PIs/constants.
  GateId driver(NetId net) const;
  /// Every (gate, pin) reading `net`, ascending by gate then pin. Built for
  /// all nets on the first call after construction, under the same guard as
  /// topo_order(); the span stays valid until the next construction call.
  std::span<const NetReader> readers(NetId net) const;

  const std::vector<NetId>& inputs() const noexcept { return inputs_; }
  const std::vector<NetId>& outputs() const noexcept { return outputs_; }

  /// Index of `net` within inputs(), or kInvalidNet if it is not a primary
  /// input. O(1): maintained at add_input time so bus staging in the
  /// simulators does not scan the PI list per bit.
  NetId pi_index(NetId net) const {
    return net < pi_index_.size() ? pi_index_[net] : kInvalidNet;
  }
  const std::string& input_name(std::size_t i) const { return input_names_[i]; }
  const std::string& output_name(std::size_t i) const { return output_names_[i]; }

  /// Input/output bus by name; throws if unknown. Nets are LSB-first.
  const std::vector<NetId>& input_bus(const std::string& name) const;
  const std::vector<NetId>& output_bus(const std::string& name) const;
  bool has_input_bus(const std::string& name) const;
  std::vector<std::string> input_bus_names() const;
  std::vector<std::string> output_bus_names() const;

  /// Registers an externally built bus grouping over existing input nets
  /// (used by transforms that rewrite bus members to constants).
  void set_input_bus(const std::string& name, std::vector<NetId> nets);

  /// Registers an output bus grouping without re-marking the member nets as
  /// outputs (they must already be marked via mark_output).
  void set_output_bus(const std::string& name, std::vector<NetId> nets);

  /// Gates in topological order (drivers before readers). Cached; invalidated
  /// by construction calls. Safe to call from concurrent readers, including
  /// the first call that fills the cache.
  const std::vector<GateId>& topo_order() const;

  /// Sum of pin capacitance of all readers of `net` [fF], plus a wire-cap
  /// estimate proportional to fanout count.
  double net_load(NetId net) const;

  /// Wire capacitance added per fanout pin [fF].
  static constexpr double kWireCapPerFanout = 0.35;

 private:
  const CellLibrary* lib_;
  std::vector<Gate> gates_;
  std::vector<GateId> net_driver_;
  std::vector<NetId> inputs_;
  std::vector<std::string> input_names_;
  std::vector<NetId> pi_index_;  ///< per net: index into inputs_ or kInvalidNet
  std::vector<NetId> outputs_;
  std::vector<std::string> output_names_;
  std::unordered_map<std::string, std::vector<NetId>> input_buses_;
  std::unordered_map<std::string, std::vector<NetId>> output_buses_;

  /// Lazily filled net readers (one CSR array over all nets) and
  /// topological order. Readers may race on the first fill (per-chunk
  /// simulators on one shared netlist), so each fill is guarded; once a fill
  /// is published its flag is set, and later calls skip the lock. Copies and
  /// moves carry the contents, never the lock.
  struct TopoCache {
    TopoCache() = default;
    TopoCache(const TopoCache& other) { *this = other; }
    TopoCache(TopoCache&& other) noexcept { *this = std::move(other); }
    TopoCache& operator=(const TopoCache& other);
    TopoCache& operator=(TopoCache&& other) noexcept;
    /// Construction calls only: a netlist being built has no readers.
    void clear() noexcept;

    mutable std::mutex mutex;  ///< guards both fills
    /// Set last by each fill, so readers() and topo_order() can skip the
    /// lock (acquire load) once their contents are published.
    std::atomic<bool> readers_valid{false};
    std::vector<std::uint32_t> reader_begin;  ///< per net, plus the end
    std::vector<NetReader> readers;
    std::atomic<bool> order_valid{false};
    std::vector<GateId> order;
  };
  mutable TopoCache topo_;

  /// Builds topo_'s reader CSR if it is stale; the caller holds topo_.mutex.
  void fill_readers() const;
  /// `net`'s run of the reader CSR, which must be filled.
  std::span<const NetReader> reader_run(NetId net) const;
};

}  // namespace aapx
