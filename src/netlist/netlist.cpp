#include "netlist/netlist.hpp"

#include <stdexcept>
#include <utility>

namespace aapx {

Netlist::Netlist(const CellLibrary& lib) : lib_(&lib) {
  // Nets 0 and 1 are the constant-0 and constant-1 rails.
  add_net();
  add_net();
}

NetId Netlist::add_net() {
  net_driver_.push_back(kInvalidGate);
  pi_index_.push_back(kInvalidNet);
  topo_.clear();
  return static_cast<NetId>(net_driver_.size() - 1);
}

NetId Netlist::add_input(std::string name) {
  const NetId net = add_net();
  pi_index_[net] = static_cast<NetId>(inputs_.size());
  inputs_.push_back(net);
  input_names_.push_back(std::move(name));
  return net;
}

std::vector<NetId> Netlist::add_input_bus(const std::string& name, int width) {
  if (width <= 0) throw std::invalid_argument("add_input_bus: width must be > 0");
  std::vector<NetId> bus;
  bus.reserve(static_cast<std::size_t>(width));
  for (int i = 0; i < width; ++i) {
    bus.push_back(add_input(name + "[" + std::to_string(i) + "]"));
  }
  input_buses_[name] = bus;
  return bus;
}

void Netlist::mark_output(NetId net, std::string name) {
  if (net >= num_nets()) throw std::out_of_range("mark_output: bad net");
  outputs_.push_back(net);
  output_names_.push_back(std::move(name));
}

void Netlist::mark_output_bus(std::span<const NetId> nets, const std::string& name) {
  std::vector<NetId> bus(nets.begin(), nets.end());
  for (std::size_t i = 0; i < bus.size(); ++i) {
    mark_output(bus[i], name + "[" + std::to_string(i) + "]");
  }
  output_buses_[name] = std::move(bus);
}

NetId Netlist::add_gate(CellId cell, std::span<const NetId> ins) {
  const NetId out = add_net();
  add_gate_driving(cell, ins, out);
  return out;
}

GateId Netlist::add_gate_driving(CellId cell, std::span<const NetId> ins,
                                 NetId output) {
  const Cell& c = lib_->cell(cell);
  const int pins = c.num_inputs();
  if (static_cast<int>(ins.size()) != pins) {
    throw std::invalid_argument("add_gate: pin count mismatch for " + c.name);
  }
  if (output >= num_nets() || is_constant(output)) {
    throw std::invalid_argument("add_gate_driving: bad output net");
  }
  if (net_driver_[output] != kInvalidGate) {
    throw std::invalid_argument("add_gate_driving: output already driven");
  }
  if (pi_index_[output] != kInvalidNet) {
    throw std::invalid_argument("add_gate_driving: output is a primary input");
  }
  Gate g;
  g.cell = cell;
  for (int p = 0; p < pins; ++p) {
    if (ins[static_cast<std::size_t>(p)] >= num_nets()) {
      throw std::out_of_range("add_gate: unknown input net");
    }
    g.fanin[static_cast<std::size_t>(p)] = ins[static_cast<std::size_t>(p)];
  }
  g.fanout = output;
  const auto gid = static_cast<GateId>(gates_.size());
  gates_.push_back(g);
  net_driver_[output] = gid;
  topo_.clear();
  return gid;
}

NetId Netlist::mk(LogicFn fn, NetId a) {
  const NetId ins[] = {a};
  return add_gate(lib_->smallest(fn), ins);
}
NetId Netlist::mk(LogicFn fn, NetId a, NetId b) {
  const NetId ins[] = {a, b};
  return add_gate(lib_->smallest(fn), ins);
}
NetId Netlist::mk(LogicFn fn, NetId a, NetId b, NetId c) {
  const NetId ins[] = {a, b, c};
  return add_gate(lib_->smallest(fn), ins);
}

void Netlist::set_gate_cell(GateId id, CellId cell) {
  if (id >= gates_.size()) throw std::out_of_range("Netlist::set_gate_cell");
  if (lib_->cell(cell).fn != lib_->cell(gates_[id].cell).fn) {
    throw std::invalid_argument(
        "Netlist::set_gate_cell: replacement implements a different function");
  }
  gates_[id].cell = cell;
}

GateId Netlist::driver(NetId net) const {
  if (net >= num_nets()) throw std::out_of_range("Netlist::driver");
  return net_driver_[net];
}

std::span<const NetReader> Netlist::readers(NetId net) const {
  if (net >= num_nets()) throw std::out_of_range("Netlist::readers");
  if (!topo_.readers_valid.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(topo_.mutex);
    fill_readers();
  }
  return reader_run(net);
}

std::span<const NetReader> Netlist::reader_run(NetId net) const {
  const std::uint32_t begin = topo_.reader_begin[net];
  return {topo_.readers.data() + begin, topo_.reader_begin[net + 1] - begin};
}

void Netlist::fill_readers() const {
  if (topo_.readers_valid.load(std::memory_order_relaxed)) return;
  // Counting sort by input net. Placing the readers from the last gate and
  // pin backwards leaves each net's run ascending by (gate, pin), and leaves
  // begin[n] at the start of net n's run.
  std::vector<std::uint32_t> begin(num_nets() + 1, 0);
  for (const Gate& g : gates_) {
    const int pins = g.num_inputs();
    for (int p = 0; p < pins; ++p) ++begin[g.fanin[static_cast<std::size_t>(p)]];
  }
  std::uint32_t total = 0;
  for (std::uint32_t& b : begin) {
    total += b;
    b = total;
  }
  std::vector<NetReader> readers(total);
  for (std::size_t g = gates_.size(); g-- > 0;) {
    const Gate& gate = gates_[g];
    for (int p = gate.num_inputs(); p-- > 0;) {
      readers[--begin[gate.fanin[static_cast<std::size_t>(p)]]] = {
          static_cast<GateId>(g), p};
    }
  }
  topo_.reader_begin = std::move(begin);
  topo_.readers = std::move(readers);
  topo_.readers_valid.store(true, std::memory_order_release);
}

const std::vector<NetId>& Netlist::input_bus(const std::string& name) const {
  const auto it = input_buses_.find(name);
  if (it == input_buses_.end()) {
    throw std::out_of_range("Netlist::input_bus: unknown bus " + name);
  }
  return it->second;
}

const std::vector<NetId>& Netlist::output_bus(const std::string& name) const {
  const auto it = output_buses_.find(name);
  if (it == output_buses_.end()) {
    throw std::out_of_range("Netlist::output_bus: unknown bus " + name);
  }
  return it->second;
}

bool Netlist::has_input_bus(const std::string& name) const {
  return input_buses_.count(name) != 0;
}

std::vector<std::string> Netlist::input_bus_names() const {
  std::vector<std::string> names;
  names.reserve(input_buses_.size());
  for (const auto& [name, nets] : input_buses_) names.push_back(name);
  return names;
}

std::vector<std::string> Netlist::output_bus_names() const {
  std::vector<std::string> names;
  names.reserve(output_buses_.size());
  for (const auto& [name, nets] : output_buses_) names.push_back(name);
  return names;
}

void Netlist::set_input_bus(const std::string& name, std::vector<NetId> nets) {
  input_buses_[name] = std::move(nets);
}

void Netlist::set_output_bus(const std::string& name, std::vector<NetId> nets) {
  output_buses_[name] = std::move(nets);
}

Netlist::TopoCache& Netlist::TopoCache::operator=(const TopoCache& other) {
  if (this == &other) return *this;
  std::lock_guard<std::mutex> lock(other.mutex);
  reader_begin = other.reader_begin;
  readers = other.readers;
  readers_valid.store(other.readers_valid.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
  order = other.order;
  order_valid.store(other.order_valid.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
  return *this;
}

Netlist::TopoCache& Netlist::TopoCache::operator=(TopoCache&& other) noexcept {
  if (this == &other) return *this;
  std::lock_guard<std::mutex> lock(other.mutex);
  reader_begin = std::move(other.reader_begin);
  readers = std::move(other.readers);
  readers_valid.store(other.readers_valid.exchange(false),
                      std::memory_order_relaxed);
  order = std::move(other.order);
  order_valid.store(other.order_valid.exchange(false),
                    std::memory_order_relaxed);
  return *this;
}

void Netlist::TopoCache::clear() noexcept {
  readers_valid.store(false, std::memory_order_relaxed);
  reader_begin.clear();
  readers.clear();
  order_valid.store(false, std::memory_order_relaxed);
  order.clear();
}

const std::vector<GateId>& Netlist::topo_order() const {
  if (topo_.order_valid.load(std::memory_order_acquire)) return topo_.order;
  std::lock_guard<std::mutex> lock(topo_.mutex);
  if (topo_.order_valid.load(std::memory_order_relaxed)) return topo_.order;
  fill_readers();
  std::vector<int> pending(gates_.size(), 0);
  std::vector<GateId> ready;
  for (std::size_t g = 0; g < gates_.size(); ++g) {
    int unresolved = 0;
    const int pins = gates_[g].num_inputs();
    for (int p = 0; p < pins; ++p) {
      const NetId in = gates_[g].fanin[static_cast<std::size_t>(p)];
      if (net_driver_[in] != kInvalidGate) ++unresolved;
    }
    pending[g] = unresolved;
    if (unresolved == 0) ready.push_back(static_cast<GateId>(g));
  }
  std::vector<GateId> order;
  order.reserve(gates_.size());
  for (std::size_t head = 0; head < ready.size(); ++head) {
    const GateId g = ready[head];
    order.push_back(g);
    for (const NetReader& r : reader_run(gates_[g].fanout)) {
      if (--pending[r.gate] == 0) ready.push_back(r.gate);
    }
  }
  if (order.size() != gates_.size()) {
    throw std::logic_error("Netlist::topo_order: combinational cycle detected");
  }
  topo_.order = std::move(order);
  topo_.order_valid.store(true, std::memory_order_release);
  return topo_.order;
}

double Netlist::net_load(NetId net) const {
  const std::span<const NetReader> rs = readers(net);
  double load = kWireCapPerFanout * static_cast<double>(rs.size());
  for (const NetReader& r : rs) {
    load += lib_->cell(gates_[r.gate].cell).pin_cap;
  }
  return load;
}

}  // namespace aapx
