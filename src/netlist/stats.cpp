#include "netlist/stats.hpp"

namespace aapx {

NetlistStats compute_stats(const Netlist& nl) {
  NetlistStats stats;
  stats.gates = nl.num_gates();
  stats.nets = nl.num_nets();
  stats.inputs = nl.inputs().size();
  stats.outputs = nl.outputs().size();
  for (const Gate& g : nl.gates()) {
    stats.cell_area += nl.lib().cell(g.cell).area;
  }
  return stats;
}

double total_area(const Netlist& nl, std::size_t num_registers) {
  return compute_stats(nl).cell_area +
         nl.lib().dff().area * static_cast<double>(num_registers);
}

}  // namespace aapx
