// Netlist bookkeeping: area and size summary.
#pragma once

#include <cstddef>

#include "netlist/netlist.hpp"

namespace aapx {

struct NetlistStats {
  std::size_t gates = 0;
  std::size_t nets = 0;
  std::size_t inputs = 0;
  std::size_t outputs = 0;
  double cell_area = 0.0;  ///< um^2, combinational cells only
};

NetlistStats compute_stats(const Netlist& nl);

/// Total area including `num_registers` boundary flip-flops.
double total_area(const Netlist& nl, std::size_t num_registers = 0);

}  // namespace aapx
