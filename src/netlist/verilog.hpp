// Structural Verilog export of gate-level netlists.
//
// The synthesized netlists the flow produces are what a real project would
// hand to downstream tools (simulation, P&R) as structural Verilog. The
// writer emits a flat gate-level module over the library cells: bused
// input/output ports, one wire per gate output, cell instances g0, g1, ...
// with named connections (.A0, .A1, ..., .Y), 1'b0/1'b1 constants, and one
// assign per output bit. The flow never reads Verilog back.
#pragma once

#include <iosfwd>
#include <string>

#include "netlist/netlist.hpp"

namespace aapx {

/// Writes `nl` as a flat structural Verilog module.
void write_verilog(const Netlist& nl, std::ostream& os,
                   const std::string& module_name);

}  // namespace aapx
