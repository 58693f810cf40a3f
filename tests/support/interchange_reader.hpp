// Test-only reader of exactly what write_liberty/write_aged_liberty and
// write_verilog emit, line for line. It shares no code with the writers, so
// round trips check them against an independent reading. Anything else
// throws std::runtime_error.
#pragma once

#include <iosfwd>

#include "cell/library.hpp"
#include "netlist/netlist.hpp"

namespace aapx::test {
CellLibrary read_liberty(std::istream& is);
Netlist read_verilog(std::istream& is, const CellLibrary& lib);
}  // namespace aapx::test
