// SDF (Standard Delay Format) export of annotated gate delays.
//
// The paper's flow runs "gate-level simulations of the analyzed circuit
// under aging" by handing the STA's aged delays to ModelSim as an .sdf file.
// This writer produces the same artifact from our STA (default StaOptions):
// one CELL entry per gate instance with IOPATH absolute delays per input
// pin, fresh or aged. Instance names match the Verilog writer's (g0, g1,
// ...), so the pair of files is a complete hand-off to an external
// simulator.
#pragma once

#include <iosfwd>
#include <string>

#include "aging/stress.hpp"
#include "cell/degradation.hpp"
#include "netlist/netlist.hpp"

namespace aapx {

/// Writes fresh delays; `design_name` fills the DESIGN entry.
void write_sdf(const Netlist& nl, std::ostream& os,
               const std::string& design_name);

/// Writes aged delays for the given degradation library and stress profile.
void write_aged_sdf(const Netlist& nl, const DegradationAwareLibrary& aged,
                    const StressProfile& stress, std::ostream& os,
                    const std::string& design_name);

}  // namespace aapx
