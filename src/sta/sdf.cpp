#include "sta/sdf.hpp"

#include <ostream>

#include "sta/sta.hpp"

namespace aapx {
namespace {

void write_file(const Netlist& nl, const DegradationAwareLibrary* aged,
                const StressProfile* stress, std::ostream& os,
                const std::string& design_name) {
  const Sta::GateDelays gd = Sta(nl).gate_delays(aged, stress);

  os << "(DELAYFILE\n";
  os << "  (SDFVERSION \"3.0\")\n";
  os << "  (DESIGN \"" << design_name << "\")\n";
  os << "  (TIMESCALE 1ps)\n";
  for (std::size_t g = 0; g < nl.num_gates(); ++g) {
    const auto gid = static_cast<GateId>(g);
    const Gate& gate = nl.gate(gid);
    const Cell& cell = nl.lib().cell(gate.cell);
    os << "  (CELL\n";
    os << "    (CELLTYPE \"" << cell.name << "\")\n";
    os << "    (INSTANCE g" << g << ")\n";
    os << "    (DELAY (ABSOLUTE\n";
    for (int p = 0; p < cell.num_inputs(); ++p) {
      // The simulator's per-gate delay model assigns one rise/fall pair per
      // gate (worst arc at the real load); every IOPATH carries it.
      os << "      (IOPATH A" << p << " Y (" << gd.rise[gid] << ") ("
         << gd.fall[gid] << "))\n";
    }
    os << "    ))\n";
    os << "  )\n";
  }
  os << ")\n";
}

}  // namespace

void write_sdf(const Netlist& nl, std::ostream& os,
               const std::string& design_name) {
  write_file(nl, nullptr, nullptr, os, design_name);
}

void write_aged_sdf(const Netlist& nl, const DegradationAwareLibrary& aged,
                    const StressProfile& stress, std::ostream& os,
                    const std::string& design_name) {
  write_file(nl, &aged, &stress, os, design_name);
}

}  // namespace aapx
