#include "cell/liberty.hpp"

#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace aapx {
namespace {

std::string fn_expression(LogicFn fn) {
  // Liberty boolean expression over pins A0, A1, A2 (pin i = Ai).
  switch (fn) {
    case LogicFn::kBuf: return "A0";
    case LogicFn::kInv: return "!A0";
    case LogicFn::kAnd2: return "(A0 A1)";
    case LogicFn::kNand2: return "!(A0 A1)";
    case LogicFn::kOr2: return "(A0+A1)";
    case LogicFn::kNor2: return "!(A0+A1)";
    case LogicFn::kXor2: return "(A0^A1)";
    case LogicFn::kXnor2: return "!(A0^A1)";
    case LogicFn::kAnd3: return "(A0 A1 A2)";
    case LogicFn::kNand3: return "!(A0 A1 A2)";
    case LogicFn::kOr3: return "(A0+A1+A2)";
    case LogicFn::kNor3: return "!(A0+A1+A2)";
    case LogicFn::kAoi21: return "!((A0 A1)+A2)";
    case LogicFn::kOai21: return "!((A0+A1) A2)";
    case LogicFn::kMux2: return "((A0 !A2)+(A1 A2))";
    case LogicFn::kMaj3: return "((A0 A1)+(A0 A2)+(A1 A2))";
  }
  return "A0";
}

std::string join(const std::vector<double>& values) {
  std::ostringstream os;
  os.precision(17);
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) os << ", ";
    os << values[i];
  }
  return os.str();
}

void write_table(std::ostream& os, const std::string& group,
                 const Table2D& table, double scale, const char* indent) {
  os << indent << group << " (delay_template) {\n";
  os << indent << "  values ( \\\n";
  const std::size_t rows = table.axis1().size();
  const std::size_t cols = table.axis2().size();
  for (std::size_t r = 0; r < rows; ++r) {
    os << indent << "    \"";
    for (std::size_t c = 0; c < cols; ++c) {
      if (c > 0) os << ", ";
      os << table.at(r, c) * scale;
    }
    os << '"' << (r + 1 == rows ? " \\" : ", \\") << '\n';
  }
  os << indent << "  );\n" << indent << "}\n";
}

void write_library(const CellLibrary& lib, std::ostream& os,
                   const DegradationAwareLibrary* aged, StressPair stress) {
  if (lib.size() == 0) throw std::invalid_argument("write_liberty: empty library");
  os.precision(17);  // lossless double round trip
  os << "library (aapx_nangate45_like) {\n";
  os << "  time_unit : \"1ps\";\n";
  os << "  capacitive_load_unit (1, ff);\n";
  os << "  leakage_power_unit : \"1nW\";\n";
  os << "  default_max_transition : 300;\n";

  // All arcs share the generator's characterization grid; emit it once.
  const Cell& first = lib.cell(0);
  const Table2D& proto = first.arc(0).rise_delay;
  os << "  lu_table_template (delay_template) {\n";
  os << "    variable_1 : input_net_transition;\n";
  os << "    variable_2 : total_output_net_capacitance;\n";
  os << "    index_1 (\"" << join(proto.axis1()) << "\");\n";
  os << "    index_2 (\"" << join(proto.axis2()) << "\");\n";
  os << "  }\n";

  for (CellId id = 0; id < lib.size(); ++id) {
    const Cell& cell = lib.cell(id);
    double rise_scale = 1.0;
    double fall_scale = 1.0;
    if (aged != nullptr) {
      rise_scale = aged->rise_factor(id, stress);
      fall_scale = aged->fall_factor(id, stress);
    }
    os << "  cell (" << cell.name << ") {\n";
    os << "    area : " << cell.area << ";\n";
    os << "    cell_leakage_power : " << cell.avg_leakage() << ";\n";
    os << "    aapx_function : " << to_string(cell.fn) << ";\n";
    os << "    aapx_drive : " << cell.drive << ";\n";
    os << "    aapx_aging_sensitivity : " << cell.aging_sensitivity << ";\n";
    {
      std::ostringstream states;
      states.precision(17);
      for (std::size_t s = 0; s < cell.leakage_per_state.size(); ++s) {
        if (s > 0) states << ", ";
        states << cell.leakage_per_state[s];
      }
      os << "    aapx_leakage_states : \"" << states.str() << "\";\n";
    }
    const int pins = cell.num_inputs();
    for (int p = 0; p < pins; ++p) {
      os << "    pin (A" << p << ") {\n";
      os << "      direction : input;\n";
      os << "      capacitance : " << cell.pin_cap << ";\n";
      os << "    }\n";
    }
    os << "    pin (Y) {\n";
    os << "      direction : output;\n";
    os << "      max_capacitance : " << cell.max_load << ";\n";
    os << "      function : \"" << fn_expression(cell.fn) << "\";\n";
    for (int p = 0; p < pins; ++p) {
      const TimingArc& arc = cell.arc(p);
      os << "      timing () {\n";
      os << "        related_pin : \"A" << p << "\";\n";
      write_table(os, "cell_rise", arc.rise_delay, rise_scale, "        ");
      write_table(os, "rise_transition", arc.rise_slew, rise_scale, "        ");
      write_table(os, "cell_fall", arc.fall_delay, fall_scale, "        ");
      write_table(os, "fall_transition", arc.fall_slew, fall_scale, "        ");
      os << "      }\n";
    }
    os << "    }\n";
    os << "  }\n";
  }
  os << "}\n";
}

}  // namespace

void write_liberty(const CellLibrary& lib, std::ostream& os) {
  write_library(lib, os, nullptr, kWorstCaseStress);
}

void write_aged_liberty(const DegradationAwareLibrary& aged, StressPair stress,
                        std::ostream& os) {
  write_library(aged.base(), os, &aged, stress);
}

}  // namespace aapx
