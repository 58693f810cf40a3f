#include "support/interchange_reader.hpp"

#include <algorithm>
#include <istream>
#include <map>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace aapx::test {
namespace {

[[noreturn]] void fail(const std::string& what) { throw std::runtime_error("interchange reader: " + what); }

std::vector<std::string> split(const std::string& text, const std::string& sep) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  for (std::size_t at; (at = text.find(sep, start)) != std::string::npos; start = at + sep.size()) parts.push_back(text.substr(start, at - start));
  parts.push_back(text.substr(start));
  return parts;
}

struct Lines {
  std::vector<std::string> lines;
  std::size_t pos = 0;
  explicit Lines(std::istream& is) { for (std::string line; std::getline(is, line);) lines.push_back(line); }
  bool next_starts(const std::string& prefix) const { return pos < lines.size() && lines[pos].starts_with(prefix); }
  void expect_end() const { if (pos != lines.size()) fail("trailing '" + lines[pos] + "'"); }
  /// Consumes the next line, which must equal `pattern` with each "{}"
  /// standing for the text up to the literal after it; returns those texts.
  std::vector<std::string> take(const std::string& pattern) {
    if (pos == lines.size()) fail("input ends before '" + pattern + "'");
    const std::string& line = lines[pos++];
    const std::vector<std::string> literals = split(pattern, "{}");
    std::vector<std::string> holes;
    bool ok = line.starts_with(literals[0]);
    std::size_t at = literals[0].size();
    for (std::size_t i = 1; ok && i < literals.size(); ++i) {
      const std::string& lit = literals[i];  // the last one ends the line
      const std::size_t end = i + 1 == literals.size() ? line.size() - std::min(line.size(), lit.size()) : line.find(lit, at);
      ok = end != std::string::npos && end >= at && line.compare(end, lit.size(), lit) == 0;
      if (ok) holes.push_back(line.substr(at, end - at));
      at = end + lit.size();
    }
    if (!ok || at != line.size()) fail("expected '" + pattern + "', got '" + line + "'");
    return holes;
  }
};

double number(const std::string& text) {
  std::size_t used = 0;
  const double value = std::stod(text, &used);
  if (used != text.size() || text[0] == ' ') fail("bad number '" + text + "'");
  return value;
}

std::vector<double> numbers(const std::string& csv) {
  std::vector<double> values;
  for (const std::string& item : split(csv, ", ")) values.push_back(number(item));
  return values;
}

Cell read_cell(Lines& in, const std::vector<double>& axis1, const std::vector<double>& axis2) {
  Cell cell;
  cell.name = in.take("  cell ({}) {")[0];
  cell.area = number(in.take("    area : {};")[0]);
  (void)number(in.take("    cell_leakage_power : {};")[0]);  // mean of the states
  const std::string fn = in.take("    aapx_function : {};")[0];
  for (cell.fn = LogicFn::kBuf; to_string(cell.fn) != fn; cell.fn = static_cast<LogicFn>(static_cast<int>(cell.fn) + 1)) {
    if (cell.fn == LogicFn::kMaj3) fail("unknown function " + fn);
  }
  const std::string drive = in.take("    aapx_drive : {};")[0];
  if (std::to_string(cell.drive = std::stoi(drive)) != drive) fail("bad drive " + drive);
  cell.aging_sensitivity = number(in.take("    aapx_aging_sensitivity : {};")[0]);
  cell.leakage_per_state = numbers(in.take("    aapx_leakage_states : \"{}\";")[0]);
  if (cell.leakage_per_state.size() != std::size_t{1} << cell.num_inputs()) fail("leakage states of " + cell.name);
  for (int p = 0; p < cell.num_inputs(); ++p) {
    in.take("    pin (A" + std::to_string(p) + ") {");
    in.take("      direction : input;");
    cell.pin_cap = number(in.take("      capacitance : {};")[0]);
    in.take("    }");
  }
  in.take("    pin (Y) {");
  in.take("      direction : output;");
  cell.max_load = number(in.take("      max_capacitance : {};")[0]);
  in.take("      function : \"{}\";");
  for (int p = 0; p < cell.num_inputs(); ++p) {
    TimingArc& arc = cell.arcs.emplace_back(TimingArc{p, {}, {}, {}, {}});
    in.take("      timing () {");
    in.take("        related_pin : \"A" + std::to_string(p) + "\";");
    for (const auto& [group, table] : {std::pair{"cell_rise", &TimingArc::rise_delay}, {"rise_transition", &TimingArc::rise_slew},
                                       {"cell_fall", &TimingArc::fall_delay}, {"fall_transition", &TimingArc::fall_slew}}) {
      in.take("        " + std::string(group) + " (delay_template) {");
      in.take("          values ( \\");
      std::vector<double> values;
      for (std::size_t r = 0; r < axis1.size(); ++r) {
        const std::vector<double> row = numbers(in.take(r + 1 < axis1.size() ? "            \"{}\", \\" : "            \"{}\" \\")[0]);
        if (row.size() != axis2.size()) fail(std::string(group) + " row of the wrong width");
        values.insert(values.end(), row.begin(), row.end());
      }
      in.take("          );");
      in.take("        }");
      arc.*table = Table2D(axis1, axis2, std::move(values));
    }
    in.take("      }");
  }
  in.take("    }");
  in.take("  }");
  return cell;
}

}  // namespace

CellLibrary read_liberty(std::istream& is) try {
  Lines in(is);
  for (const char* line : {"library ({}) {", "  time_unit : \"1ps\";", "  capacitive_load_unit (1, ff);",
                           "  leakage_power_unit : \"1nW\";", "  default_max_transition : 300;",
                           "  lu_table_template (delay_template) {", "    variable_1 : input_net_transition;",
                           "    variable_2 : total_output_net_capacitance;"}) {
    in.take(line);
  }
  const std::vector<double> axis1 = numbers(in.take("    index_1 (\"{}\");")[0]);
  const std::vector<double> axis2 = numbers(in.take("    index_2 (\"{}\");")[0]);
  in.take("  }");
  CellLibrary lib;
  while (in.next_starts("  cell (")) lib.add(read_cell(in, axis1, axis2));
  in.take("}");
  in.expect_end();
  if (lib.size() == 0) fail("no cells");
  return lib;
} catch (const std::logic_error& e) {
  fail(e.what());
}

Netlist read_verilog(std::istream& is, const CellLibrary& lib) try {
  Lines in(is);
  const std::string header = in.take("module {});")[0];
  Netlist nl(lib);
  std::map<std::string, NetId> nets = {{"1'b0", nl.const0()}, {"1'b1", nl.const1()}};
  const auto bit = [](const std::string& port, int width, int i) { return width == 0 ? port : port + "[" + std::to_string(i) + "]"; };
  std::string ports;
  std::vector<std::pair<std::string, int>> outputs;  // name, width (0 = scalar)
  while (in.next_starts("  input ") || in.next_starts("  output ")) {
    const bool input = in.next_starts("  input ");
    const std::string decl = input ? "  input " : "  output ";
    const std::vector<std::string> f = in.take(decl + (in.next_starts(decl + "[") ? "[{}:0] {};" : "{};"));
    const std::string& name = f.back();
    const int width = f.size() == 2 ? std::stoi(f[0]) + 1 : 0;
    if (f.size() == 2 && (width < 1 || std::to_string(width - 1) != f[0])) fail("bad range of " + name);
    ports += (ports.empty() ? "" : ", ") + name;
    if (!input) outputs.emplace_back(name, width);
    const std::vector<NetId> bits = !input ? std::vector<NetId>{} : width == 0 ? std::vector{nl.add_input(name)} : nl.add_input_bus(name, width);
    for (std::size_t i = 0; i < bits.size(); ++i) nets[bit(name, width, static_cast<int>(i))] = bits[i];
  }
  if (!header.ends_with(" (" + ports)) fail("ports do not match declarations");
  for (const std::string& wire : in.next_starts("  wire ") ? split(in.take("  wire {};")[0], ", ") : std::vector<std::string>{}) {
    if (!nets.emplace(wire, nl.add_net()).second) fail("duplicate net " + wire);
  }
  while (!in.next_starts("  assign ") && !in.next_starts("endmodule")) {
    const std::string& line = in.lines.at(in.pos);
    const std::optional<CellId> cell = lib.find(line.substr(2, line.find(' ', 2) - 2));
    if (!cell) fail("bad instance '" + line + "'");
    std::string pattern = "  " + lib.cell(*cell).name + " g" + std::to_string(nl.num_gates()) + " (";
    for (int p = 0; p < lib.cell(*cell).num_inputs(); ++p) pattern += ".A" + std::to_string(p) + "({}), ";
    std::vector<NetId> pins;  // A0, A1, ..., then Y
    for (const std::string& net : in.take(pattern + ".Y({}));")) pins.push_back(nets.at(net));
    nl.add_gate_driving(*cell, std::span(pins).first(pins.size() - 1), pins.back());
  }
  // Output bits are assigned in declaration order: port by port, LSB first.
  for (const auto& [name, width] : outputs) {
    std::vector<NetId> bits;
    for (int i = 0; i < std::max(width, 1); ++i) bits.push_back(nets.at(in.take("  assign " + bit(name, width, i) + " = {};")[0]));
    width == 0 ? nl.mark_output(bits[0], name) : nl.mark_output_bus(bits, name);
  }
  in.take("endmodule");
  in.expect_end();
  return nl;
} catch (const std::logic_error& e) {
  fail(e.what());
}

}  // namespace aapx::test
