#include "netlist/verilog.hpp"

#include <algorithm>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace aapx {
namespace {

/// Splits "a[3]" into ("a", 3); returns index -1 for scalar names.
std::pair<std::string, int> split_indexed(const std::string& name) {
  const std::size_t lb = name.find('[');
  if (lb == std::string::npos || name.back() != ']') return {name, -1};
  return {name.substr(0, lb),
          std::stoi(name.substr(lb + 1, name.size() - lb - 2))};
}

std::string net_ref(const Netlist& nl, NetId net,
                    const std::map<NetId, std::string>& pi_names) {
  if (net == nl.const0()) return "1'b0";
  if (net == nl.const1()) return "1'b1";
  const auto it = pi_names.find(net);
  if (it != pi_names.end()) return it->second;
  std::string ref = "n";
  ref += std::to_string(net);
  return ref;
}

}  // namespace

void write_verilog(const Netlist& nl, std::ostream& os,
                   const std::string& module_name) {
  std::map<NetId, std::string> pi_names;
  for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
    pi_names[nl.inputs()[i]] = nl.input_name(i);
  }

  // Ports: group bused names, keep declaration order stable.
  std::vector<std::string> port_order;
  std::map<std::string, int> port_width;  // name -> width (0 = scalar)
  auto note_port = [&](const std::string& full_name) {
    const auto [base, index] = split_indexed(full_name);
    if (port_width.find(base) == port_width.end()) {
      port_order.push_back(base);
      port_width[base] = 0;
    }
    if (index >= 0) {
      port_width[base] = std::max(port_width[base], index + 1);
    }
  };
  std::vector<std::string> input_bases;
  for (std::size_t i = 0; i < nl.inputs().size(); ++i) note_port(nl.input_name(i));
  input_bases = port_order;
  for (std::size_t i = 0; i < nl.outputs().size(); ++i) note_port(nl.output_name(i));

  os << "module " << module_name << " (";
  for (std::size_t i = 0; i < port_order.size(); ++i) {
    os << (i > 0 ? ", " : "") << port_order[i];
  }
  os << ");\n";
  for (const std::string& base : port_order) {
    const bool is_input =
        std::find(input_bases.begin(), input_bases.end(), base) !=
        input_bases.end();
    os << "  " << (is_input ? "input" : "output");
    if (port_width[base] > 0) os << " [" << port_width[base] - 1 << ":0]";
    os << ' ' << base << ";\n";
  }

  if (nl.num_gates() > 0) {
    os << "  wire";
    bool first = true;
    for (std::size_t g = 0; g < nl.num_gates(); ++g) {
      const NetId out = nl.gate(static_cast<GateId>(g)).fanout;
      os << (first ? " " : ", ") << "n" << out;
      first = false;
    }
    os << ";\n";
  }

  for (std::size_t g = 0; g < nl.num_gates(); ++g) {
    const Gate& gate = nl.gate(static_cast<GateId>(g));
    const Cell& cell = nl.lib().cell(gate.cell);
    os << "  " << cell.name << " g" << g << " (";
    for (int p = 0; p < cell.num_inputs(); ++p) {
      os << ".A" << p << '('
         << net_ref(nl, gate.fanin[static_cast<std::size_t>(p)], pi_names)
         << "), ";
    }
    os << ".Y(n" << gate.fanout << "));\n";
  }

  for (std::size_t i = 0; i < nl.outputs().size(); ++i) {
    os << "  assign " << nl.output_name(i) << " = "
       << net_ref(nl, nl.outputs()[i], pi_names) << ";\n";
  }
  os << "endmodule\n";
}

}  // namespace aapx
