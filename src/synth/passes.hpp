// Netlist optimization passes.
//
// `optimize` plays the role of the paper's logic-synthesis optimization
// ("ultra compile"): it constant-propagates, simplifies partially-constant
// gates to smaller library cells, merges structurally identical gates (CSE)
// and drops logic not reachable from any output. It is what turns "tie the
// operand LSBs to zero" into an actually smaller and faster netlist — the
// mechanism behind the paper's precision-for-guardband trade.
#pragma once

#include "netlist/netlist.hpp"

namespace aapx {

class Context;

struct OptimizeResult {
  Netlist netlist;
  std::size_t gates_removed = 0;
};

/// Returns an optimized copy. Primary inputs (count, names, buses) are
/// preserved verbatim so component interfaces stay stable even when inputs
/// become dangling; outputs/buses are remapped onto the new nets.
/// Pass counters go to `ctx`'s metrics registry when given, else to the
/// process registry obs::metrics(); the netlist result is
/// context-independent.
OptimizeResult optimize(const Netlist& nl, const Context* ctx = nullptr);

}  // namespace aapx
