// Netlist optimization passes.
//
// `optimize` plays the role of the paper's logic-synthesis optimization
// ("ultra compile"): it constant-propagates, simplifies partially-constant
// gates to smaller library cells, merges structurally identical gates (CSE)
// and drops logic not reachable from any output. It is what turns "tie the
// operand LSBs to zero" into an actually smaller and faster netlist — the
// mechanism behind the paper's precision-for-guardband trade.
//
// It is one forward pass plus, when needed, a compaction. Constant folding
// can orphan logic the pass already emitted, so its output may hold dead
// gates, but nothing else a second pass could remove: no BUF (a
// one-variable BUF becomes an alias), no constant fanin, and no two gates
// with equal canonical keys. A second pass would therefore only drop the
// dead gates and renumber the rest in the output's topo_order(); the
// compaction does that directly (re-sorting commutative pins under the new
// net ids) and counts as the second pass. Its output has no dead gate, so
// two passes always reach the fixpoint.
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
