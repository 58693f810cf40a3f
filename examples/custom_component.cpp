// Custom component example: bring your own datapath to the aging flow.
//
//   build/examples/custom_component
//
// Builds a dot-product unit y = a*b + c*d (two multipliers + an adder) from
// the structural primitives, then pushes it through the same analyses the
// library applies to its built-in components: synthesis optimization, fresh
// and aged STA, timed simulation with error detection, and a manual
// truncation sweep implementing paper Eq. 2 for a component the library has
// never seen.
#include <cstdio>

#include "cell/degradation.hpp"
#include "cell/library.hpp"
#include "core/stimulus.hpp"
#include "gatesim/timedsim.hpp"
#include "netlist/stats.hpp"
#include "sta/sta.hpp"
#include "synth/arith.hpp"
#include "synth/passes.hpp"
#include "util/rng.hpp"

namespace {

/// Builds the dot-product netlist with `trunc` operand LSBs tied to zero.
aapx::Netlist build_dot2(const aapx::CellLibrary& lib, int width, int trunc) {
  using namespace aapx;
  Netlist nl(lib);
  Word ops[4];
  const char* names[4] = {"a", "b", "c", "d"};
  for (int i = 0; i < 4; ++i) {
    ops[i] = nl.add_input_bus(names[i], width);
    for (int k = 0; k < trunc; ++k) ops[i][static_cast<std::size_t>(k)] = nl.const0();
  }
  const Word p0 = build_multiplier(nl, ops[0], ops[1], MultArch::array);
  const Word p1 = build_multiplier(nl, ops[2], ops[3], MultArch::array);
  const Word sum = build_adder(nl, p0, p1, nl.const0(), AdderArch::cla4);
  nl.mark_output_bus(sum, "y");
  return optimize(nl).netlist;  // constant-propagate the tied LSBs away
}

}  // namespace

int main() {
  using namespace aapx;
  const CellLibrary lib = make_nangate45_like();
  const AgingModel aging;
  const int width = 12;

  const Netlist full = build_dot2(lib, width, 0);
  const Sta sta(full);
  const double constraint = sta.run_fresh().max_delay;
  std::printf("dot2 (y = a*b + c*d), %d-bit operands: %zu gates, %.0f um^2, "
              "fresh CP %.1f ps\n",
              width, full.num_gates(), compute_stats(full).cell_area, constraint);

  // Aged STA for 10 years of worst-case stress.
  const DegradationAwareLibrary aged(lib, aging, 10.0);
  const StressProfile stress =
      StressProfile::uniform(StressMode::worst, full.num_gates());
  const double aged_cp = sta.run_aged(aged, stress).max_delay;
  std::printf("10Y worst-case aged CP: %.1f ps (guardband %.1f ps)\n\n",
              aged_cp, aged_cp - constraint);

  // Paper Eq. 2 by hand: truncate until the aged variant meets the fresh CP.
  int chosen = -1;
  for (int k = 0; k < width; ++k) {
    const Netlist variant = build_dot2(lib, width, k);
    const Sta vsta(variant);
    const StressProfile vstress =
        StressProfile::uniform(StressMode::worst, variant.num_gates());
    const double aged_delay = vsta.run_aged(aged, vstress).max_delay;
    std::printf("  truncate %2d bits: %4zu gates, aged %.1f ps %s\n", k,
                variant.num_gates(), aged_delay,
                aged_delay <= constraint ? "<- meets fresh clock" : "");
    if (aged_delay <= constraint) {
      chosen = k;
      break;
    }
  }
  if (chosen < 0) {
    std::printf("no truncation level compensates the aging\n");
    return 1;
  }

  // Validate with the timed gate-level simulator: zero errors at the fresh
  // clock despite fully aged delays.
  const Netlist final_nl = build_dot2(lib, width, chosen);
  const Sta fsta(final_nl);
  const StressProfile fstress =
      StressProfile::uniform(StressMode::worst, final_nl.num_gates());
  TimedSim sim(final_nl, fsta.gate_delays(&aged, &fstress));
  Rng rng(11);
  const std::uint64_t mask = (std::uint64_t{1} << width) - 1;
  std::size_t errors = 0;
  const int vectors = 2000;
  for (int i = 0; i < vectors; ++i) {
    sim.stage_bus("a", rng.next_u64() & mask);
    sim.stage_bus("b", rng.next_u64() & mask);
    sim.stage_bus("c", rng.next_u64() & mask);
    sim.stage_bus("d", rng.next_u64() & mask);
    if (sim.step_staged(constraint)) ++errors;
  }
  std::printf("\nvalidation: %zu/%d timing errors at the fresh clock after 10 "
              "years of worst-case aging (must be 0)\n",
              errors, vectors);
  return errors == 0 ? 0 : 1;
}
