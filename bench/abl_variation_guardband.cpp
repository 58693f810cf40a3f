// Ablation / extension — variation + aging guardbands and what precision
// reduction can absorb.
//
// Deployed guardbands cover process variation and aging together. Monte-Carlo
// statistical timing over lognormal per-gate variation quantifies each part
// for the IDCT multiplier, then the Eq. 2 sweep answers how many truncated
// bits cover the combined 99th-percentile corner.
#include <cstdio>
#include <iostream>

#include "common.hpp"
#include "sta/variation.hpp"

using namespace aapx;
using namespace aapx::bench;

namespace {

int run(int argc, char** argv) {
  print_banner("Extension — variation + aging guardband decomposition",
               "How much of the combined statistical guardband precision "
               "reduction can buy back.");
  BenchJson bench_json("abl_variation_guardband", argc, argv);
  Config cfg;
  const bool fast = fast_mode(argc, argv);
  const int dies = fast ? 60 : 250;
  const int width = 16;  // keeps the Monte-Carlo sweep quick

  const ComponentSpec spec{ComponentKind::multiplier, width, 0, AdderArch::cla4,
                           MultArch::array};
  const Netlist nl = make_component(bench_context(), cfg.lib, spec);
  const Sta sta(nl);
  const double nominal = sta.run_fresh().max_delay;
  const DegradationAwareLibrary aged(cfg.lib, cfg.model, 10.0);
  const StressProfile stress =
      StressProfile::uniform(StressMode::worst, nl.num_gates());
  const double aged_delay = sta.run_aged(aged, stress).max_delay;
  const MonteCarloSta mc(nl, {}, {}, &bench_context());

  const VariationResult fresh = mc.run_fresh(dies);
  const VariationResult worn = mc.run_aged(aged, stress, dies);
  std::printf("%s: nominal fresh STA %.1f ps (%d Monte-Carlo dies)\n\n",
              spec.name().c_str(), nominal, dies);
  TextTable parts({"guardband component", "p99 delay [ps]", "guardband [ps]",
                   "vs nominal"});
  parts.add_row({"variation only", TextTable::num(fresh.quantile(0.99), 1),
                 TextTable::num(fresh.guardband(nominal, 0.99), 1),
                 TextTable::pct(fresh.guardband(nominal, 0.99) / nominal)});
  parts.add_row({"aging only (10Y WC)", TextTable::num(aged_delay, 1),
                 TextTable::num(aged_delay - nominal, 1),
                 TextTable::pct((aged_delay - nominal) / nominal)});
  parts.add_row({"variation + aging", TextTable::num(worn.quantile(0.99), 1),
                 TextTable::num(worn.guardband(nominal, 0.99), 1),
                 TextTable::pct(worn.guardband(nominal, 0.99) / nominal)});
  parts.print(std::cout);

  // Eq. 2 against the combined p99 corner: find the truncation whose
  // combined-corner delay meets the nominal constraint.
  std::printf("\ntruncation sweep against the combined p99 corner:\n");
  TextTable sweep({"truncated bits", "p99 aged+var [ps]", "meets nominal?"});
  int required = -1;
  for (int k = 0; k <= 6; ++k) {
    ComponentSpec t = spec;
    t.truncated_bits = k;
    const Netlist tnl = make_component(bench_context(), cfg.lib, t);
    const StressProfile tstress =
        StressProfile::uniform(StressMode::worst, tnl.num_gates());
    const MonteCarloSta tmc(tnl, {}, {}, &bench_context());
    const double p99 = tmc.run_aged(aged, tstress, dies).quantile(0.99);
    const bool meets = p99 <= nominal;
    if (meets && required < 0) required = k;
    sweep.add_row({std::to_string(k), TextTable::num(p99, 1),
                   meets ? "yes" : "no"});
  }
  sweep.print(std::cout);
  if (required >= 0) {
    std::printf("\n%d truncated bits absorb the combined variation+aging "
                "guardband (aging alone needs fewer — variation widens the "
                "corner the approximation must cover).\n",
                required);
  } else {
    std::printf("\nthe sweep range does not cover the combined corner\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return aapx::bench::guarded_main(argc, argv,
                                   [&] { return run(argc, argv); });
}
