// Ablation (DESIGN.md) — how the adder architecture shapes the
// precision-for-aging trade. Truncation compensates aging only when the
// critical path shortens with width: ripple (linear) compensates easily, the
// blocked CLA (width/4 slope) matches the paper's 6/8-bit story, and the
// logarithmic Kogge-Stone barely responds to truncation at all — precision
// reduction cannot rescue a depth-balanced prefix adder.
#include <cstdio>
#include <iostream>

#include "common.hpp"
#include "core/characterizer.hpp"

using namespace aapx;
using namespace aapx::bench;

namespace {

int run(int argc, char** argv) {
  print_banner("Ablation — adder architecture vs required precision",
               "The paper's trade-off requires delay that scales with "
               "precision; architecture choice decides feasibility.");
  BenchJson bench_json("abl_adder_architecture", argc, argv);
  Config cfg;
  CharacterizerOptions copt;
  copt.min_precision = 16;
  const ComponentCharacterizer characterizer(bench_context(), cfg.lib,
                                             cfg.model, copt);

  TextTable table({"architecture", "fresh CP [ps]", "10Y WC aging",
                   "bits for 1Y WC", "bits for 10Y WC"});
  for (const AdderArch arch :
       {AdderArch::ripple, AdderArch::cla4, AdderArch::kogge_stone}) {
    ComponentSpec spec = cfg.adder32();
    spec.adder_arch = arch;
    const auto c = characterizer.characterize(
        spec, {{StressMode::worst, 1.0}, {StressMode::worst, 10.0}});
    const double fresh = c.full_fresh_delay();
    const double aging = c.points.front().aged_delay[1] / fresh - 1.0;
    const int k1 = c.required_precision(0);
    const int k10 = c.required_precision(1);
    table.add_row({to_string(arch), TextTable::num(fresh, 1),
                   std::string("+").append(TextTable::pct(aging)),
                   k1 > 0 ? std::to_string(32 - k1) : "unreachable",
                   k10 > 0 ? std::to_string(32 - k10) : "unreachable"});
  }
  table.print(std::cout);
  std::printf("\n(the characterized paper adder is the blocked CLA: 6 bits "
              "for 1 year, 8 for 10 years)\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return aapx::bench::guarded_main(argc, argv,
                                   [&] { return run(argc, argv); });
}
