// Ablation (DESIGN.md) — sensitivity of the required precision reduction to
// the BTI model constants: the time-power-law exponent n and the dVth
// prefactor magnitude. The qualitative conclusion (a few bits absorb a
// decade of aging) is stable across the physically plausible range.
#include <cstdio>
#include <iostream>

#include "common.hpp"
#include "core/characterizer.hpp"

using namespace aapx;
using namespace aapx::bench;

namespace {

int run(int argc, char** argv) {
  print_banner("Ablation — BTI model sensitivity",
               "Required adder/multiplier precision reduction for 10Y WC "
               "across aging-model parameter variations.");
  BenchJson bench_json("abl_aging_model", argc, argv);
  Config cfg;

  TextTable table({"time exp n", "dVth scale", "adder bits", "mult bits",
                   "adder aging", "mult aging"});
  for (const double n : {0.12, 0.16, 0.20}) {
    for (const double scale : {0.8, 1.0, 1.2}) {
      AgingParams params;
      params.bti.time_exponent = n;
      params.bti.a_pmos *= scale;
      params.bti.a_nmos *= scale;
      const AgingModel model(params);
      CharacterizerOptions aopt;
      aopt.min_precision = 20;
      const ComponentCharacterizer acharacterizer(bench_context(), cfg.lib,
                                                  model, aopt);
      const auto adder = acharacterizer.characterize(
          cfg.adder32(), {{StressMode::worst, 10.0}});
      CharacterizerOptions mopt;
      mopt.min_precision = 26;  // the multiplier never needs more than 6 bits
      const ComponentCharacterizer mcharacterizer(bench_context(), cfg.lib,
                                                  model, mopt);
      const auto mult = mcharacterizer.characterize(
          cfg.mult32(), {{StressMode::worst, 10.0}});
      const int ka = adder.required_precision(0);
      const int km = mult.required_precision(0);
      // Full-precision 10 y delay increase, as "+x.y%".
      const auto aging = [](const auto& surface) {
        return std::string("+").append(TextTable::pct(
            surface.points.front().aged_delay[0] / surface.full_fresh_delay() -
            1.0));
      };
      table.add_row(
          {TextTable::num(n, 2), TextTable::num(scale, 1),
           ka > 0 ? std::to_string(32 - ka) : "unreachable",
           km > 0 ? std::to_string(32 - km) : "unreachable",
           aging(adder), aging(mult)});
    }
  }
  table.print(std::cout);
  std::printf("\n(calibrated defaults: n = 0.16, scale = 1.0 -> 8 adder bits, "
              "3 multiplier bits)\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return aapx::bench::guarded_main(argc, argv,
                                   [&] { return run(argc, argv); });
}
