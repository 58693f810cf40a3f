// Paper Fig. 8a — IDCT delays: aging-unaware (original) design vs our
// aging-induced approximations, across Initial / 1Y WC / 10Y WC / 10Y AC.
// After the flow, the approximated design meets the fresh timing constraint
// in every aging case, i.e. no timing errors ever occur.
#include <cstdio>
#include <iostream>
#include <string>

#include "common.hpp"
#include "core/microarch.hpp"

using namespace aapx;
using namespace aapx::bench;

namespace {

int run(int argc, char** argv) {
  print_banner("Fig. 8a — IDCT delay, original vs aging-induced approximation",
               "The multiplier is the critical block; 3 truncated bits absorb "
               "10 years of worst-case aging (paper: rel. slack -8.3%, 3 bits).");
  BenchJson bench_json("fig8a_idct_delay", argc, argv);
  Config cfg;
  const bool fast = fast_mode(argc, argv);

  MicroarchSpec idct;
  idct.name = "idct32";
  idct.blocks = {
      {"mult", cfg.mult32(), false},
      {"acc", cfg.adder32(), false},
      {"clamp", cfg.clamp32(), false},
  };

  CharacterizerOptions copt;
  copt.min_precision = 24;
  MicroarchApproximator flow(bench_context(), cfg.lib, cfg.model, copt);
  FlowOptions fopt;
  fopt.scenario = {StressMode::worst, 10.0};
  const FlowResult plan = flow.run(idct, fopt);

  std::printf("timing constraint t_CP(noAging) = %.1f ps\n",
              plan.timing_constraint);
  bench_json.metric("timing_constraint_ps", plan.timing_constraint);
  TextTable blocks({"block", "fresh [ps]", "10Y WC aged [ps]", "rel. slack",
                    "chosen precision", "meets aged?"});
  for (const BlockPlan& b : plan.blocks) {
    blocks.add_row({b.spec.name, TextTable::num(b.fresh_delay, 1),
                    TextTable::num(b.aged_delay_full, 1),
                    TextTable::pct(b.rel_slack),
                    std::to_string(b.chosen_precision),
                    b.meets ? "yes" : "NO"});
    bench_json.metric(b.spec.name + "_chosen_precision", b.chosen_precision);
  }
  blocks.print(std::cout);
  std::printf("(paper: multiplier rel. slack -8.3%% after 10Y WC; 3-bit "
              "reduction suffices; other blocks keep full precision)\n\n");

  // Delay of both designs under every aging case of the figure.
  const Netlist original = make_component(bench_context(), cfg.lib, cfg.mult32());
  const Netlist approximated = flow.build_block(plan.blocks[0]);
  const StimulusSet idct_ops = record_idct_mult_stimulus(
      cfg, "akiyo", fast ? 24 : 48, fast ? 300 : 2000);

  TextTable table({"case", "original [ps]", "approx [ps]", "constraint met?"});
  const struct {
    const char* label;
    const char* key;  ///< BENCH json field stem
    AgingScenario scenario;
  } cases[] = {
      {"Initial", "initial", AgingScenario::fresh()},
      {"1Y (WC)", "1y_wc", {StressMode::worst, 1.0}},
      {"10Y (WC)", "10y_wc", {StressMode::worst, 10.0}},
      {"10Y (AC)", "10y_ac", {StressMode::measured, 10.0}},
  };
  for (const auto& c : cases) {
    const double d_orig =
        flow.characterizer().aged_delay(original, c.scenario, &idct_ops);
    const double d_approx =
        flow.characterizer().aged_delay(approximated, c.scenario, &idct_ops);
    table.add_row({c.label, TextTable::num(d_orig, 1),
                   TextTable::num(d_approx, 1),
                   d_approx <= plan.timing_constraint + 1e-6 ? "yes" : "NO"});
    bench_json.metric(std::string(c.key) + "_original_ps", d_orig);
    bench_json.metric(std::string(c.key) + "_approx_ps", d_approx);
  }
  table.print(std::cout);
  std::printf("(paper Fig. 8a: the approximated design fulfills the timing "
              "constraint in all aging cases -> no timing errors, only "
              "controlled approximations)\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return aapx::bench::guarded_main(argc, argv,
                                   [&] { return run(argc, argv); });
}
