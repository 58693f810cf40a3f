// Paper Fig. 1 — percentage of erroneous outputs of the 32-bit adder and
// multiplier when the aging guardband is removed, under balanced (50%) and
// worst-case (100%) stress after 1 and 10 years.
//
// Method: each component runs at its speed-binned fresh clock (stand-in for
// the synthesis-reported Fmax; our structural STA carries conservative false
// paths, see EXPERIMENTS.md) while the event-driven gate-level simulator
// applies 10^6-scale normally distributed operand pairs through aged delays.
// An operation errs when the value sampled at the clock edge differs from
// the settled value. Every replay is chunked over the bench Context's
// workers (replay_timed), bit-identical to one serial pass.
#include <cstdio>
#include <iostream>
#include <string>

#include "common.hpp"

using namespace aapx;
using namespace aapx::bench;

namespace {

void run_component(BenchJson& bench_json, const Config& cfg,
                   const ComponentSpec& spec, double sigma, std::size_t vectors,
                   const char* paper_row) {
  const Netlist nl = make_component(bench_context(), cfg.lib, spec);
  const StimulusSet stim = make_normal_stimulus(spec.width, vectors, 42, sigma);
  const double t_clock =
      bin_fresh_clock(cfg, nl, stim, DelayModel::inertial);
  const double fresh_err = measure_error_rate(
      cfg, nl, stim, AgingScenario::fresh(), t_clock, DelayModel::inertial);
  const std::string component = paper_row;
  bench_json.metric("vectors_" + component, static_cast<double>(vectors));
  bench_json.metric("t_clock_ps_" + component, t_clock);
  bench_json.metric("err_pct_" + component + "_fresh", fresh_err * 100.0);

  TextTable table({"scenario", "errors [%]", "paper [%]"});
  table.add_row({"noAging (sanity)", TextTable::num(fresh_err * 100.0, 2), "0"});
  const char* paper_vals[4] = {nullptr, nullptr, nullptr, nullptr};
  // Paper Fig. 1 approximate bar heights.
  if (component == "adder") {
    paper_vals[0] = "~12";
    paper_vals[1] = "~15";
    paper_vals[2] = "20";
    paper_vals[3] = "28";
  } else {
    paper_vals[0] = "~2";
    paper_vals[1] = "~4";
    paper_vals[2] = "4";
    paper_vals[3] = "8";
  }
  int idx = 0;
  for (const AgingScenario& s : cfg.corners()) {
    const double err =
        measure_error_rate(cfg, nl, stim, s, t_clock, DelayModel::inertial);
    const std::string scenario =
        to_string(s.mode) + "_" + std::to_string(static_cast<int>(s.years));
    bench_json.metric("err_pct_" + component + "_" + scenario + "y",
                      err * 100.0);
    table.add_row({s.label(), TextTable::num(err * 100.0, 2), paper_vals[idx]});
    ++idx;
  }
  std::printf("%s (%s), binned t_clock = %.0f ps, %zu vectors, sigma = %.0f:\n",
              spec.name().c_str(), paper_row, t_clock, vectors, sigma);
  table.print(std::cout);
  std::printf("\n");
}

}  // namespace

namespace {

int run(int argc, char** argv) {
  print_banner("Fig. 1 — aging-induced timing errors at the removed guardband",
               "Errors grow with lifetime and stress; the adder suffers more "
               "than the multiplier (component-dependent aging).");
  BenchJson bench_json("fig1_component_errors", argc, argv);
  Config cfg;
  const bool fast = fast_mode(argc, argv);
  run_component(bench_json, cfg, cfg.adder32(), cfg.adder_sigma,
                fast ? 1200 : 6000, "adder");
  run_component(bench_json, cfg, cfg.mult32(), cfg.mult_sigma,
                fast ? 300 : 2000, "multiplier");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return aapx::bench::guarded_main(argc, argv,
                                   [&] { return run(argc, argv); });
}
