// Paper Fig. 8c — savings of aging-induced approximations over the
// state-of-the-art aging-aware synthesis baseline [4] on the IDCT's critical
// component: frequency, leakage power, dynamic power, energy and area
// (paper: +11% frequency, -14% leakage, -4% dynamic, -13% energy, -13% area).
//
// Baseline [4] hardens the netlist by gate upsizing until the aged critical
// path meets the original clock (drive-limited to X4 as real flows are by
// congestion/slew constraints, leaving a small residual guardband). Our flow
// instead trades 3 bits of multiplier precision, which *shrinks* the netlist.
#include <cstdio>
#include <iostream>

#include "common.hpp"
#include "core/characterizer.hpp"
#include "gatesim/timedsim.hpp"
#include "netlist/stats.hpp"
#include "power/power.hpp"
#include "synth/sizing.hpp"

using namespace aapx;
using namespace aapx::bench;

namespace {

struct DesignMetrics {
  double clock_ps;
  double area;
  PowerReport power;
};

DesignMetrics measure(const Netlist& nl, double clock_ps,
                      const StimulusSet& stim) {
  const Sta sta(nl);
  TimedSim sim(nl, sta.gate_delays(nullptr, nullptr));
  sim.clear_activity();
  for (const auto& row : stim.vectors) {
    for (std::size_t b = 0; b < stim.buses.size(); ++b) {
      sim.stage_bus(stim.buses[b], row[b]);
    }
    sim.step_staged(1e12);
  }
  PowerOptions popt;
  popt.num_registers = 3 * 32 + 64;  // operand and product boundary registers
  return {clock_ps, compute_stats(nl).cell_area,
          analyze_power(nl, sim.activity(), clock_ps, popt)};
}

}  // namespace

namespace {

int run(int argc, char** argv) {
  print_banner("Fig. 8c — savings vs aging-aware synthesis [4]",
               "Converting the guardband into precision reduces area and "
               "power instead of paying overhead for resilience.");
  BenchJson bench_json("fig8c_savings", argc, argv);
  Config cfg;
  const bool fast = fast_mode(argc, argv);

  const Netlist original = make_component(bench_context(), cfg.lib, cfg.mult32());
  const Sta sta(original);
  const double constraint = sta.run_fresh().max_delay;
  const DegradationAwareLibrary aged(cfg.lib, cfg.model, 10.0);
  const StressProfile stress =
      StressProfile::uniform(StressMode::worst, original.num_gates());

  // Baseline [4]: aging-aware gate sizing. The drive-limited variant (X4,
  // as congestion/slew constraints impose in real flows) retains a residual
  // guardband; the unconstrained variant (X8) removes it entirely at a
  // larger area/power cost. Both are printed; the savings table uses the
  // X4 variant, whose residual guardband is the source of the frequency
  // advantage the paper reports.
  SizingOptions sopt;
  sopt.max_drive = 4;
  const SizingResult sized =
      size_for_aging(original, aged, stress, constraint, sopt);
  const double baseline_clock = std::max(sized.aged_delay, constraint);
  const double residual_guardband = baseline_clock - constraint;
  const double area_overhead = compute_stats(sized.netlist).cell_area /
                                   compute_stats(original).cell_area -
                               1.0;
  std::printf("baseline [4], X4-limited: %d bumps, aged delay %.1f ps vs "
              "constraint %.1f ps -> residual guardband %.1f ps, area "
              "overhead %s\n",
              sized.upsized_gates, sized.aged_delay, constraint,
              residual_guardband, TextTable::pct(area_overhead).c_str());
  bench_json.metric("baseline_upsized_gates", sized.upsized_gates);
  bench_json.metric("baseline_residual_guardband_ps", residual_guardband);
  bench_json.metric("baseline_area_overhead", area_overhead);
  {
    SizingOptions s8;
    s8.max_drive = 8;
    const SizingResult sized8 =
        size_for_aging(original, aged, stress, constraint, s8);
    std::printf("baseline [4], X8 allowed:  %d bumps, aged delay %.1f ps -> "
                "guardband fully removed, area %.0f um^2\n",
                sized8.upsized_gates, sized8.aged_delay,
                compute_stats(sized8.netlist).cell_area);
  }

  // Ours: precision reduction from the approximation library.
  CharacterizerOptions copt;
  copt.min_precision = 26;
  const ComponentCharacterizer characterizer(bench_context(), cfg.lib,
                                             cfg.model, copt);
  const auto c = characterizer.characterize(cfg.mult32(),
                                            {{StressMode::worst, 10.0}});
  const int precision = c.required_precision(0);
  ComponentSpec approx_spec = cfg.mult32();
  approx_spec.truncated_bits = 32 - precision;
  const Netlist ours = make_component(bench_context(), cfg.lib, approx_spec);
  {
    const Sta asta(ours);
    const StressProfile astress =
        StressProfile::uniform(StressMode::worst, ours.num_gates());
    const double aged_ours = asta.run_aged(aged, astress).max_delay;
    std::printf("ours: %d-bit reduction, aged delay %.1f ps -> guardband "
                "removed (clock = fresh constraint)\n\n",
                32 - precision, aged_ours);
  }

  const StimulusSet stim = record_idct_mult_stimulus(
      cfg, "akiyo", fast ? 24 : 48, fast ? 400 : 2000);
  const DesignMetrics base = measure(sized.netlist, baseline_clock, stim);
  const DesignMetrics mine = measure(ours, constraint, stim);

  TextTable table({"metric", "baseline [4]", "ours", "saving", "paper"});
  const double f_gain = base.clock_ps / mine.clock_ps - 1.0;
  const double leakage_saving =
      1.0 - mine.power.leakage_nw / base.power.leakage_nw;
  const double dynamic_saving =
      1.0 - mine.power.dynamic_uw / base.power.dynamic_uw;
  const double energy_saving =
      1.0 - mine.power.energy_per_cycle_fj / base.power.energy_per_cycle_fj;
  const double area_saving = 1.0 - mine.area / base.area;
  table.add_row({"frequency [GHz]", TextTable::num(1000.0 / base.clock_ps, 3),
                 TextTable::num(1000.0 / mine.clock_ps, 3),
                 std::string("+").append(TextTable::pct(f_gain)), "+11%"});
  table.add_row({"leakage [nW]", TextTable::num(base.power.leakage_nw, 0),
                 TextTable::num(mine.power.leakage_nw, 0),
                 TextTable::pct(leakage_saving), "14%"});
  table.add_row({"dynamic [uW]", TextTable::num(base.power.dynamic_uw, 1),
                 TextTable::num(mine.power.dynamic_uw, 1),
                 TextTable::pct(dynamic_saving), "4%"});
  table.add_row(
      {"energy/op [fJ]", TextTable::num(base.power.energy_per_cycle_fj, 1),
       TextTable::num(mine.power.energy_per_cycle_fj, 1),
       TextTable::pct(energy_saving), "13%"});
  table.add_row({"area [um^2]", TextTable::num(base.area, 0),
                 TextTable::num(mine.area, 0),
                 TextTable::pct(area_saving), "13%"});
  table.print(std::cout);
  bench_json.metric("precision_bits_removed", 32 - precision);
  bench_json.metric("frequency_gain", f_gain);
  bench_json.metric("leakage_saving", leakage_saving);
  bench_json.metric("dynamic_saving", dynamic_saving);
  bench_json.metric("energy_saving", energy_saving);
  bench_json.metric("area_saving", area_saving);
  std::printf("\n(all savings normalized to the aging-aware synthesis "
              "baseline, as in paper Fig. 8c)\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return aapx::bench::guarded_main(argc, argv,
                                   [&] { return run(argc, argv); });
}
