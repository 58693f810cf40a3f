// Paper Fig. 2 — image quality collapse of a guardband-free DCT->IDCT chain
// under balanced aging: 45 dB fresh, ~18.5 dB after 1 year, ~8.4 dB after
// 10 years (useless image).
//
// Method: both transforms run through the gate-accurate timed backend
// (transport delays, the ModelSim-equivalent flow). The fresh pass bins the
// clock at the maximum settled time of the *consumed* output bits — the
// product window [frac, frac+32) that actually reaches the accumulator
// register. Aged delays then make individual multiplications sample stale
// values: rare but catastrophic (nondeterministic) errors that wreck PSNR.
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <iterator>
#include <string>

#include "common.hpp"
#include "image/synthetic.hpp"

using namespace aapx;
using namespace aapx::bench;

namespace {

int run(int argc, char** argv) {
  print_banner("Fig. 2 — DCT->IDCT quality collapse without a guardband",
               "Gate-level timed simulation of the full chain; PSNR falls "
               "from ~46 dB to unusable levels as the circuit ages.");
  BenchJson bench_json("fig2_quality_collapse", argc, argv);
  Config cfg;
  const int size = arg_int(argc, argv, "--size",
                           fast_mode(argc, argv) ? 16 : 24);
  // The frame size shapes every headline number (it sets the binned clock),
  // so it is a result field: a run checked at another size fails on it.
  bench_json.metric("size", size);
  const CodecConfig codec = cfg.codec();
  const Image img = make_video_trace_frame("akiyo", size, size);

  const Netlist mult = make_component(bench_context(), cfg.lib, cfg.mult32());
  const Netlist adder = make_component(bench_context(), cfg.lib, cfg.adder32());
  const ObservedWindow window{codec.frac_bits, codec.width};

  std::printf("image: akiyo %dx%d synthetic frame; transport-delay gate sim\n\n",
              size, size);

  // Fresh pass: functional reference + consumed-bit clock binning.
  double t_clock = 0.0;
  double fresh_psnr = 0.0;
  {
    TimedNetlistBackend be(
        mult, scenario_delays(cfg, mult, AgingScenario::fresh()), adder,
        scenario_delays(cfg, adder, AgingScenario::fresh()), codec.width, 1e12,
        DelayModel::transport, window, bench_context().cancel_token());
    FixedPointDct dct(codec, be);
    FixedPointIdct idct(codec, be);
    const Image out = idct.decode(dct.encode(img));
    t_clock = std::max(be.max_mult_settle(), be.max_add_settle());
    fresh_psnr = psnr(img, out);
    bench_json.add_events(be.mult_sim().events_processed() +
                          be.adder_sim().events_processed());
  }
  bench_json.metric("t_clock_ps", t_clock);
  bench_json.metric("psnr_fresh_db", fresh_psnr);

  TextTable table({"lifetime", "PSNR [dB]", "mult err [%]", "paper PSNR [dB]"});
  table.add_row({"0 Year (no aging)", TextTable::num(fresh_psnr, 1), "0.00",
                 "45"});
  const struct {
    AgingScenario scenario;
    const char* paper;
    const char* key;  ///< BENCH json field suffix
  } rows[] = {
      {{StressMode::balanced, 1.0}, "18.5", "balanced_1y"},
      {{StressMode::balanced, 10.0}, "8.4", "balanced_10y"},
  };
  // The aged passes share only t_clock and the netlists, so they run at the
  // same time; fields and rows are written afterwards in row order.
  struct RowResult {
    double psnr = 0.0;
    std::uint64_t mult_errors = 0, add_errors = 0, mult_ops = 0, events = 0;
  };
  RowResult results[std::size(rows)];
  bench_context().parallel_for(std::size(rows), [&](std::size_t i) {
    const AgingScenario& scenario = rows[i].scenario;
    TimedNetlistBackend be(mult, scenario_delays(cfg, mult, scenario), adder,
                           scenario_delays(cfg, adder, scenario), codec.width,
                           t_clock, DelayModel::transport, window,
                           bench_context().cancel_token());
    FixedPointDct dct(codec, be);
    FixedPointIdct idct(codec, be);
    const Image out = idct.decode(dct.encode(img));
    RowResult& r = results[i];
    r.psnr = psnr(img, out);
    r.mult_errors = be.mult_errors();
    r.add_errors = be.add_errors();
    r.mult_ops = be.mult_ops();
    r.events = be.mult_sim().events_processed() +
               be.adder_sim().events_processed();
  });
  for (std::size_t i = 0; i < std::size(rows); ++i) {
    const RowResult& r = results[i];
    const std::string key = rows[i].key;
    bench_json.metric("psnr_" + key + "_db", r.psnr);
    bench_json.metric("mult_errors_" + key, static_cast<double>(r.mult_errors));
    bench_json.metric("add_errors_" + key, static_cast<double>(r.add_errors));
    bench_json.add_events(r.events);
    table.add_row({rows[i].scenario.label(), TextTable::num(r.psnr, 1),
                   TextTable::num(100.0 * static_cast<double>(r.mult_errors) /
                                      static_cast<double>(r.mult_ops),
                                  2),
                   rows[i].paper});
  }
  std::printf("binned t_clock = %.0f ps over consumed product bits [%d, %d)\n",
              t_clock, window.lo, window.lo + window.count);
  table.print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return aapx::bench::guarded_main(argc, argv,
                                   [&] { return run(argc, argv); });
}
