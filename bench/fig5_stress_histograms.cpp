// Paper Fig. 5 — stress-factor histograms under actual-case aging for
// (a) normally distributed inputs and (b) inputs extracted from an IDCT.
//
// The two distributions being nearly identical is what licenses
// application-independent characterization with artificial stimuli
// (paper Sec. IV, "Sufficiency of considering normal distribution").
#include <cstdio>
#include <iostream>

#include "common.hpp"
#include "util/rng.hpp"
#include "image/synthetic.hpp"
#include "util/stats.hpp"

using namespace aapx;
using namespace aapx::bench;

namespace {

Histogram stress_histogram(const Netlist& nl, const StimulusSet& stim) {
  Histogram hist(0.0, 100.0, 50);  // 2% bins as in the paper
  for (const double duty :
       measure_gate_duty(nl, stim, bench_context().num_threads())) {
    // pMOS NBTI stress factor = output duty cycle (fraction of time high).
    hist.add(duty * 100.0);
  }
  return hist;
}

void print_histogram(const char* title, const Histogram& h) {
  std::printf("%s (one entry per gate, %zu gates)\n", title, h.total());
  std::size_t peak = 1;
  for (std::size_t b = 0; b < h.bins(); ++b) peak = std::max(peak, h.count(b));
  for (std::size_t b = 0; b < h.bins(); ++b) {
    if (h.count(b) == 0) continue;
    const int bar = static_cast<int>(50.0 * static_cast<double>(h.count(b)) /
                                     static_cast<double>(peak));
    std::printf("  S=%5.1f%% |%-50s| %zu\n", h.bin_center(b),
                std::string(static_cast<std::size_t>(bar), '#').c_str(),
                h.count(b));
  }
  std::printf("\n");
}

}  // namespace

namespace {

int run(int argc, char** argv) {
  print_banner("Fig. 5 — actual-case stress factors: ND vs IDCT stimuli",
               "Similar stress distributions -> similar aged delays -> "
               "artificial inputs suffice for characterization.");
  BenchJson bench_json("fig5_stress_histograms", argc, argv);
  Config cfg;
  const bool fast = fast_mode(argc, argv);

  // Component under analysis: the IDCT's critical multiplier. Artificial
  // inputs draw the coefficient operand and the data operand from normal
  // distributions at the datapath's Q-format magnitudes; half of the data
  // samples carry the dequantizer's zeroed LSBs (the row-pass profile),
  // half are free (the column-pass profile).
  const Netlist mult = make_component(bench_context(), cfg.lib, cfg.mult32());
  StimulusSet nd;
  nd.buses = {"a", "b"};
  {
    Rng rng(7);
    const std::size_t count = fast ? 300 : 2000;
    for (std::size_t i = 0; i < count; ++i) {
      const std::int64_t c = rng.next_normal_int(48.0, -127, 127);
      std::int64_t x = 0;
      if (i % 2 == 0) {
        x = rng.next_normal_int(40.0, -500, 500) * 512;  // level * step * 2^7
      } else {
        x = rng.next_normal_int(18000.0, -(1 << 20), 1 << 20);
      }
      nd.vectors.push_back({static_cast<std::uint64_t>(c) & 0xFFFFFFFFull,
                            static_cast<std::uint64_t>(x) & 0xFFFFFFFFull});
    }
  }

  // Operand stream of the IDCT's multiplier while decoding a frame.
  const StimulusSet idct_ops = record_idct_mult_stimulus(
      cfg, "akiyo", fast ? 24 : 48, fast ? 300 : 2000);

  const Histogram h_nd = stress_histogram(mult, nd);
  const Histogram h_idct = stress_histogram(mult, idct_ops);
  print_histogram("(a) inputs from a normal distribution", h_nd);
  print_histogram("(b) inputs extracted from IDCT", h_idct);

  std::printf("histogram overlap (1 = identical shapes): %.3f\n",
              Histogram::overlap(h_nd, h_idct));

  // The operational claim behind the figure: both stress profiles produce
  // nearly the same aged delay, so artificial inputs suffice.
  const Sta sta(mult);
  const DegradationAwareLibrary aged(cfg.lib, cfg.model, 10.0);
  const StressProfile p_nd =
      StressProfile::measured(
          measure_gate_duty(mult, nd, bench_context().num_threads()));
  const StressProfile p_idct =
      StressProfile::measured(
          measure_gate_duty(mult, idct_ops, bench_context().num_threads()));
  const double d_nd = sta.run_aged(aged, p_nd).max_delay;
  const double d_idct = sta.run_aged(aged, p_idct).max_delay;
  std::printf("10Y aged delay under ND stress:   %.1f ps\n", d_nd);
  std::printf("10Y aged delay under IDCT stress: %.1f ps (difference %.2f%%)\n",
              d_idct, 100.0 * std::abs(d_nd - d_idct) / d_idct);
  std::printf("(paper: \"both histograms are similar and hence the induced "
              "delay increase will be similar as well\")\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return aapx::bench::guarded_main(argc, argv,
                                   [&] { return run(argc, argv); });
}
