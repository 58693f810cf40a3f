// Paper Secs. III & VI simulation-cost claims — quantifying aging-induced
// *errors* needs gate-level timed simulation (paper: ~4 days for one
// 1920x1080 image on the 2e6-gate DCT-IDCT chain), while quantifying
// aging-induced *approximations* only needs RTL simulation (paper: < 3
// minutes per 1080p image, a few seconds for CIF).
//
// This binary times both engines and extrapolates to the paper's image
// sizes, then breaks one characterization sweep down by phase.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <vector>

#include "common.hpp"
#include "core/characterizer.hpp"
#include "engine/design_store.hpp"
#include "gatesim/timedsim.hpp"
#include "image/synthetic.hpp"

using namespace aapx;
using namespace aapx::bench;

namespace {

Config& config() {
  static Config cfg;
  return cfg;
}

/// Options of a private cold Context with the bench root's worker count
/// and tracer.
Context::Options cold_options() {
  Context::Options options;
  options.threads = bench_context().num_threads();
  options.tracer = &bench_context().tracer();
  return options;
}

/// Median wall seconds of one call of `pass`, repeated for at least 0.2 s
/// and 5 passes: a single pass of either engine is short enough (about
/// 0.01 s for the CIF chain) that host load would otherwise move the
/// extrapolated figures by tens of percent between runs.
template <typename Pass>
double median_pass_seconds(const Pass& pass) {
  std::vector<double> samples;
  double total = 0.0;
  while (total < 0.2 || samples.size() < 5) {
    const auto t0 = std::chrono::steady_clock::now();
    pass();
    const auto t1 = std::chrono::steady_clock::now();
    samples.push_back(std::chrono::duration<double>(t1 - t0).count());
    total += samples.back();
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

/// Measured per-op gate-level cost and per-pixel RTL cost -> extrapolated
/// per-image costs.
void print_cost_table() {
  const Config& cfg = config();
  // Multiplies through the timed gate-level simulator, 200 vectors a pass.
  const Netlist nl = make_component(bench_context(), cfg.lib, cfg.mult32());
  TimedSim sim(nl, scenario_delays(cfg, nl, {StressMode::worst, 10.0}),
               DelayModel::transport);
  const StimulusSet stim = make_normal_stimulus(32, 200, 3, cfg.mult_sigma);
  const double gate_s_per_pass = median_pass_seconds([&] {
    for (const auto& row : stim.vectors) {
      sim.stage_bus("a", row[0]);
      sim.stage_bus("b", row[1]);
      sim.step_staged(4000.0);
    }
  });
  const double gate_us_per_op =
      1e6 * gate_s_per_pass / static_cast<double>(stim.vectors.size());

  // Real CIF DCT->IDCT chains through the exact backend, scaled by pixel
  // count: the decode the flow actually runs, one transform() call per
  // 8-point pass.
  const CodecConfig codec = cfg.codec();
  ExactBackend be(codec.width, 3, 0);
  const FixedPointDct dct(codec, be);
  const FixedPointIdct idct(codec, be);
  const Image cif = make_video_trace_frame("foreman", 352, 288);
  volatile std::uint8_t sink = 0;  // reading each decode keeps it live
  const double rtl_s_per_pass = median_pass_seconds([&] {
    const Image decoded = idct.decode(dct.encode(cif));
    sink = decoded.at(0, 0);
  });
  const double rtl_s_per_pixel = rtl_s_per_pass / (352.0 * 288.0);

  // DCT->IDCT chain: 2 transforms x 2 passes x 8 MACs per output pixel.
  const auto ops_per_image = [](double w, double h) { return w * h * 32.0; };
  TextTable table({"image", "mult ops", "gate-level sim", "RTL sim",
                   "speedup"});
  const struct {
    const char* name;
    double w, h;
  } sizes[] = {{"CIF 352x288", 352, 288}, {"HD 1920x1080", 1920, 1080}};
  for (const auto& s : sizes) {
    const double ops = ops_per_image(s.w, s.h);
    const double gate_s = ops * gate_us_per_op / 1e6;
    const double rtl_s = s.w * s.h * rtl_s_per_pixel;
    auto fmt_time = [](double seconds) {
      char buf[64];
      if (seconds > 7200) {
        std::snprintf(buf, sizeof buf, "%.1f hours", seconds / 3600);
      } else if (seconds > 120) {
        std::snprintf(buf, sizeof buf, "%.1f minutes", seconds / 60);
      } else if (seconds >= 10) {
        std::snprintf(buf, sizeof buf, "%.2f seconds", seconds);
      } else {
        std::snprintf(buf, sizeof buf, "%.3g seconds", seconds);
      }
      return std::string(buf);
    };
    table.add_row({s.name, TextTable::num(ops / 1e6, 1) + "M", fmt_time(gate_s),
                   fmt_time(rtl_s),
                   TextTable::num(gate_s / rtl_s, 0) + "x"});
  }
  std::printf("\n");
  print_banner("Secs. III/VI — simulation cost: gate-level vs RTL",
               "Why pre-characterization + RTL simulation is the only viable "
               "way to quantify aging at the microarchitecture level "
               "(paper: ~4 days vs < 3 minutes for one 1080p image).");
  table.print(std::cout);
}

/// One full characterization sweep of the 32-bit adder, phase-timed into the
/// BENCH json: store_s (full-precision netlist synthesis + aged-library
/// build into a cold store), sta_s (the precision sweep: re-synthesis of
/// each truncated point plus aged STA) and sim_s (packed gate-level
/// simulation extracting measured gate duty). The *_s fields are
/// informational for the regression checker like wall_s; the point count,
/// gate count and duty checksum are deterministic and ARE
/// regression-checked.
void measure_sweep_breakdown(BenchJson& bench_json) {
  const Config& cfg = config();
  // Private cold store so the phases don't bleed into each other.
  const Context ctx(cold_options());
  const ComponentSpec spec = cfg.adder32();
  const auto now = [] { return std::chrono::steady_clock::now(); };
  const auto secs = [](std::chrono::steady_clock::time_point a,
                       std::chrono::steady_clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
  };

  const auto t0 = now();
  const Netlist& nl = ctx.store().netlist(cfg.lib, spec);
  ctx.store().aged_library(cfg.lib, cfg.model, 10.0);
  const auto t1 = now();

  CharacterizerOptions copt;
  copt.min_precision = 16;
  const ComponentCharacterizer characterizer(ctx, cfg.lib, cfg.model, copt);
  const auto surface = characterizer.characterize(spec, cfg.corners());
  const auto t2 = now();

  const StimulusSet stim = make_normal_stimulus(32, 2048, 11, cfg.adder_sigma);
  const std::vector<double> duty =
      measure_gate_duty(nl, stim, ctx.num_threads());
  const auto t3 = now();

  double duty_checksum = 0.0;
  for (const double d : duty) duty_checksum += d;

  const double store_s = secs(t0, t1);
  const double sta_s = secs(t1, t2);
  const double sim_s = secs(t2, t3);
  bench_json.metric("store_s", store_s);
  bench_json.metric("sta_s", sta_s);
  bench_json.metric("sim_s", sim_s);
  bench_json.metric("sweep_points",
                    static_cast<double>(surface.points.size()));
  bench_json.metric("sweep_gates", static_cast<double>(nl.num_gates()));
  bench_json.metric("duty_checksum", duty_checksum);

  const double total = store_s + sta_s + sim_s;
  TextTable table({"phase", "seconds", "share"});
  const struct {
    const char* name;
    double s;
  } phases[] = {{"store (synth + aged lib)", store_s},
                {"sweep (re-synthesis + STA)", sta_s},
                {"sim (gate duty, packed)", sim_s}};
  for (const auto& p : phases) {
    table.add_row({p.name, TextTable::num(p.s, 3),
                   TextTable::num(total > 0 ? 100.0 * p.s / total : 0.0, 1) +
                       "%"});
  }
  std::printf("\n");
  print_banner("Sweep cost breakdown — store vs STA vs sim",
               "Where one component characterization spends its time "
               "(32-bit adder, four aging corners, 17 precision points, "
               "re-synthesis plus aged STA per point).");
  table.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  return aapx::bench::guarded_main(argc, argv, [&] {
    aapx::bench::BenchJson bench_json("tab_sim_cost", argc, argv);
    print_cost_table();
    measure_sweep_breakdown(bench_json);
    return 0;
  });
}
