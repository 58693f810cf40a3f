// Image pipeline example: run the paper's whole story on one image.
//
//   build/examples/image_pipeline [sequence] [years] [--outdir D]
//
// 1. Runs the microarchitecture flow (paper Fig. 6) on the IDCT design for
//    the requested lifetime under worst-case aging.
// 2. Decodes the image three ways:
//      - fresh full-precision decode (the quality ceiling),
//      - the aging-induced approximation chosen by the flow,
//      - a gate-level timed decode of the *unapproximated* aged IDCT at the
//        guardband-free clock (what naive guardband removal does).
// 3. Writes all frames as PGM files and prints the PSNR comparison.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "core/microarch.hpp"
#include "engine/context.hpp"
#include "image/synthetic.hpp"
#include "rtl/codec.hpp"

int main(int argc, char** argv) {
  using namespace aapx;
  // Positional args ([sequence] [years]) plus the shared --outdir flag for
  // routing the PGM outputs away from the working directory.
  std::string outdir;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--outdir" && i + 1 < argc) {
      outdir = argv[++i];
    } else {
      positional.push_back(a);
    }
  }
  const std::string sequence = !positional.empty() ? positional[0] : "foreman";
  const double years =
      positional.size() > 1 ? std::atof(positional[1].c_str()) : 10.0;
  if (!outdir.empty()) std::filesystem::create_directories(outdir);
  const auto out = [&](const char* name) {
    return outdir.empty()
               ? std::string(name)
               : (std::filesystem::path(outdir) / name).string();
  };

  const Context ctx;
  const CellLibrary lib = make_nangate45_like();
  const AgingModel aging;
  CodecConfig codec;
  codec.frac_bits = 7;

  // --- the flow picks per-block precisions -------------------------------
  MicroarchSpec idct_design;
  idct_design.name = "idct32";
  idct_design.blocks = {
      {"mult", {ComponentKind::multiplier, 32, 0, AdderArch::cla4,
                MultArch::array}, false},
      {"acc", {ComponentKind::adder, 32, 0, AdderArch::cla4, MultArch::array},
       false},
  };
  CharacterizerOptions copt;
  copt.min_precision = 24;
  MicroarchApproximator flow(ctx, lib, aging, copt);
  FlowOptions fopt;
  fopt.scenario = {StressMode::worst, years};
  const FlowResult plan = flow.run(idct_design, fopt);
  const int mult_trunc = 32 - plan.blocks[0].chosen_precision;
  const int acc_trunc = 32 - plan.blocks[1].chosen_precision;
  std::printf("flow: constraint %.1f ps; mult -> %d bits truncated, acc -> %d; "
              "timing %s under %.0fY worst-case aging\n",
              plan.timing_constraint, mult_trunc, acc_trunc,
              plan.timing_met ? "met" : "NOT met", years);

  // --- decode three ways ---------------------------------------------------
  const Image img = make_video_trace_frame(sequence, 96, 80);
  const QuantizedImage q = encode_and_quantize(img, codec);

  ExactBackend fresh_be(codec.width, 0, 0);
  const Image fresh = FixedPointIdct(codec, fresh_be).decode(q);

  ExactBackend approx_be(codec.width, mult_trunc, acc_trunc);
  const Image approx = FixedPointIdct(codec, approx_be).decode(q);

  // Naive guardband removal: full-precision netlists with aged delays at the
  // speed-binned fresh clock (consumed product bits), timing errors and all.
  const Netlist mult = make_component(ctx, lib, idct_design.blocks[0].component);
  const Netlist adder =
      make_component(ctx, lib, idct_design.blocks[1].component);
  const Sta msta(mult);
  const Sta asta(adder);
  const ObservedWindow window{codec.frac_bits, codec.width};
  double t_clock = 0.0;
  {
    TimedNetlistBackend bin(mult, msta.gate_delays(nullptr, nullptr), adder,
                            asta.gate_delays(nullptr, nullptr), codec.width,
                            1e12, DelayModel::transport, window);
    FixedPointIdct idct(codec, bin);
    (void)idct.decode(encode_and_quantize(
        make_video_trace_frame(sequence, 24, 24), codec));
    t_clock = std::max(bin.max_mult_settle(), bin.max_add_settle());
  }
  const DegradationAwareLibrary aged(lib, aging, years);
  const StressProfile mstress =
      StressProfile::uniform(StressMode::worst, mult.num_gates());
  const StressProfile astress =
      StressProfile::uniform(StressMode::worst, adder.num_gates());
  TimedNetlistBackend naive_be(mult, msta.gate_delays(&aged, &mstress), adder,
                               asta.gate_delays(&aged, &astress), codec.width,
                               t_clock, DelayModel::transport, window);
  const Image small = make_video_trace_frame(sequence, 48, 48);
  const Image naive =
      FixedPointIdct(codec, naive_be).decode(encode_and_quantize(small, codec));

  // --- report --------------------------------------------------------------
  img.save_pgm(out("pipeline_original.pgm"));
  fresh.save_pgm(out("pipeline_fresh.pgm"));
  approx.save_pgm(out("pipeline_approx.pgm"));
  naive.save_pgm(out("pipeline_naive_aged.pgm"));
  std::printf("\n%-28s %6.1f dB  (pipeline_fresh.pgm)\n",
              "fresh full precision:", psnr(img, fresh));
  std::printf("%-28s %6.1f dB  (pipeline_approx.pgm)\n",
              "aging-induced approximation:", psnr(img, approx));
  std::printf("%-28s %6.1f dB  (pipeline_naive_aged.pgm, 48x48 crop, "
              "%.1f%% of multiplies err)\n",
              "naive guardband removal:", psnr(small, naive),
              100.0 * static_cast<double>(naive_be.mult_errors()) /
                  static_cast<double>(naive_be.mult_ops()));
  std::printf("\nThe approximation keeps the image near the ceiling while the "
              "naively aged circuit collapses — the paper's core trade.\n");
  return 0;
}
