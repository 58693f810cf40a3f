// Paper Fig. 9 — example decoded images under the 10-year worst-case
// aging-induced approximation (paper: salesman 36 dB, grandmother 34 dB,
// foreman 30 dB, mobile 28 dB; noise hardly observable even on 'mobile').
// Writes the decoded frames as PGM files next to the binary for inspection,
// and the per-sequence PSNRs, truncation and frame size as result fields.
#include <cstdio>
#include <iostream>
#include <vector>

#include "common.hpp"
#include "image/synthetic.hpp"

using namespace aapx;
using namespace aapx::bench;

namespace {

int run(int argc, char** argv) {
  print_banner("Fig. 9 — example images after 10Y WC approximation",
               "Decoded frames written as fig9_<name>.pgm (see --outdir).");
  BenchJson bench_json("fig9_example_images", argc, argv);
  Config cfg;
  const bool fast = fast_mode(argc, argv);
  const int w = fast ? 48 : 176;
  const int h = fast ? 40 : 144;
  const int truncated = 3;  // the 10Y WC reduction (see fig8a/fig8b)

  const CodecConfig codec = cfg.codec();

  const struct {
    const char* name;
    const char* paper;
  } rows[] = {
      {"salesman", "36"}, {"grand", "34"}, {"foreman", "30"}, {"mobile", "28"}};
  constexpr std::size_t n_rows = std::size(rows);

  // Each frame decodes through its own codec chain (backends are not shared
  // between threads) and writes its own PGM + PSNR slot. Paths are resolved
  // before the loop: out_path may create --outdir, which should happen
  // exactly once.
  std::vector<std::string> files(n_rows);
  for (std::size_t i = 0; i < n_rows; ++i) {
    files[i] =
        out_path(argc, argv, std::string("fig9_") + rows[i].name + ".pgm");
  }
  std::vector<double> db(n_rows);
  bench_context().parallel_for(n_rows, [&](std::size_t i) {
    ExactBackend be(codec.width, truncated, 0);
    FixedPointIdct idct(codec, be);
    const Image img = make_video_trace_frame(rows[i].name, w, h);
    const Image out = idct.decode(encode_and_quantize(img, codec));
    out.save_pgm(files[i]);
    db[i] = psnr(img, out);
  });

  TextTable table({"sequence", "PSNR [dB]", "paper [dB]", "file"});
  for (std::size_t i = 0; i < n_rows; ++i) {
    table.add_row({rows[i].name, TextTable::num(db[i], 1), rows[i].paper,
                   files[i]});
  }
  table.print(std::cout);
  bench_json.metric("size", std::to_string(w) + "x" + std::to_string(h));
  bench_json.metric("truncated_bits", static_cast<double>(truncated));
  for (std::size_t i = 0; i < n_rows; ++i) {
    bench_json.metric(std::string("psnr_") + rows[i].name + "_db", db[i]);
  }
  std::printf("\n(paper: \"even for the 'mobile' image with 28 dB PSNR, image "
              "quality is still very good and noise is hardly observable\")\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return aapx::bench::guarded_main(argc, argv,
                                   [&] { return run(argc, argv); });
}
