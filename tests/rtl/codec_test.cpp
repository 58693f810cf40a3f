#include "rtl/codec.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "image/synthetic.hpp"

namespace aapx {
namespace {

/// Project-wide codec configuration used by the benches (see DESIGN.md):
/// Q7 fixed point in a 32-bit datapath, quantization step 4.
CodecConfig bench_config() {
  CodecConfig cfg;
  cfg.frac_bits = 7;
  return cfg;
}

TEST(CodecTest, ConfigValidation) {
  ExactBackend be(32, 0, 0);
  CodecConfig bad = bench_config();
  bad.frac_bits = 0;
  EXPECT_THROW(FixedPointIdct(bad, be), std::invalid_argument);
  bad = bench_config();
  bad.width = 40;
  EXPECT_THROW(FixedPointIdct(bad, be), std::invalid_argument);
  bad = bench_config();
  bad.quant_step = 0.0;
  EXPECT_THROW(FixedPointIdct(bad, be), std::invalid_argument);
  // Backend width mismatch.
  ExactBackend narrow(16, 0, 0);
  EXPECT_THROW(FixedPointIdct(bench_config(), narrow), std::invalid_argument);
}

TEST(CodecTest, FreshChainReachesPaperBaselinePsnr) {
  const CodecConfig cfg = bench_config();
  ExactBackend be(32, 0, 0);
  FixedPointIdct idct(cfg, be);
  double avg = 0.0;
  for (const auto& name : video_trace_names()) {
    const Image img = make_video_trace_frame(name, 64, 64);
    const Image rec = idct.decode(encode_and_quantize(img, cfg));
    const double p = psnr(img, rec);
    EXPECT_GT(p, 40.0) << name;
    avg += p;
  }
  avg /= static_cast<double>(video_trace_names().size());
  // Paper Fig. 2: fresh chain ~45 dB.
  EXPECT_GT(avg, 43.0);
  EXPECT_LT(avg, 50.0);
}

TEST(CodecTest, FixedPointEncoderMatchesReferenceClosely) {
  const CodecConfig cfg = bench_config();
  ExactBackend be(32, 0, 0);
  FixedPointDct dct(cfg, be);
  FixedPointIdct idct(cfg, be);
  const Image img = make_video_trace_frame("mother", 64, 48);
  // Fixed-point encode + decode still lands at the fresh-quality level.
  const Image rec = idct.decode(dct.encode(img));
  EXPECT_GT(psnr(img, rec), 42.0);
}

TEST(CodecTest, QuantizedImageGeometry) {
  const CodecConfig cfg = bench_config();
  const Image img = make_video_trace_frame("akiyo", 50, 35);
  const QuantizedImage q = encode_and_quantize(img, cfg);
  EXPECT_EQ(q.width, 50);
  EXPECT_EQ(q.height, 35);
  EXPECT_EQ(q.blocks_x, 7);
  EXPECT_EQ(q.blocks_y, 5);
  EXPECT_EQ(q.blocks.size(), 35u);
  ExactBackend be(32, 0, 0);
  FixedPointIdct idct(cfg, be);
  const Image rec = idct.decode(q);
  EXPECT_EQ(rec.width(), 50);
  EXPECT_EQ(rec.height(), 35);
  EXPECT_GT(psnr(img, rec), 40.0);
}

TEST(CodecTest, TruncationDegradesQualityMonotonically) {
  const CodecConfig cfg = bench_config();
  const Image img = make_video_trace_frame("foreman", 64, 64);
  const QuantizedImage q = encode_and_quantize(img, cfg);
  double prev = 1e9;
  for (const int k : {0, 2, 3, 4, 6}) {
    ExactBackend be(32, k, 0);
    FixedPointIdct idct(cfg, be);
    const double p = psnr(img, idct.decode(q));
    EXPECT_LE(p, prev + 0.5) << "k=" << k;  // allow tiny non-monotone noise
    prev = p;
  }
}

TEST(CodecTest, ThreeBitTruncationReproducesPaperQuality) {
  // Paper Fig. 8b: with the 10-year worst-case approximation (3 bits), PSNR
  // stays above 30 dB for all sequences except "mobile".
  const CodecConfig cfg = bench_config();
  ExactBackend be(32, 3, 0);
  FixedPointIdct idct(cfg, be);
  for (const auto& name : video_trace_names()) {
    const Image img = make_video_trace_frame(name, 96, 80);
    const double p = psnr(img, idct.decode(encode_and_quantize(img, cfg)));
    if (name == "mobile") {
      EXPECT_LT(p, 31.0);
      EXPECT_GT(p, 25.0);
    } else {
      EXPECT_GT(p, 30.0) << name;
      EXPECT_LT(p, 40.0) << name;
    }
  }
}

TEST(CodecTest, MobileSuffersTheMostFromTruncation) {
  const CodecConfig cfg = bench_config();
  ExactBackend be(32, 3, 0);
  FixedPointIdct idct(cfg, be);
  double mobile_psnr = 0.0;
  double best_other = 0.0;
  for (const auto& name : video_trace_names()) {
    const Image img = make_video_trace_frame(name, 96, 80);
    const double p = psnr(img, idct.decode(encode_and_quantize(img, cfg)));
    if (name == "mobile") {
      mobile_psnr = p;
    } else {
      best_other = std::max(best_other, p);
    }
  }
  EXPECT_LT(mobile_psnr, best_other - 3.0);
}

TEST(CodecTest, DecodeBlockDcOnly) {
  const CodecConfig cfg = bench_config();
  ExactBackend be(32, 0, 0);
  FixedPointIdct idct(cfg, be);
  std::array<std::int32_t, kDctBlock * kDctBlock> levels{};
  // DC level of 50 quantized at step 4 -> coefficient 200 -> pixels 200/8 = 25.
  levels[0] = 50;
  const auto spatial = idct.decode_block(levels);
  const double expect = 200.0 / 8.0;
  for (const std::int64_t v : spatial) {
    EXPECT_NEAR(static_cast<double>(v) / (1 << cfg.frac_bits), expect, 0.5);
  }
}

using OperandPairs = std::vector<std::pair<std::int64_t, std::int64_t>>;
using Block = std::array<std::int64_t, kDctBlock * kDctBlock>;

/// Row-then-column transform of one block as the datapath must issue it:
/// each pass walks the block's rows, each row's outputs in order, each
/// output's MAC over the inputs in order. The forward DCT reads c[out][in],
/// the IDCT c[in][out]. Records every operand pair and returns the block in
/// the codec's layout (each pass stores its result transposed).
Block expected_stream(ExactBackend& be, const Block& data, bool inverse,
                      int frac, OperandPairs& mults, OperandPairs& adds) {
  const double scale = static_cast<double>(std::int64_t{1} << frac);
  const auto c = [&](int k, int n) { return std::llround(dct_basis(k, n) * scale); };
  const std::int64_t half = std::int64_t{1} << (frac - 1);
  Block cur = data;
  for (int pass = 0; pass < 2; ++pass) {
    Block next{};
    for (int row = 0; row < kDctBlock; ++row) {
      for (int out = 0; out < kDctBlock; ++out) {
        std::int64_t acc = 0;
        for (int in = 0; in < kDctBlock; ++in) {
          const std::int64_t coeff = inverse ? c(in, out) : c(out, in);
          const std::int64_t x = cur[static_cast<std::size_t>(row * kDctBlock + in)];
          mults.emplace_back(coeff, x);
          const std::int64_t term = (be.multiply(coeff, x) + half) >> frac;
          adds.emplace_back(acc, term);
          acc = be.add(acc, term);
        }
        next[static_cast<std::size_t>(out * kDctBlock + row)] = acc;
      }
    }
    cur = next;
  }
  return cur;
}

TEST(CodecTest, PerOpBackendsSeeTheSameStream) {
  // A per-operation backend (the timed ones, whose simulator state follows
  // the operand order) must see exactly the stream built here.
  const CodecConfig cfg = bench_config();
  ExactBackend inner(cfg.width, 3, 0);
  RecordingBackend rec(inner);
  const Image img = make_video_trace_frame("foreman", 16, 16);
  const QuantizedImage q = FixedPointDct(cfg, rec).encode(img);
  FixedPointIdct(cfg, rec).decode(q);

  ExactBackend ref(cfg.width, 3, 0);
  OperandPairs mults;
  OperandPairs adds;
  const std::int64_t step_q = std::llround(cfg.quant_step * (1 << cfg.frac_bits));
  for (int by = 0; by < 2; ++by) {
    for (int bx = 0; bx < 2; ++bx) {
      Block data{};
      for (int y = 0; y < kDctBlock; ++y) {
        for (int x = 0; x < kDctBlock; ++x) {
          data[static_cast<std::size_t>(y * kDctBlock + x)] =
              (static_cast<std::int64_t>(img.at(bx * kDctBlock + x, by * kDctBlock + y)) -
               128)
              << cfg.frac_bits;
        }
      }
      expected_stream(ref, data, /*inverse=*/false, cfg.frac_bits, mults, adds);
    }
  }
  ASSERT_EQ(q.blocks.size(), 4u);
  for (const auto& levels : q.blocks) {
    Block data{};
    for (std::size_t i = 0; i < data.size(); ++i) data[i] = levels[i] * step_q;
    expected_stream(ref, data, /*inverse=*/true, cfg.frac_bits, mults, adds);
  }

  ASSERT_EQ(rec.mult_ops().size(), 2u * 4u * 2u * 64u * 8u);
  ASSERT_EQ(rec.mult_ops().size(), mults.size());
  ASSERT_EQ(rec.add_ops().size(), adds.size());
  for (std::size_t i = 0; i < mults.size(); ++i) {
    ASSERT_EQ(rec.mult_ops()[i], mults[i]) << "multiply " << i;
    ASSERT_EQ(rec.add_ops()[i], adds[i]) << "add " << i;
  }
}

}  // namespace
}  // namespace aapx
