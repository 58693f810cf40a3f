#include "image/dct_ref.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "image/synthetic.hpp"
#include "util/rng.hpp"

namespace aapx {
namespace {

TEST(DctBasisTest, Orthonormality) {
  // Rows of the basis matrix are orthonormal: sum_n c[k][n] c[l][n] = delta.
  for (int k = 0; k < kDctBlock; ++k) {
    for (int l = 0; l < kDctBlock; ++l) {
      double dot = 0.0;
      for (int n = 0; n < kDctBlock; ++n) dot += dct_basis(k, n) * dct_basis(l, n);
      EXPECT_NEAR(dot, k == l ? 1.0 : 0.0, 1e-12) << k << "," << l;
    }
  }
}

TEST(DctTest, ForwardInverseRoundTrip) {
  Rng rng(3);
  DctBlock spatial{};
  for (auto& v : spatial) v = rng.next_int(-128, 127);
  const DctBlock rec = inverse_dct(forward_dct(spatial));
  for (std::size_t i = 0; i < spatial.size(); ++i) {
    EXPECT_NEAR(rec[i], spatial[i], 1e-9);
  }
}

TEST(DctTest, ConstantBlockIsPureDc) {
  DctBlock spatial{};
  spatial.fill(50.0);
  const DctBlock freq = forward_dct(spatial);
  EXPECT_NEAR(freq[0], 50.0 * 8.0, 1e-9);  // DC = 8 * value (orthonormal 2-D)
  for (std::size_t i = 1; i < freq.size(); ++i) EXPECT_NEAR(freq[i], 0.0, 1e-9);
}

TEST(DctTest, ParsevalEnergyPreservation) {
  Rng rng(5);
  DctBlock spatial{};
  double e_spatial = 0.0;
  for (auto& v : spatial) {
    v = rng.next_normal(0.0, 40.0);
    e_spatial += v * v;
  }
  const DctBlock freq = forward_dct(spatial);
  double e_freq = 0.0;
  for (const double v : freq) e_freq += v * v;
  EXPECT_NEAR(e_freq, e_spatial, 1e-6);
}

TEST(DctImageTest, EncodeDecodeNearLossless) {
  const Image img = make_video_trace_frame("akiyo", 64, 48);
  const Image rec = decode_image_reference(encode_image(img));
  // Only rounding to 8-bit remains.
  EXPECT_GT(psnr(img, rec), 50.0);
}

TEST(DctImageTest, NonMultipleOfEightDimensions) {
  const Image img = make_video_trace_frame("suzie", 50, 35);
  const BlockImage coeffs = encode_image(img);
  EXPECT_EQ(coeffs.blocks_x, 7);
  EXPECT_EQ(coeffs.blocks_y, 5);
  const Image rec = decode_image_reference(coeffs);
  EXPECT_EQ(rec.width(), 50);
  EXPECT_EQ(rec.height(), 35);
  EXPECT_GT(psnr(img, rec), 50.0);
}

TEST(DctImageTest, SmoothImagesCompactEnergyInLowFrequencies) {
  const BlockImage smooth = encode_image(make_video_trace_frame("miss", 64, 64));
  const BlockImage busy = encode_image(make_video_trace_frame("mobile", 64, 64));
  auto high_freq_fraction = [](const BlockImage& bi) {
    double low = 0.0;
    double high = 0.0;
    for (const DctBlock& blk : bi.blocks) {
      for (int v = 0; v < kDctBlock; ++v) {
        for (int u = 0; u < kDctBlock; ++u) {
          const double e = blk[v * kDctBlock + u] * blk[v * kDctBlock + u];
          if (u + v >= 8) {
            high += e;
          } else {
            low += e;
          }
        }
      }
    }
    return high / (low + high);
  };
  EXPECT_GT(high_freq_fraction(busy), 3.0 * high_freq_fraction(smooth));
}

// The reference DCT as it read its basis before the table: one dct_basis()
// call per multiply-accumulate, same summation order. The library's
// transforms must match it bit for bit.
DctBlock per_call_transform_rows(const DctBlock& in, bool inverse) {
  DctBlock out{};
  for (int row = 0; row < kDctBlock; ++row) {
    for (int k = 0; k < kDctBlock; ++k) {
      double acc = 0.0;
      for (int n = 0; n < kDctBlock; ++n) {
        const double basis = inverse ? dct_basis(n, k) : dct_basis(k, n);
        acc += basis * in[row * kDctBlock + n];
      }
      out[row * kDctBlock + k] = acc;
    }
  }
  return out;
}

DctBlock transposed(const DctBlock& in) {
  DctBlock out{};
  for (int y = 0; y < kDctBlock; ++y) {
    for (int x = 0; x < kDctBlock; ++x) {
      out[x * kDctBlock + y] = in[y * kDctBlock + x];
    }
  }
  return out;
}

DctBlock per_call_dct(const DctBlock& in, bool inverse) {
  return transposed(per_call_transform_rows(
      transposed(per_call_transform_rows(in, inverse)), inverse));
}

void expect_same_block(const DctBlock& got, const DctBlock& want,
                       const std::string& where) {
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << where << " coefficient " << i;
  }
}

TEST(DctRefTest, TransformsMatchPerCallBasisBitForBit) {
  Rng rng(29);
  for (int trial = 0; trial < 64; ++trial) {
    DctBlock block{};
    for (auto& v : block) v = rng.next_normal(0.0, 200.0);
    expect_same_block(forward_dct(block), per_call_dct(block, false),
                      "forward trial " + std::to_string(trial));
    expect_same_block(inverse_dct(block), per_call_dct(block, true),
                      "inverse trial " + std::to_string(trial));
  }
}

TEST(DctRefTest, ImageCodecMatchesPerCallBasisBitForBit) {
  // 52x44 is not a multiple of 8: the right and bottom blocks replicate
  // edge pixels on encode and drop their overhang on decode.
  for (const auto& name : video_trace_names()) {
    const Image img = make_video_trace_frame(name, 52, 44);
    const BlockImage coeffs = encode_image(img);
    ASSERT_EQ(coeffs.blocks_x, 7);
    ASSERT_EQ(coeffs.blocks_y, 6);
    ASSERT_EQ(coeffs.blocks.size(), 42u);
    Image want(img.width(), img.height());
    for (int by = 0; by < coeffs.blocks_y; ++by) {
      for (int bx = 0; bx < coeffs.blocks_x; ++bx) {
        DctBlock spatial{};
        for (int y = 0; y < kDctBlock; ++y) {
          for (int x = 0; x < kDctBlock; ++x) {
            const int px = std::min(bx * kDctBlock + x, img.width() - 1);
            const int py = std::min(by * kDctBlock + y, img.height() - 1);
            spatial[y * kDctBlock + x] =
                static_cast<double>(img.at(px, py)) - 128.0;
          }
        }
        const DctBlock& freq =
            coeffs.blocks[static_cast<std::size_t>(by * coeffs.blocks_x + bx)];
        const std::string where =
            name + " block " + std::to_string(bx) + "," + std::to_string(by);
        expect_same_block(freq, per_call_dct(spatial, false), where);
        const DctBlock pixels = per_call_dct(freq, true);
        expect_same_block(inverse_dct(freq), pixels, where);
        for (int y = 0; y < kDctBlock; ++y) {
          for (int x = 0; x < kDctBlock; ++x) {
            const int px = bx * kDctBlock + x;
            const int py = by * kDctBlock + y;
            if (px >= img.width() || py >= img.height()) continue;
            want.set_clamped(px, py,
                             static_cast<int>(std::lround(
                                 pixels[y * kDctBlock + x] + 128.0)));
          }
        }
      }
    }
    const Image rec = decode_image_reference(coeffs);
    for (int y = 0; y < img.height(); ++y) {
      for (int x = 0; x < img.width(); ++x) {
        ASSERT_EQ(rec.at(x, y), want.at(x, y))
            << name << " pixel " << x << "," << y;
      }
    }
  }
}

}  // namespace
}  // namespace aapx
