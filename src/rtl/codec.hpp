// RTL-level fixed-point DCT / IDCT codec (the paper's image processing
// microarchitecture).
//
// Datapath organization, mirroring the paper's Sec. V/VI study object:
//   B1  multiplier  : 32x32 -> 64, coefficient x data, product >> frac_bits
//   B2  accumulator : 32-bit adder accumulating the 8 MAC terms
//   B3  clamp       : saturate the reconstructed pixel to [0, 255]
// Registers sit between blocks, so per-block arithmetic backends compose
// exactly. The 2-D transform is the standard row-column decomposition of
// 8x8 blocks; coefficients and data use Q(frac_bits) fixed point.
//
// The encoder additionally quantizes coefficients with a uniform step
// (default 4), which sets the fresh-chain PSNR at the paper's ~45 dB level.
#pragma once

#include <array>
#include <cstdint>

#include "image/dct_ref.hpp"
#include "rtl/backend.hpp"

namespace aapx {

struct CodecConfig {
  int width = 32;       ///< datapath bit width
  int frac_bits = 14;   ///< fixed-point fraction bits (Q14)
  double quant_step = 4.0;  ///< encoder coefficient quantization step
};

/// Quantized integer coefficients of an image (levels, not reconstructed).
struct QuantizedImage {
  int width = 0;
  int height = 0;
  int blocks_x = 0;
  int blocks_y = 0;
  double quant_step = 4.0;
  std::vector<std::array<std::int32_t, kDctBlock * kDctBlock>> blocks;
};

/// Encodes with the floating-point reference DCT, then quantizes.
QuantizedImage encode_and_quantize(const Image& img, const CodecConfig& cfg);

/// Fixed-point 2-D IDCT microarchitecture; all multiplies and adds go
/// through the backend (exact-approximate or gate-timed), one
/// ArithBackend::transform call per 8-point row or column pass.
class FixedPointIdct {
 public:
  FixedPointIdct(const CodecConfig& cfg, ArithBackend& backend);

  /// Decodes an entire quantized image to pixels.
  Image decode(const QuantizedImage& q) const;

  /// Decodes one 8x8 block of quantized levels to spatial Q(frac) values.
  std::array<std::int64_t, kDctBlock * kDctBlock> decode_block(
      const std::array<std::int32_t, kDctBlock * kDctBlock>& levels) const;

 private:
  CodecConfig cfg_;
  ArithBackend* backend_;
  /// Q(frac_bits) transposed basis: inverse_[n][k] = c[k][n].
  TransformMatrix inverse_;
};

/// Fixed-point forward DCT through a backend (used to age the encoder in the
/// Fig. 2 quality-collapse experiment).
class FixedPointDct {
 public:
  FixedPointDct(const CodecConfig& cfg, ArithBackend& backend);

  QuantizedImage encode(const Image& img) const;

 private:
  CodecConfig cfg_;
  ArithBackend* backend_;
  /// Q(frac_bits) basis coefficients c[k][n].
  TransformMatrix coeff_;
};

}  // namespace aapx
