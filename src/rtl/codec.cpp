#include "rtl/codec.hpp"

#include <cmath>
#include <stdexcept>

namespace aapx {
namespace {

static_assert(kTransformPoints == kDctBlock,
              "one transform pass is one row or column of a block");

using Block = std::array<std::int64_t, kDctBlock * kDctBlock>;

/// Q(frac_bits) basis c[k][n], or c[n][k] when `transposed` (the inverse).
TransformMatrix make_coeff_table(int frac_bits, bool transposed) {
  TransformMatrix coeff{};
  const double scale = static_cast<double>(std::int64_t{1} << frac_bits);
  for (int k = 0; k < kDctBlock; ++k) {
    for (int n = 0; n < kDctBlock; ++n) {
      const std::int64_t c = std::llround(dct_basis(k, n) * scale);
      const auto ks = static_cast<std::size_t>(k);
      const auto ns = static_cast<std::size_t>(n);
      (transposed ? coeff[ns][ks] : coeff[ks][ns]) = c;
    }
  }
  return coeff;
}

void check_config(const CodecConfig& cfg) {
  if (cfg.width <= 8 || cfg.width > 32) {
    throw std::invalid_argument("CodecConfig: width must be in (8, 32]");
  }
  if (cfg.frac_bits <= 0 || cfg.frac_bits >= cfg.width - 2) {
    throw std::invalid_argument("CodecConfig: bad frac_bits");
  }
  if (cfg.quant_step <= 0.0) {
    throw std::invalid_argument("CodecConfig: bad quant_step");
  }
}

/// One 8-point pass over every row of `in`, each a single backend call,
/// stored transposed: the second of two calls transforms the columns and
/// restores the row-major layout.
Block transform_rows(ArithBackend& backend, const TransformMatrix& m,
                     const Block& in, int frac_bits) {
  Block out{};
  for (std::size_t row = 0; row < kTransformPoints; ++row) {
    TransformVector v{};
    for (std::size_t i = 0; i < kTransformPoints; ++i) {
      v[i] = in[row * kTransformPoints + i];
    }
    const TransformVector t = backend.transform(m, v, frac_bits);
    for (std::size_t i = 0; i < kTransformPoints; ++i) {
      out[i * kTransformPoints + row] = t[i];
    }
  }
  return out;
}

}  // namespace

QuantizedImage encode_and_quantize(const Image& img, const CodecConfig& cfg) {
  check_config(cfg);
  const BlockImage coeffs = encode_image(img);
  QuantizedImage q;
  q.width = coeffs.width;
  q.height = coeffs.height;
  q.blocks_x = coeffs.blocks_x;
  q.blocks_y = coeffs.blocks_y;
  q.quant_step = cfg.quant_step;
  q.blocks.reserve(coeffs.blocks.size());
  for (const DctBlock& blk : coeffs.blocks) {
    std::array<std::int32_t, kDctBlock * kDctBlock> levels{};
    for (std::size_t i = 0; i < blk.size(); ++i) {
      levels[i] = static_cast<std::int32_t>(std::llround(blk[i] / cfg.quant_step));
    }
    q.blocks.push_back(levels);
  }
  return q;
}

FixedPointIdct::FixedPointIdct(const CodecConfig& cfg, ArithBackend& backend)
    : cfg_(cfg),
      backend_(&backend),
      inverse_(make_coeff_table(cfg.frac_bits, /*transposed=*/true)) {
  check_config(cfg);
  if (backend.width() != cfg.width) {
    throw std::invalid_argument("FixedPointIdct: backend width mismatch");
  }
}

std::array<std::int64_t, kDctBlock * kDctBlock> FixedPointIdct::decode_block(
    const std::array<std::int32_t, kDctBlock * kDctBlock>& levels) const {
  const std::int64_t step_q =
      std::llround(cfg_.quant_step *
                   static_cast<double>(std::int64_t{1} << cfg_.frac_bits));
  Block data{};
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::int64_t>(levels[i]) * step_q;  // dequantize, Q(frac)
  }
  // Rows, then columns (operating on the transposed intermediate).
  return transform_rows(*backend_, inverse_,
                        transform_rows(*backend_, inverse_, data, cfg_.frac_bits),
                        cfg_.frac_bits);
}

Image FixedPointIdct::decode(const QuantizedImage& q) const {
  Image img(q.width, q.height);
  const std::int64_t half = std::int64_t{1} << (cfg_.frac_bits - 1);
  for (int by = 0; by < q.blocks_y; ++by) {
    for (int bx = 0; bx < q.blocks_x; ++bx) {
      const auto& levels =
          q.blocks[static_cast<std::size_t>(by) * static_cast<std::size_t>(q.blocks_x) +
                   static_cast<std::size_t>(bx)];
      const auto spatial = decode_block(levels);
      for (int y = 0; y < kDctBlock; ++y) {
        for (int x = 0; x < kDctBlock; ++x) {
          const int px = bx * kDctBlock + x;
          const int py = by * kDctBlock + y;
          if (px >= q.width || py >= q.height) continue;
          const std::int64_t v =
              ((spatial[static_cast<std::size_t>(y * kDctBlock + x)] + half) >>
               cfg_.frac_bits) +
              128;
          // B3 clamp block: saturate to the 8-bit pixel range.
          img.set_clamped(px, py, static_cast<int>(v));
        }
      }
    }
  }
  return img;
}

FixedPointDct::FixedPointDct(const CodecConfig& cfg, ArithBackend& backend)
    : cfg_(cfg),
      backend_(&backend),
      coeff_(make_coeff_table(cfg.frac_bits, /*transposed=*/false)) {
  check_config(cfg);
  if (backend.width() != cfg.width) {
    throw std::invalid_argument("FixedPointDct: backend width mismatch");
  }
}

QuantizedImage FixedPointDct::encode(const Image& img) const {
  QuantizedImage q;
  q.width = img.width();
  q.height = img.height();
  q.blocks_x = (img.width() + kDctBlock - 1) / kDctBlock;
  q.blocks_y = (img.height() + kDctBlock - 1) / kDctBlock;
  q.quant_step = cfg_.quant_step;
  const double denom =
      cfg_.quant_step * static_cast<double>(std::int64_t{1} << cfg_.frac_bits);
  for (int by = 0; by < q.blocks_y; ++by) {
    for (int bx = 0; bx < q.blocks_x; ++bx) {
      Block data{};
      for (int y = 0; y < kDctBlock; ++y) {
        for (int x = 0; x < kDctBlock; ++x) {
          const int px = std::min(bx * kDctBlock + x, img.width() - 1);
          const int py = std::min(by * kDctBlock + y, img.height() - 1);
          data[static_cast<std::size_t>(y * kDctBlock + x)] =
              (static_cast<std::int64_t>(img.at(px, py)) - 128)
              << cfg_.frac_bits;
        }
      }
      // Rows then columns, as in the inverse path.
      const Block t = transform_rows(
          *backend_, coeff_, transform_rows(*backend_, coeff_, data, cfg_.frac_bits),
          cfg_.frac_bits);
      std::array<std::int32_t, kDctBlock * kDctBlock> levels{};
      for (std::size_t i = 0; i < levels.size(); ++i) {
        levels[i] = static_cast<std::int32_t>(
            std::llround(static_cast<double>(t[i]) / denom));
      }
      q.blocks.push_back(levels);
    }
  }
  return q;
}

}  // namespace aapx
