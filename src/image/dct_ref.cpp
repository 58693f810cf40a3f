#include "image/dct_ref.hpp"

#include <cmath>

namespace aapx {

double dct_basis(int k, int n) {
  const double scale = k == 0 ? std::sqrt(1.0 / kDctBlock)
                              : std::sqrt(2.0 / kDctBlock);
  return scale * std::cos((2.0 * n + 1.0) * k * M_PI / (2.0 * kDctBlock));
}

namespace {

/// 1-D transform of the rows of `in` with basis[k][n] (basis[n][k] when
/// `inverse`). The basis is computed once, by dct_basis() itself.
DctBlock transform_rows(const DctBlock& in, bool inverse) {
  static const DctBlock kBasis = [] {
    DctBlock b{};
    for (int k = 0; k < kDctBlock; ++k) {
      for (int n = 0; n < kDctBlock; ++n) b[k * kDctBlock + n] = dct_basis(k, n);
    }
    return b;
  }();
  DctBlock out{};
  for (int row = 0; row < kDctBlock; ++row) {
    for (int k = 0; k < kDctBlock; ++k) {
      double acc = 0.0;
      for (int n = 0; n < kDctBlock; ++n) {
        const double basis =
            inverse ? kBasis[n * kDctBlock + k] : kBasis[k * kDctBlock + n];
        acc += basis * in[row * kDctBlock + n];
      }
      out[row * kDctBlock + k] = acc;
    }
  }
  return out;
}

DctBlock transpose(const DctBlock& in) {
  DctBlock out{};
  for (int y = 0; y < kDctBlock; ++y) {
    for (int x = 0; x < kDctBlock; ++x) {
      out[x * kDctBlock + y] = in[y * kDctBlock + x];
    }
  }
  return out;
}

}  // namespace

DctBlock forward_dct(const DctBlock& spatial) {
  // Row-column decomposition: rows, transpose, rows, transpose.
  return transpose(transform_rows(transpose(transform_rows(spatial, false)), false));
}

DctBlock inverse_dct(const DctBlock& freq) {
  return transpose(transform_rows(transpose(transform_rows(freq, true)), true));
}

BlockImage encode_image(const Image& img) {
  BlockImage out;
  out.width = img.width();
  out.height = img.height();
  out.blocks_x = (img.width() + kDctBlock - 1) / kDctBlock;
  out.blocks_y = (img.height() + kDctBlock - 1) / kDctBlock;
  out.blocks.reserve(static_cast<std::size_t>(out.blocks_x) *
                     static_cast<std::size_t>(out.blocks_y));
  for (int by = 0; by < out.blocks_y; ++by) {
    for (int bx = 0; bx < out.blocks_x; ++bx) {
      DctBlock spatial{};
      for (int y = 0; y < kDctBlock; ++y) {
        for (int x = 0; x < kDctBlock; ++x) {
          const int px = std::min(bx * kDctBlock + x, img.width() - 1);
          const int py = std::min(by * kDctBlock + y, img.height() - 1);
          spatial[y * kDctBlock + x] = static_cast<double>(img.at(px, py)) - 128.0;
        }
      }
      out.blocks.push_back(forward_dct(spatial));
    }
  }
  return out;
}

Image decode_image_reference(const BlockImage& coeffs) {
  Image img(coeffs.width, coeffs.height);
  for (int by = 0; by < coeffs.blocks_y; ++by) {
    for (int bx = 0; bx < coeffs.blocks_x; ++bx) {
      const DctBlock spatial = inverse_dct(
          coeffs.blocks[static_cast<std::size_t>(by) *
                            static_cast<std::size_t>(coeffs.blocks_x) +
                        static_cast<std::size_t>(bx)]);
      for (int y = 0; y < kDctBlock; ++y) {
        for (int x = 0; x < kDctBlock; ++x) {
          const int px = bx * kDctBlock + x;
          const int py = by * kDctBlock + y;
          if (px >= coeffs.width || py >= coeffs.height) continue;
          const int v =
              static_cast<int>(std::lround(spatial[y * kDctBlock + x] + 128.0));
          img.set_clamped(px, py, v);
        }
      }
    }
  }
  return img;
}

}  // namespace aapx
