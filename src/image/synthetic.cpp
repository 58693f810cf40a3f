#include "image/synthetic.hpp"

#include <cmath>
#include <stdexcept>
#include <vector>

#include "util/rng.hpp"

namespace aapx {
namespace {

struct SequenceRecipe {
  std::string name;
  double detail;      ///< 0 smooth ... 1 dense texture
  double contrast;    ///< blob/background contrast
  double edges;       ///< amount of strong line structure
  std::uint64_t seed;
};

const std::vector<SequenceRecipe>& recipes() {
  static const std::vector<SequenceRecipe> kRecipes = {
      {"akiyo", 0.18, 0.55, 0.25, 101},
      {"carphone", 0.42, 0.60, 0.45, 102},
      {"foreman", 0.50, 0.65, 0.55, 103},
      {"grand", 0.22, 0.50, 0.20, 104},
      {"miss", 0.12, 0.45, 0.10, 105},
      {"mobile", 1.00, 0.80, 0.85, 106},
      {"mother", 0.20, 0.50, 0.22, 107},
      {"salesman", 0.30, 0.40, 0.35, 108},
      {"suzie", 0.16, 0.55, 0.18, 109},
  };
  return kRecipes;
}

const SequenceRecipe& recipe_for(const std::string& name) {
  for (const SequenceRecipe& r : recipes()) {
    if (r.name == name) return r;
  }
  throw std::invalid_argument("make_video_trace_frame: unknown sequence " + name);
}

}  // namespace

const std::vector<std::string>& video_trace_names() {
  static const std::vector<std::string> kNames = [] {
    std::vector<std::string> names;
    for (const SequenceRecipe& r : recipes()) names.push_back(r.name);
    return names;
  }();
  return kNames;
}

double sequence_detail_level(const std::string& name) {
  return recipe_for(name).detail;
}

Image make_video_trace_frame(const std::string& name, int width, int height) {
  const SequenceRecipe& r = recipe_for(name);
  Rng rng(r.seed * 0x100001b3ULL);
  Image img(width, height);

  // Low-frequency base: diagonal illumination gradient.
  const double w = width;
  const double h = height;
  // Blob (head-and-shoulders subject) parameters.
  const double cx = w * (0.45 + 0.1 * rng.next_double());
  const double cy = h * (0.40 + 0.1 * rng.next_double());
  const double rx = w * 0.22;
  const double ry = h * 0.30;

  // Texture phases, fixed per image.
  const double ph1 = rng.next_double() * 2.0 * M_PI;
  const double ph2 = rng.next_double() * 2.0 * M_PI;
  const double ph3 = rng.next_double() * 2.0 * M_PI;

  // The texture sinusoid is separable: one sine per column, one per row.
  std::vector<double> column_sine(static_cast<std::size_t>(width));
  for (int x = 0; x < width; ++x) {
    const double u = x / w;
    column_sine[static_cast<std::size_t>(x)] = std::sin(2.0 * M_PI * 11.0 * u + ph2);
  }

  for (int y = 0; y < height; ++y) {
    const double v = y / h;
    const double row_sine = std::sin(2.0 * M_PI * 9.0 * v + ph3);
    for (int x = 0; x < width; ++x) {
      const double u = x / w;
      double val = 120.0 + 60.0 * (0.6 * u + 0.4 * v - 0.5);

      // Subject blob with soft falloff.
      const double dx = (x - cx) / rx;
      const double dy = (y - cy) / ry;
      const double d2 = dx * dx + dy * dy;
      val += r.contrast * 90.0 * std::exp(-1.6 * d2) - r.contrast * 25.0;

      // Mid-frequency structure (shoulders / furniture / background edges).
      val += r.edges * 30.0 *
             std::tanh(4.0 * std::sin(2.0 * M_PI * (1.7 * u + 0.9 * v) + ph1));

      // High-frequency texture: sinusoid mix + checker; this is what the
      // DCT spreads into high coefficients.
      const double tex =
          column_sine[static_cast<std::size_t>(x)] * row_sine +
          0.7 * (((x / 2 + y / 2) % 2 == 0) ? 1.0 : -1.0);
      val += r.detail * 38.0 * tex;

      // Fine film grain, scaled by detail.
      val += r.detail * 10.0 * rng.next_normal();

      img.set_clamped(x, y, static_cast<int>(std::lround(val)));
    }
  }
  return img;
}

}  // namespace aapx
