#include "synth/dct_unit.hpp"

#include <cmath>
#include <stdexcept>

#include "synth/passes.hpp"

namespace aapx {
namespace {

double basis(int k, int n) {
  const double scale = k == 0 ? std::sqrt(1.0 / 8.0) : std::sqrt(2.0 / 8.0);
  return scale * std::cos((2.0 * n + 1.0) * k * M_PI / 16.0);
}

/// Two's complement wrap without pulling in the rtl library.
std::int64_t wrap(std::int64_t v, int bits) {
  const std::uint64_t mask = (std::uint64_t{1} << bits) - 1;
  std::uint64_t u = static_cast<std::uint64_t>(v) & mask;
  if (u & (std::uint64_t{1} << (bits - 1))) u |= ~mask;
  return static_cast<std::int64_t>(u);
}

}  // namespace

std::int64_t idct_unit_coefficient(int n, int k, int frac_bits) {
  if (n < 0 || n >= 8 || k < 0 || k >= 8) {
    throw std::invalid_argument("idct_unit_coefficient: bad index");
  }
  return std::llround(basis(k, n) *
                      static_cast<double>(std::int64_t{1} << frac_bits));
}

std::int64_t idct_unit_reference(const IdctUnitSpec& spec, int n,
                                 const std::int64_t x[8]) {
  std::int64_t acc = 0;
  for (int k = 0; k < 8; ++k) {
    std::int64_t xv = wrap(x[k], spec.data_width);
    xv &= ~((std::int64_t{1} << spec.truncated_bits) - 1);  // LSB truncation
    const std::int64_t c = idct_unit_coefficient(n, k, spec.frac_bits);
    const std::int64_t term = (c * xv) >> spec.frac_bits;  // floor shift
    acc = wrap(acc + wrap(term, spec.output_width()), spec.output_width());
  }
  return acc;
}

Netlist make_idct_row_unit(const CellLibrary& lib, const IdctUnitSpec& spec) {
  if (spec.data_width < 8 || spec.data_width > 24) {
    throw std::invalid_argument("make_idct_row_unit: data_width in [8, 24]");
  }
  if (spec.frac_bits < 4 || spec.frac_bits >= spec.data_width) {
    throw std::invalid_argument("make_idct_row_unit: bad frac_bits");
  }
  if (spec.truncated_bits < 0 || spec.truncated_bits >= spec.data_width) {
    throw std::invalid_argument("make_idct_row_unit: bad truncated_bits");
  }
  Netlist nl(lib);
  std::vector<Word> x(8);
  for (int k = 0; k < 8; ++k) {
    x[static_cast<std::size_t>(k)] =
        nl.add_input_bus(std::string("x").append(std::to_string(k)),
                         spec.data_width);
    for (int t = 0; t < spec.truncated_bits; ++t) {
      x[static_cast<std::size_t>(k)][static_cast<std::size_t>(t)] = nl.const0();
    }
  }

  // Coefficient words: the constant's two's complement bits as const0/const1
  // nets; the multiplier generator then emits logic the optimizer folds into
  // the canonical shift-add structure of the constant.
  auto const_word = [&](std::int64_t value) {
    Word w(static_cast<std::size_t>(spec.data_width), nl.const0());
    const std::uint64_t bits = static_cast<std::uint64_t>(value);
    for (int b = 0; b < spec.data_width; ++b) {
      if ((bits >> b) & 1u) w[static_cast<std::size_t>(b)] = nl.const1();
    }
    return w;
  };

  const int out_w = spec.output_width();
  for (int n = 0; n < 8; ++n) {
    std::vector<Word> terms;
    for (int k = 0; k < 8; ++k) {
      const std::int64_t c = idct_unit_coefficient(n, k, spec.frac_bits);
      const Word cw = const_word(wrap(c, spec.data_width));
      Word product =
          build_multiplier(nl, x[static_cast<std::size_t>(k)], cw,
                           MultArch::array);
      // Floor shift by frac_bits: keep bits [frac, frac + out_w).
      Word term;
      for (int b = 0; b < out_w; ++b) {
        const std::size_t idx = static_cast<std::size_t>(spec.frac_bits + b);
        term.push_back(idx < product.size() ? product[idx] : product.back());
      }
      terms.push_back(std::move(term));
    }
    // Balanced adder tree over the eight terms, wrapping at out_w bits.
    while (terms.size() > 1) {
      std::vector<Word> next;
      for (std::size_t i = 0; i + 1 < terms.size(); i += 2) {
        Word sum =
            build_adder(nl, terms[i], terms[i + 1], nl.const0(), spec.adder_arch);
        sum.resize(static_cast<std::size_t>(out_w));
        next.push_back(std::move(sum));
      }
      if (terms.size() % 2 == 1) next.push_back(terms.back());
      terms = std::move(next);
    }
    nl.mark_output_bus(terms[0], std::string("y").append(std::to_string(n)));
  }
  return optimize(nl).netlist;
}

}  // namespace aapx
