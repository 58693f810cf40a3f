#include "synth/dct_unit.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "gatesim/funcsim.hpp"
#include "synth/components.hpp"
#include "netlist/stats.hpp"
#include "rtl/backend.hpp"
#include "sta/sta.hpp"
#include "util/rng.hpp"

namespace aapx {
namespace {

class DctUnitTest : public ::testing::Test {
 protected:
  CellLibrary lib_ = make_nangate45_like();
};

TEST_F(DctUnitTest, CoefficientsMatchOrthonormalBasis) {
  // DC row: all coefficients equal round(sqrt(1/8) * 2^frac).
  const std::int64_t dc = idct_unit_coefficient(0, 0, 7);
  EXPECT_EQ(dc, std::llround(std::sqrt(1.0 / 8.0) * 128.0));
  for (int n = 1; n < 8; ++n) EXPECT_EQ(idct_unit_coefficient(n, 0, 7), dc);
  // Coefficients are bounded by sqrt(2/8) * 2^frac.
  for (int n = 0; n < 8; ++n) {
    for (int k = 0; k < 8; ++k) {
      EXPECT_LE(std::llabs(idct_unit_coefficient(n, k, 7)), 65);
    }
  }
  EXPECT_THROW(idct_unit_coefficient(8, 0, 7), std::invalid_argument);
}

TEST_F(DctUnitTest, MatchesReferenceOnRandomVectors) {
  IdctUnitSpec spec;
  spec.data_width = 10;
  spec.frac_bits = 5;
  const Netlist nl = make_idct_row_unit(lib_, spec);
  FuncSim sim(nl);
  Rng rng(17);
  const std::uint64_t mask = (std::uint64_t{1} << spec.data_width) - 1;
  for (int iter = 0; iter < 150; ++iter) {
    std::int64_t x[8];
    for (int k = 0; k < 8; ++k) {
      x[k] = rng.next_int(-(1 << (spec.data_width - 1)),
                          (1 << (spec.data_width - 1)) - 1);
      sim.set_bus(std::string("x").append(std::to_string(k)), static_cast<std::uint64_t>(x[k]) & mask);
    }
    sim.eval();
    for (int n = 0; n < 8; ++n) {
      const std::int64_t got = wrap_signed(
          static_cast<std::int64_t>(sim.bus_value(std::string("y").append(std::to_string(n)))),
          spec.output_width());
      ASSERT_EQ(got, idct_unit_reference(spec, n, x)) << "n=" << n;
    }
  }
}

TEST_F(DctUnitTest, TruncatedUnitMatchesTruncatedReference) {
  IdctUnitSpec spec;
  spec.data_width = 10;
  spec.frac_bits = 5;
  spec.truncated_bits = 3;
  const Netlist nl = make_idct_row_unit(lib_, spec);
  FuncSim sim(nl);
  Rng rng(19);
  const std::uint64_t mask = (std::uint64_t{1} << spec.data_width) - 1;
  for (int iter = 0; iter < 100; ++iter) {
    std::int64_t x[8];
    for (int k = 0; k < 8; ++k) {
      x[k] = rng.next_int(-512, 511);
      sim.set_bus(std::string("x").append(std::to_string(k)), static_cast<std::uint64_t>(x[k]) & mask);
    }
    sim.eval();
    for (int n = 0; n < 8; ++n) {
      const std::int64_t got = wrap_signed(
          static_cast<std::int64_t>(sim.bus_value(std::string("y").append(std::to_string(n)))),
          spec.output_width());
      ASSERT_EQ(got, idct_unit_reference(spec, n, x));
    }
  }
}

TEST_F(DctUnitTest, ConstantFoldingShrinksFarBelowGenericMultipliers) {
  IdctUnitSpec spec;
  spec.data_width = 12;
  spec.frac_bits = 6;
  const Netlist unit = make_idct_row_unit(lib_, spec);
  // A single generic 12-bit multiplier for comparison.
  const Netlist generic = make_component(
      lib_, {ComponentKind::multiplier, 12, 0, AdderArch::cla4, MultArch::array});
  // The dedicated unit holds 64 constant multipliers plus adder trees; the
  // folded shift-add structure must come in well under half of what 64
  // generic multipliers would cost (in practice each constant multiplier is
  // 2-3x smaller — the ~6 nonzero coefficient bits keep ~half the rows).
  EXPECT_LT(compute_stats(unit).gates, 32 * compute_stats(generic).gates);
  EXPECT_GT(unit.num_gates(), 64 * compute_stats(generic).gates / 8);
}

TEST_F(DctUnitTest, TruncationShortensCriticalPath) {
  IdctUnitSpec full;
  full.data_width = 12;
  full.frac_bits = 6;
  IdctUnitSpec trunc = full;
  trunc.truncated_bits = 4;
  const double d_full = Sta(make_idct_row_unit(lib_, full)).run_fresh().max_delay;
  const double d_trunc =
      Sta(make_idct_row_unit(lib_, trunc)).run_fresh().max_delay;
  EXPECT_LT(d_trunc, d_full);
}

TEST_F(DctUnitTest, SpecValidation) {
  EXPECT_THROW(make_idct_row_unit(lib_, {4, 2, 0, AdderArch::cla4}),
               std::invalid_argument);
  EXPECT_THROW(make_idct_row_unit(lib_, {16, 16, 0, AdderArch::cla4}),
               std::invalid_argument);
  EXPECT_THROW(make_idct_row_unit(lib_, {16, 7, 16, AdderArch::cla4}),
               std::invalid_argument);
}

}  // namespace
}  // namespace aapx
