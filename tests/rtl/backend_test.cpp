#include "rtl/backend.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "approx/error_bounds.hpp"
#include "image/synthetic.hpp"
#include "rtl/codec.hpp"
#include "sta/sta.hpp"
#include "synth/components.hpp"
#include "util/rng.hpp"

namespace aapx {
namespace {

TEST(ExactBackendTest, ExactWhenNoTruncation) {
  ExactBackend be(16, 0, 0);
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t a = rng.next_int(-32768, 32767);
    const std::int64_t b = rng.next_int(-32768, 32767);
    EXPECT_EQ(be.multiply(a, b), a * b);
    EXPECT_EQ(be.add(a, b), wrap_signed(a + b, 16));
  }
}

TEST(ExactBackendTest, TruncationAppliedToOperands) {
  ExactBackend be(16, 3, 2);
  EXPECT_EQ(be.multiply(7, 9), 0);  // both truncate to 0
  EXPECT_EQ(be.multiply(8, 9), 8 * 8);
  EXPECT_EQ(be.add(7, 3), 4);  // 4 + 0
}

TEST(ExactBackendTest, TruncationErrorWithinBound) {
  const int width = 16;
  const int k = 4;
  ExactBackend be(width, k, 0);
  Rng rng(2);
  const std::int64_t bound = multiplier_error_bound(width, k);
  for (int i = 0; i < 5000; ++i) {
    const std::int64_t a = rng.next_int(-32768, 32767);
    const std::int64_t b = rng.next_int(-32768, 32767);
    EXPECT_LE(std::llabs(a * b - be.multiply(a, b)), bound);
  }
}

/// An in-width value, an arbitrary 64-bit pattern or an int64 extreme.
std::int64_t any_operand(Rng& rng, int width) {
  switch (rng.next_below(4)) {
    case 0:
      return static_cast<std::int64_t>(rng.next_u64());
    case 1:
      return rng.next_bool() ? std::numeric_limits<std::int64_t>::min()
                             : std::numeric_limits<std::int64_t>::max();
    default: {
      const std::int64_t half = std::int64_t{1} << (width - 1);
      return rng.next_int(-half, half - 1);
    }
  }
}

TEST(ExactBackendTest, MatchesWrapThenTruncateReference) {
  // The reference composition: wrap each operand to the width, clear its
  // truncated LSBs, then wrap the result to the product or sum width.
  Rng rng(6);
  for (const int width : {2, 9, 16, 31, 32}) {
    for (const int k : {0, 1, width - 1}) {
      ExactBackend be(width, k, k);
      const auto operand = [&](std::int64_t v) {
        return truncate_lsbs(wrap_signed(v, width), k);
      };
      for (int i = 0; i < 2000; ++i) {
        const std::int64_t a = any_operand(rng, width);
        const std::int64_t b = any_operand(rng, width);
        ASSERT_EQ(be.multiply(a, b),
                  wrap_signed(operand(a) * operand(b), 2 * width))
            << "width " << width << " k " << k << ": " << a << " * " << b;
        ASSERT_EQ(be.add(a, b), wrap_signed(operand(a) + operand(b), width))
            << "width " << width << " k " << k << ": " << a << " + " << b;
      }
    }
  }
}

TEST(ExactBackendTest, ArgumentValidation) {
  EXPECT_THROW(ExactBackend(1, 0, 0), std::invalid_argument);
  EXPECT_THROW(ExactBackend(33, 0, 0), std::invalid_argument);
  EXPECT_THROW(ExactBackend(16, 16, 0), std::invalid_argument);
  EXPECT_THROW(ExactBackend(16, 0, -1), std::invalid_argument);
}

class TimedBackendTest : public ::testing::Test {
 protected:
  void SetUp() override {
    lib_ = make_nangate45_like();
    mult_ = std::make_unique<Netlist>(make_component(
        lib_, {ComponentKind::multiplier, 12, 0, AdderArch::cla4, MultArch::array}));
    adder_ = std::make_unique<Netlist>(make_component(
        lib_, {ComponentKind::adder, 12, 0, AdderArch::cla4, MultArch::array}));
  }

  CellLibrary lib_;
  std::unique_ptr<Netlist> mult_;
  std::unique_ptr<Netlist> adder_;
};

TEST_F(TimedBackendTest, MatchesExactAtGenerousClock) {
  const Sta msta(*mult_);
  const Sta asta(*adder_);
  TimedNetlistBackend be(*mult_, msta.gate_delays(nullptr, nullptr), *adder_,
                         asta.gate_delays(nullptr, nullptr), 12, 1e9);
  ExactBackend ref(12, 0, 0);
  Rng rng(3);
  for (int i = 0; i < 300; ++i) {
    const std::int64_t a = rng.next_int(-2048, 2047);
    const std::int64_t b = rng.next_int(-2048, 2047);
    EXPECT_EQ(be.multiply(a, b), ref.multiply(a, b));
    EXPECT_EQ(be.add(a, b), ref.add(a, b));
  }
  EXPECT_EQ(be.mult_errors(), 0u);
  EXPECT_EQ(be.add_errors(), 0u);
  EXPECT_EQ(be.mult_ops(), 300u);
  EXPECT_GT(be.max_mult_settle(), 0.0);
}

TEST_F(TimedBackendTest, TightClockCausesCountedErrors) {
  const Sta msta(*mult_);
  const Sta asta(*adder_);
  TimedNetlistBackend be(*mult_, msta.gate_delays(nullptr, nullptr), *adder_,
                         asta.gate_delays(nullptr, nullptr), 12, 10.0);
  Rng rng(4);
  bool any_wrong = false;
  for (int i = 0; i < 100; ++i) {
    const std::int64_t a = rng.next_int(-2048, 2047);
    const std::int64_t b = rng.next_int(-2048, 2047);
    if (be.multiply(a, b) != a * b) any_wrong = true;
  }
  EXPECT_TRUE(any_wrong);
  EXPECT_GT(be.mult_errors(), 0u);
}

TEST_F(TimedBackendTest, ConstructorValidation) {
  const Sta msta(*mult_);
  const Sta asta(*adder_);
  EXPECT_THROW(TimedNetlistBackend(*mult_, msta.gate_delays(nullptr, nullptr),
                                   *adder_, asta.gate_delays(nullptr, nullptr),
                                   12, 0.0),
               std::invalid_argument);
  EXPECT_THROW(TimedNetlistBackend(*mult_, msta.gate_delays(nullptr, nullptr),
                                   *adder_, asta.gate_delays(nullptr, nullptr),
                                   1, 100.0),
               std::invalid_argument);
}

TEST_F(TimedBackendTest, OutOfRangeObservedWindowThrows) {
  // The 12-bit multiplier's product bus has 24 bits. A window outside it
  // would check no bit and silently report zero errors.
  const Sta msta(*mult_);
  const Sta asta(*adder_);
  const auto make = [&](ObservedWindow w) {
    return TimedNetlistBackend(*mult_, msta.gate_delays(nullptr, nullptr),
                               *adder_, asta.gate_delays(nullptr, nullptr), 12,
                               10.0, DelayModel::transport, w);
  };
  for (const ObservedWindow w : {ObservedWindow{-1, -1}, ObservedWindow{24, -1},
                                 ObservedWindow{30, 4}, ObservedWindow{20, 8},
                                 ObservedWindow{4, 0}, ObservedWindow{4, -2}}) {
    EXPECT_THROW(make(w), std::invalid_argument) << w.lo << "+" << w.count;
  }
  for (const ObservedWindow w : {ObservedWindow{0, -1}, ObservedWindow{0, 24},
                                 ObservedWindow{6, 12}, ObservedWindow{23, 1}}) {
    TimedNetlistBackend be = make(w);
    Rng rng(5);
    for (int i = 0; i < 20; ++i) {
      be.multiply(rng.next_int(-2048, 2047), rng.next_int(-2048, 2047));
    }
    EXPECT_GT(be.max_mult_settle(), 0.0) << w.lo << "+" << w.count;
  }
}

TEST_F(TimedBackendTest, TrippedCancelTokenStopsEveryOperation) {
  const Sta msta(*mult_);
  const Sta asta(*adder_);
  const auto make = [&](const CancelToken* cancel) {
    return TimedNetlistBackend(*mult_, msta.gate_delays(nullptr, nullptr),
                               *adder_, asta.gate_delays(nullptr, nullptr), 12,
                               1e9, DelayModel::transport, {}, cancel);
  };
  CancelToken token;
  TimedNetlistBackend watched = make(&token);
  TimedNetlistBackend unwatched = make(nullptr);
  token.cancel();
  EXPECT_THROW(watched.multiply(3, -5), CancelledError);
  EXPECT_THROW(watched.add(3, -5), CancelledError);
  EXPECT_EQ(unwatched.multiply(3, -5), -15);
  EXPECT_EQ(unwatched.add(3, -5), -2);
}

/// An operand of a sparse transform input: 0; a value the multiplier
/// truncates to 0 (0 <= v < 2^mult_trunc); a multiple of 2^width, which
/// wraps to 0; a small negative value, which truncates to -2^mult_trunc, not
/// to 0; or any operand.
std::int64_t sparse_operand(Rng& rng, int width, int mult_trunc) {
  const std::int64_t below_lsb = std::int64_t{1} << mult_trunc;
  switch (rng.next_below(5)) {
    case 0:
      return 0;
    case 1:
      return rng.next_int(0, below_lsb - 1);
    case 2:
      return rng.next_int(-(1 << 20), 1 << 20) * (std::int64_t{1} << width);
    case 3:
      return -rng.next_int(1, below_lsb);
    default:
      return any_operand(rng, width);
  }
}

/// All-zero, one-nonzero (at every position) and mixed sparse vectors.
std::vector<TransformVector> sparse_vectors(Rng& rng, int width,
                                            int mult_trunc) {
  std::vector<TransformVector> out(1, TransformVector{});
  for (std::size_t at = 0; at < kTransformPoints; ++at) {
    TransformVector one{};
    while (one[at] == 0) one[at] = sparse_operand(rng, width, mult_trunc);
    out.push_back(one);
  }
  for (int trial = 0; trial < 8; ++trial) {
    TransformVector mixed{};
    for (auto& v : mixed) v = sparse_operand(rng, width, mult_trunc);
    out.push_back(mixed);
  }
  return out;
}

TEST(ArithBackendTest, ExactTransformMatchesPerOpStream) {
  Rng rng(19);
  for (const int width : {9, 12, 16, 24, 31, 32}) {
    for (const int mult_trunc : {0, 3, width - 1}) {
      for (const int add_trunc : {0, 3, width - 1}) {
        ExactBackend batched(width, mult_trunc, add_trunc);
        ExactBackend inner(width, mult_trunc, add_trunc);
        // Overrides only multiply/add/width: takes the base transform().
        RecordingBackend per_op(inner);
        for (const int frac : {1, 7, 14, width - 3}) {
          for (int trial = 0; trial < 8; ++trial) {
            TransformMatrix m{};
            TransformVector x{};
            for (auto& row : m) {
              for (auto& c : row) c = any_operand(rng, width);
            }
            for (auto& v : x) v = any_operand(rng, width);
            ASSERT_EQ(batched.transform(m, x, frac), per_op.transform(m, x, frac))
                << "width " << width << " trunc " << mult_trunc << "/"
                << add_trunc << " frac " << frac << " trial " << trial;
          }
          // The batched path skips operands that truncate or wrap to 0;
          // every skip must leave the per-op result unchanged, negative
          // and sparse coefficients included.
          for (const TransformVector& x :
               sparse_vectors(rng, width, mult_trunc)) {
            TransformMatrix m{};
            for (auto& row : m) {
              for (auto& c : row) c = sparse_operand(rng, width, mult_trunc);
            }
            ASSERT_EQ(batched.transform(m, x, frac), per_op.transform(m, x, frac))
                << "width " << width << " trunc " << mult_trunc << "/"
                << add_trunc << " frac " << frac << " sparse x[0] " << x[0];
          }
        }
      }
    }
  }
  ExactBackend be(16, 0, 0);
  EXPECT_THROW(be.transform({}, {}, 0), std::invalid_argument);
  EXPECT_THROW(be.transform({}, {}, 63), std::invalid_argument);

  // Codec level: every sequence, edge blocks included (52x44 is not a
  // multiple of 8), encodes to the same levels and decodes to the same
  // pixels through either path.
  CodecConfig cfg;
  cfg.frac_bits = 7;
  ExactBackend batched(cfg.width, 3, 2);
  ExactBackend inner(cfg.width, 3, 2);
  for (const auto& name : video_trace_names()) {
    RecordingBackend per_op(inner);
    const Image img = make_video_trace_frame(name, 52, 44);
    const QuantizedImage q = FixedPointDct(cfg, batched).encode(img);
    ASSERT_EQ(q.blocks, FixedPointDct(cfg, per_op).encode(img).blocks) << name;
    const Image a = FixedPointIdct(cfg, batched).decode(q);
    const Image b = FixedPointIdct(cfg, per_op).decode(q);
    for (int y = 0; y < img.height(); ++y) {
      for (int x = 0; x < img.width(); ++x) {
        ASSERT_EQ(a.at(x, y), b.at(x, y)) << name << " at " << x << "," << y;
      }
    }
  }
}

TEST(RecordingBackendTest, RecordsMultiplyOperands) {
  ExactBackend inner(16, 0, 0);
  RecordingBackend rec(inner);
  EXPECT_EQ(rec.multiply(3, -7), -21);
  EXPECT_EQ(rec.multiply(100, 5), 500);
  EXPECT_EQ(rec.add(1, 2), 3);  // adds not recorded
  ASSERT_EQ(rec.mult_ops().size(), 2u);
  const auto expected = std::make_pair<std::int64_t, std::int64_t>(3, -7);
  EXPECT_EQ(rec.mult_ops()[0], expected);
  EXPECT_EQ(rec.width(), 16);
}

}  // namespace
}  // namespace aapx
