#include "core/stimulus.hpp"

#include <gtest/gtest.h>

#include "gatesim/funcsim.hpp"
#include "rtl/backend.hpp"
#include "synth/components.hpp"
#include "util/rng.hpp"

namespace aapx {
namespace {

TEST(StimulusTest, NormalStimulusShape) {
  const StimulusSet s = make_normal_stimulus(16, 100, 1);
  EXPECT_EQ(s.buses, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(s.size(), 100u);
  for (const auto& row : s.vectors) {
    ASSERT_EQ(row.size(), 2u);
    EXPECT_LT(row[0], std::uint64_t{1} << 16);
    EXPECT_LT(row[1], std::uint64_t{1} << 16);
  }
}

TEST(StimulusTest, NormalStimulusDeterministic) {
  const StimulusSet a = make_normal_stimulus(32, 50, 7);
  const StimulusSet b = make_normal_stimulus(32, 50, 7);
  EXPECT_EQ(a.vectors, b.vectors);
  const StimulusSet c = make_normal_stimulus(32, 50, 8);
  EXPECT_NE(a.vectors, c.vectors);
}

TEST(StimulusTest, SigmaControlsMagnitude) {
  const StimulusSet small = make_normal_stimulus(32, 500, 1, 16.0);
  for (const auto& row : small.vectors) {
    const std::int64_t v = wrap_signed(static_cast<std::int64_t>(row[0]), 32);
    EXPECT_LT(std::llabs(v), 200);  // ~12 sigma
  }
}

TEST(StimulusTest, MacStimulusHasThreeBuses) {
  const StimulusSet s = make_normal_mac_stimulus(8, 40, 2);
  EXPECT_EQ(s.buses, (std::vector<std::string>{"a", "b", "acc"}));
  for (const auto& row : s.vectors) {
    ASSERT_EQ(row.size(), 3u);
    EXPECT_LT(row[2], std::uint64_t{1} << 16);  // acc is 2*width bits
  }
}

TEST(StimulusTest, MixedMagnitudeCoversDecades) {
  const StimulusSet s = make_mixed_magnitude_stimulus(32, 2000, 3, 3.0, 24.0);
  int small = 0;
  int large = 0;
  for (const auto& row : s.vectors) {
    const std::int64_t v =
        std::llabs(wrap_signed(static_cast<std::int64_t>(row[0]), 32));
    if (v != 0 && v < 256) ++small;
    if (v > (1 << 20)) ++large;
  }
  EXPECT_GT(small, 100);
  EXPECT_GT(large, 100);
}

TEST(StimulusTest, RunningSumTracksAccumulator) {
  const StimulusSet s = make_running_sum_stimulus(32, 100, 5);
  // Operand a of step t+1 equals the leaky-accumulated sum of steps <= t.
  std::int64_t acc = 0;
  for (const auto& row : s.vectors) {
    EXPECT_EQ(row[0], static_cast<std::uint64_t>(acc) & 0xFFFFFFFFull);
    acc += wrap_signed(static_cast<std::int64_t>(row[1]), 32);
    acc -= acc / 16;
  }
}

TEST(StimulusTest, FromOperandPairs) {
  const std::vector<std::pair<std::int64_t, std::int64_t>> ops = {
      {3, -7}, {100, 200}, {-1, -1}};
  const StimulusSet s = stimulus_from_operand_pairs(ops, 16);
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s.vectors[0][1], 0xFFF9u);  // -7 wrapped to 16 bits
  const StimulusSet capped = stimulus_from_operand_pairs(ops, 16, 2);
  EXPECT_EQ(capped.size(), 2u);
}

TEST(StimulusTest, ArgumentValidation) {
  EXPECT_THROW(make_normal_stimulus(1, 10), std::invalid_argument);
  EXPECT_THROW(make_mixed_magnitude_stimulus(32, 10, 1, 10.0, 5.0),
               std::invalid_argument);
  EXPECT_THROW(make_running_sum_stimulus(64, 10), std::invalid_argument);
}

TEST(MeasureGateDutyTest, MatchesHandComputedDuty) {
  const CellLibrary lib = make_nangate45_like();
  Netlist nl(lib);
  const Word a = nl.add_input_bus("a", 2);
  const Word b = nl.add_input_bus("b", 2);
  // Gate 0: AND of the two LSBs.
  const NetId y = nl.mk(LogicFn::kAnd2, a[0], b[0]);
  nl.mark_output(y, "y");
  StimulusSet stim;
  stim.buses = {"a", "b"};
  stim.vectors = {{1, 1}, {1, 0}, {0, 1}, {3, 3}};
  const std::vector<double> duty = measure_gate_duty(nl, stim);
  ASSERT_EQ(duty.size(), 1u);
  EXPECT_DOUBLE_EQ(duty[0], 0.5);  // high for vectors 0 and 3
}

TEST(MeasureGateDutyTest, EmptyStimulusThrows) {
  const CellLibrary lib = make_nangate45_like();
  Netlist nl(lib);
  nl.add_input("a");
  StimulusSet empty;
  empty.buses = {"a"};
  EXPECT_THROW(measure_gate_duty(nl, empty), std::invalid_argument);
}

TEST(MeasureGateDutyTest, DutyBoundsRespected) {
  const CellLibrary lib = make_nangate45_like();
  const Netlist nl = make_component(
      lib, {ComponentKind::adder, 8, 0, AdderArch::cla4, MultArch::array});
  const StimulusSet stim = make_normal_stimulus(8, 200, 11);
  for (const double d : measure_gate_duty(nl, stim)) {
    EXPECT_GE(d, 0.0);
    EXPECT_LE(d, 1.0);
  }
}

// 1,000 vectors: 15 full 64-lane batches and a 40-lane tail. Each worker
// reuses one packed simulator over its run of batches, so a lane left over
// from one batch would show in the next batch's counts; the per-vector
// scalar FuncSim count is the reference, at every thread count.
TEST(MeasureGateDutyTest, ReusedSimulatorMatchesScalarOnEveryGenerator) {
  const CellLibrary lib = make_nangate45_like();
  const ComponentSpec specs[] = {
      {ComponentKind::adder, 16, 0, AdderArch::ripple, MultArch::array},
      {ComponentKind::adder, 16, 3, AdderArch::cla4, MultArch::array},
      {ComponentKind::adder, 16, 0, AdderArch::kogge_stone, MultArch::array},
      {ComponentKind::adder, 16, 6, AdderArch::ripple, MultArch::array,
       ApproxTechnique::carry_window},
      {ComponentKind::multiplier, 8, 0, AdderArch::cla4, MultArch::array},
      {ComponentKind::multiplier, 8, 2, AdderArch::cla4, MultArch::wallace},
      {ComponentKind::multiplier, 8, 3, AdderArch::cla4, MultArch::array,
       ApproxTechnique::pp_truncation},
      {ComponentKind::mac, 8, 0, AdderArch::cla4, MultArch::array},
      {ComponentKind::clamp, 12, 0, AdderArch::cla4, MultArch::array},
  };
  for (const ComponentSpec& spec : specs) {
    const Netlist nl = make_component(lib, spec);
    StimulusSet stim;
    stim.buses = nl.input_bus_names();
    Rng rng(static_cast<std::uint64_t>(spec.width * 31 + spec.truncated_bits));
    stim.vectors.resize(1000);
    for (auto& row : stim.vectors) {
      for (std::size_t b = 0; b < stim.buses.size(); ++b) {
        row.push_back(rng.next_u64());
      }
    }

    std::vector<std::uint64_t> high(nl.num_gates(), 0);
    FuncSim scalar(nl);
    for (const auto& row : stim.vectors) {
      for (std::size_t b = 0; b < stim.buses.size(); ++b) {
        scalar.set_bus(stim.buses[b], row[b]);
      }
      scalar.eval();
      for (std::size_t g = 0; g < nl.num_gates(); ++g) {
        if (scalar.value(nl.gates()[g].fanout)) ++high[g];
      }
    }
    std::vector<double> expected(nl.num_gates());
    for (std::size_t g = 0; g < nl.num_gates(); ++g) {
      expected[g] = static_cast<double>(high[g]) / 1000.0;
    }

    for (const int threads : {1, 3, 4}) {
      EXPECT_EQ(measure_gate_duty(nl, stim, threads), expected)
          << spec.name() << " at " << threads << " threads";
    }
  }
}

}  // namespace
}  // namespace aapx
