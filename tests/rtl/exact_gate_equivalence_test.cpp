// RTL ≡ gate: ExactBackend, the arithmetic of the paper's RTL simulation,
// must compute exactly what the synthesized truncated components compute.
//
// For every truncation the characterizer can pick (precision K from the
// full width down to 1, i.e. 0 to width-1 truncated LSBs), the w-bit
// truncated multiplier's 2w-bit product must equal ExactBackend(w, t, 0)
// .multiply, and the truncated adder's (w+1)-bit sum wrapped to w bits must
// equal ExactBackend(w, 0, t).add. Width 8 runs every operand pair; widths
// 16 and 32 run seeded random operands plus the two's complement corners.
// The netlists are evaluated 64 operand pairs at a time by PackedFuncSim.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "gatesim/packedsim.hpp"
#include "rtl/backend.hpp"
#include "synth/components.hpp"
#include "util/rng.hpp"

namespace aapx {
namespace {

struct EquivalenceCase {
  ComponentKind kind;
  AdderArch adder;
  MultArch mult;
  int width;
};

std::string case_name(const ::testing::TestParamInfo<EquivalenceCase>& info) {
  const EquivalenceCase& c = info.param;
  const std::string arch = c.kind == ComponentKind::multiplier
                               ? to_string(c.mult)
                               : to_string(c.adder);
  std::string name = to_string(c.kind) + "_" + arch + "_w" +
                     std::to_string(c.width);
  for (char& ch : name) {
    if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
  }
  return name;
}

/// Operand pairs as width-bit patterns: every pair at width 8, otherwise
/// the corners (0, 1, -1, min, max) crossed with each other, then seeded
/// random pairs.
std::vector<std::pair<std::uint64_t, std::uint64_t>> operand_pairs(int width) {
  const std::uint64_t mask = (std::uint64_t{1} << width) - 1;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> pairs;
  if (width == 8) {
    for (std::uint64_t a = 0; a <= mask; ++a) {
      for (std::uint64_t b = 0; b <= mask; ++b) pairs.emplace_back(a, b);
    }
    return pairs;
  }
  const std::uint64_t min = std::uint64_t{1} << (width - 1);
  const std::uint64_t corners[] = {0, 1, mask, min, min - 1};
  for (const std::uint64_t a : corners) {
    for (const std::uint64_t b : corners) pairs.emplace_back(a, b);
  }
  Rng rng(static_cast<std::uint64_t>(width));
  while (pairs.size() < 4096) {
    pairs.emplace_back(rng.next_u64() & mask, rng.next_u64() & mask);
  }
  return pairs;
}

class ExactGateEquivalenceTest
    : public ::testing::TestWithParam<EquivalenceCase> {
 protected:
  CellLibrary lib_ = make_nangate45_like();
};

TEST_P(ExactGateEquivalenceTest, BackendMatchesTruncatedComponent) {
  const EquivalenceCase c = GetParam();
  const int w = c.width;
  const bool mult = c.kind == ComponentKind::multiplier;
  const auto pairs = operand_pairs(w);
  constexpr auto kLanes = static_cast<std::size_t>(PackedFuncSim::kLanes);
  for (int t = 0; t < w; ++t) {
    const Netlist nl = make_component(lib_, {c.kind, w, t, c.adder, c.mult});
    PackedFuncSim sim(nl);
    ExactBackend be(w, mult ? t : 0, mult ? 0 : t);
    std::size_t mismatches = 0;
    std::vector<std::uint64_t> a(kLanes);
    std::vector<std::uint64_t> b(kLanes);
    for (std::size_t first = 0; first < pairs.size(); first += kLanes) {
      const std::size_t lanes = std::min(kLanes, pairs.size() - first);
      for (std::size_t j = 0; j < lanes; ++j) {
        a[j] = pairs[first + j].first;
        b[j] = pairs[first + j].second;
      }
      sim.set_bus("a", std::span<const std::uint64_t>(a.data(), lanes));
      sim.set_bus("b", std::span<const std::uint64_t>(b.data(), lanes));
      sim.eval();
      for (std::size_t j = 0; j < lanes; ++j) {
        const std::int64_t x = wrap_signed(static_cast<std::int64_t>(a[j]), w);
        const std::int64_t y = wrap_signed(static_cast<std::int64_t>(b[j]), w);
        const auto bus = static_cast<std::int64_t>(
            sim.bus_value("y", static_cast<int>(j)));
        const std::int64_t gate =
            mult ? wrap_signed(bus, 2 * w) : wrap_signed(bus, w);
        const std::int64_t rtl = mult ? be.multiply(x, y) : be.add(x, y);
        if (gate != rtl && ++mismatches <= 5) {
          ADD_FAILURE() << "t=" << t << " a=" << x << " b=" << y
                        << ": gate " << gate << " vs rtl " << rtl;
        }
      }
    }
    EXPECT_EQ(mismatches, 0u) << "t=" << t;
  }
}

std::vector<EquivalenceCase> all_cases() {
  std::vector<EquivalenceCase> cases;
  for (const int width : {8, 16, 32}) {
    for (const MultArch mult : {MultArch::array, MultArch::wallace}) {
      cases.push_back(
          {ComponentKind::multiplier, AdderArch::cla4, mult, width});
    }
    for (const AdderArch adder :
         {AdderArch::ripple, AdderArch::cla4, AdderArch::kogge_stone}) {
      cases.push_back({ComponentKind::adder, adder, MultArch::array, width});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(EveryTruncation, ExactGateEquivalenceTest,
                         ::testing::ValuesIn(all_cases()), case_name);

}  // namespace
}  // namespace aapx
