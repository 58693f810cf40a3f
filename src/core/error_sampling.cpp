#include "core/error_sampling.hpp"

#include <cmath>
#include <stdexcept>

#include "gatesim/packedsim.hpp"
#include "util/stats.hpp"

namespace aapx {

SampledErrorProfile sample_error_profile(
    const Netlist& nl, const StimulusSet& stim, const std::string& output_bus,
    const std::function<std::int64_t(std::uint64_t raw)>& decode,
    const std::function<std::int64_t(const std::vector<std::uint64_t>& row)>&
        expect) {
  if (stim.vectors.empty()) {
    throw std::invalid_argument("sample_error_profile: empty stimulus");
  }
  for (const auto& row : stim.vectors) {
    if (row.size() != stim.buses.size()) {
      throw std::invalid_argument("sample_error_profile: ragged stimulus");
    }
  }
  PackedFuncSim sim(nl);
  constexpr std::size_t lanes = PackedFuncSim::kLanes;
  const std::size_t n = stim.vectors.size();
  std::size_t wrong = 0;
  RunningStats abs_err;
  double max_abs = 0.0;
  std::vector<std::uint64_t> lane_values;
  // Lane readout stays in stimulus order, so the RunningStats stream — and
  // with it the reported mean — matches a scalar walk of the stimulus.
  for (std::size_t first = 0; first < n; first += lanes) {
    const std::size_t count = std::min(lanes, n - first);
    lane_values.resize(count);
    for (std::size_t b = 0; b < stim.buses.size(); ++b) {
      for (std::size_t i = 0; i < count; ++i) {
        lane_values[i] = stim.vectors[first + i][b];
      }
      sim.set_bus(stim.buses[b], lane_values);
    }
    sim.eval();
    for (std::size_t i = 0; i < count; ++i) {
      const std::int64_t got =
          decode(sim.bus_value(output_bus, static_cast<int>(i)));
      const std::int64_t want = expect(stim.vectors[first + i]);
      if (got != want) {
        ++wrong;
        const double e = std::abs(static_cast<double>(got - want));
        abs_err.add(e);
        max_abs = std::max(max_abs, e);
      }
    }
  }
  return {static_cast<double>(wrong) / static_cast<double>(n), abs_err.mean(),
          max_abs};
}

}  // namespace aapx
