// Measured (sampled) error profiles for approximate components: drives a
// stimulus set through a netlist on the 64-lane packed simulator and
// compares every vector against an exact reference. The sampling
// counterpart of approx/error_bounds.hpp's analytic bounds — benches use it
// to show where the measured profile sits inside the bound.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "core/stimulus.hpp"
#include "netlist/netlist.hpp"

namespace aapx {

/// Error statistics of an approximate netlist vs. an exact reference over a
/// stimulus set.
struct SampledErrorProfile {
  double error_rate = 0.0;  ///< fraction of operations with any error
  double mean_abs = 0.0;    ///< mean |error| over erroneous operations
  double max_abs = 0.0;
};

/// Runs `stim` through `nl` (packed simulation, one eval per 64 vectors)
/// and compares each vector's decoded output against the reference.
/// `decode` maps the raw LSB-first `output_bus` word to the comparable value
/// (sign wrap, carry-out masking); `expect` maps a stimulus row to the
/// reference value. Statistics accumulate in stimulus order, so the result
/// is bit-identical to a scalar per-vector loop.
SampledErrorProfile sample_error_profile(
    const Netlist& nl, const StimulusSet& stim, const std::string& output_bus,
    const std::function<std::int64_t(std::uint64_t raw)>& decode,
    const std::function<std::int64_t(const std::vector<std::uint64_t>& row)>&
        expect);

}  // namespace aapx
