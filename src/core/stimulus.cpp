#include "core/stimulus.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "engine/context.hpp"
#include "gatesim/packedsim.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace aapx {
namespace {

std::uint64_t wrap_to_width(std::int64_t v, int width) {
  const std::uint64_t mask =
      width >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << width) - 1;
  return static_cast<std::uint64_t>(v) & mask;
}

double default_sigma(int width) {
  // Typical multimedia data occupies the low ~60% of the dynamic range;
  // scale sigma so operands exercise carry chains without saturating.
  return std::pow(2.0, 0.6 * width);
}

}  // namespace

StimulusSet make_normal_stimulus(int width, std::size_t count,
                                 std::uint64_t seed, double sigma) {
  if (width <= 1 || width > 64) {
    throw std::invalid_argument("make_normal_stimulus: bad width");
  }
  if (sigma <= 0.0) sigma = default_sigma(width);
  Rng rng(seed);
  StimulusSet set;
  set.buses = {"a", "b"};
  set.vectors.reserve(count);
  const std::int64_t lim = width >= 63 ? INT64_MAX / 2
                                       : (std::int64_t{1} << (width - 1)) - 1;
  for (std::size_t i = 0; i < count; ++i) {
    const std::int64_t a = rng.next_normal_int(sigma, -lim, lim);
    const std::int64_t b = rng.next_normal_int(sigma, -lim, lim);
    set.vectors.push_back({wrap_to_width(a, width), wrap_to_width(b, width)});
  }
  return set;
}

StimulusSet make_normal_mac_stimulus(int width, std::size_t count,
                                     std::uint64_t seed, double sigma) {
  StimulusSet set = make_normal_stimulus(width, count, seed, sigma);
  set.buses = {"a", "b", "acc"};
  Rng rng(seed ^ 0xaccULL);
  const double acc_sigma = (sigma <= 0.0 ? default_sigma(width) : sigma) * 8.0;
  const int acc_width = 2 * width;
  const std::int64_t lim = acc_width >= 63
                               ? INT64_MAX / 2
                               : (std::int64_t{1} << (acc_width - 1)) - 1;
  for (auto& row : set.vectors) {
    row.push_back(wrap_to_width(rng.next_normal_int(acc_sigma, -lim, lim),
                                acc_width));
  }
  return set;
}

StimulusSet make_mixed_magnitude_stimulus(int width, std::size_t count,
                                          std::uint64_t seed, double min_exp,
                                          double max_exp) {
  if (width <= 1 || width > 63) {
    throw std::invalid_argument("make_mixed_magnitude_stimulus: bad width");
  }
  if (min_exp < 0.0 || max_exp <= min_exp || max_exp >= width) {
    throw std::invalid_argument("make_mixed_magnitude_stimulus: bad exponents");
  }
  Rng rng(seed);
  StimulusSet set;
  set.buses = {"a", "b"};
  set.vectors.reserve(count);
  const std::int64_t lim = (std::int64_t{1} << (width - 1)) - 1;
  for (std::size_t i = 0; i < count; ++i) {
    const double e = min_exp + (max_exp - min_exp) * rng.next_double();
    const double sigma = std::pow(2.0, e);
    const std::int64_t a = rng.next_normal_int(sigma, -lim, lim);
    const std::int64_t b = rng.next_normal_int(sigma, -lim, lim);
    set.vectors.push_back({wrap_to_width(a, width), wrap_to_width(b, width)});
  }
  return set;
}

StimulusSet make_running_sum_stimulus(int width, std::size_t count,
                                      std::uint64_t seed, double sigma) {
  if (width <= 1 || width > 63) {
    throw std::invalid_argument("make_running_sum_stimulus: bad width");
  }
  if (sigma <= 0.0) sigma = default_sigma(width);
  Rng rng(seed);
  StimulusSet set;
  set.buses = {"a", "b"};
  set.vectors.reserve(count);
  const std::int64_t lim = (std::int64_t{1} << (width - 1)) - 1;
  std::int64_t acc = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::int64_t sample = rng.next_normal_int(sigma, -lim, lim);
    set.vectors.push_back({wrap_to_width(acc, width), wrap_to_width(sample, width)});
    acc += sample;
    // Leaky accumulator: keeps the running sum in a realistic dynamic range
    // instead of random-walking to the rails.
    acc -= acc / 16;
  }
  return set;
}

StimulusSet make_carry_stress_stimulus(int width, std::size_t count,
                                       std::uint64_t seed, double sigma) {
  if (width <= 1 || width > 63) {
    throw std::invalid_argument("make_carry_stress_stimulus: bad width");
  }
  if (sigma <= 0.0) sigma = default_sigma(width);
  Rng rng(seed);
  StimulusSet set;
  set.buses = {"a", "b"};
  set.vectors.reserve(count);
  const std::uint64_t all = (std::uint64_t{1} << width) - 1;
  const std::int64_t lim = (std::int64_t{1} << (width - 1)) - 1;
  const int max_j = width / 2;
  std::int64_t acc = 0;
  int j = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t phase = i % 5;
    if (phase == 3) {
      // Arm: ones from bit j up, no carry activity yet.
      const std::uint64_t mask = all & ~((std::uint64_t{1} << j) - 1);
      set.vectors.push_back({mask, 0});
    } else if (phase == 4) {
      // Fire: flip only bit j of b -> a single carry generated at bit j
      // ripples through the all-ones prefix of a to the MSB, a chain of
      // width - j stages. (A generate must sit at the *lowest* alive bit to
      // maximize the chain; simultaneous generates collapse to the highest
      // one, so j has to sweep rather than stack.)
      const std::uint64_t mask = all & ~((std::uint64_t{1} << j) - 1);
      set.vectors.push_back({mask, std::uint64_t{1} << j});
      j = (j + 1) % (max_j + 1);
    } else {
      const std::int64_t sample = rng.next_normal_int(sigma, -lim, lim);
      set.vectors.push_back(
          {wrap_to_width(acc, width), wrap_to_width(sample, width)});
      acc += sample;
      acc -= acc / 16;
    }
  }
  return set;
}

StimulusSet stimulus_from_operand_pairs(
    const std::vector<std::pair<std::int64_t, std::int64_t>>& ops, int width,
    std::size_t max_count) {
  StimulusSet set;
  set.buses = {"a", "b"};
  const std::size_t n =
      max_count == 0 ? ops.size() : std::min(max_count, ops.size());
  set.vectors.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    set.vectors.push_back(
        {wrap_to_width(ops[i].first, width), wrap_to_width(ops[i].second, width)});
  }
  return set;
}

std::vector<double> measure_gate_duty(const Netlist& nl,
                                      const StimulusSet& stimulus,
                                      int threads) {
  if (stimulus.vectors.empty()) {
    throw std::invalid_argument("measure_gate_duty: empty stimulus");
  }
  for (const auto& row : stimulus.vectors) {
    if (row.size() != stimulus.buses.size()) {
      throw std::invalid_argument("measure_gate_duty: ragged stimulus");
    }
  }
  // One PackedFuncSim::eval simulates 64 vectors. The batches are split
  // into one contiguous run per worker; each run reuses one simulator
  // (set_bus restages every bus lane, eval rewrites every gate) and keeps
  // its own integer high counts. Integer sums do not depend on order, so
  // the result is bit-identical to the scalar loop at any thread count.
  const std::size_t n_vectors = stimulus.vectors.size();
  constexpr std::size_t lanes = PackedFuncSim::kLanes;
  const std::size_t n_batches = (n_vectors + lanes - 1) / lanes;
  const std::size_t n_chunks = std::min(
      n_batches,
      static_cast<std::size_t>(threads > 0 ? threads : hardware_threads()));
  std::vector<NetId> gate_fanout;
  gate_fanout.reserve(nl.num_gates());
  for (const Gate& g : nl.gates()) gate_fanout.push_back(g.fanout);
  std::vector<std::vector<std::uint64_t>> chunk_high(n_chunks);
  parallel_for(n_chunks, [&](std::size_t chunk) {
    PackedFuncSim sim(nl);
    std::vector<std::uint64_t>& high = chunk_high[chunk];
    high.assign(nl.num_gates(), 0);
    std::vector<std::uint64_t> lane_values;
    const std::size_t end = n_batches * (chunk + 1) / n_chunks;
    for (std::size_t batch = n_batches * chunk / n_chunks; batch < end;
         ++batch) {
      const std::size_t first = batch * lanes;
      const std::size_t count = std::min(lanes, n_vectors - first);
      lane_values.resize(count);
      for (std::size_t b = 0; b < stimulus.buses.size(); ++b) {
        for (std::size_t i = 0; i < count; ++i) {
          lane_values[i] = stimulus.vectors[first + i][b];
        }
        sim.set_bus(stimulus.buses[b], lane_values);
      }
      sim.eval();
      sim.add_high_popcounts(gate_fanout, static_cast<int>(count),
                             high.data());
    }
  }, threads);
  std::vector<double> duty(nl.num_gates(), 0.0);
  for (std::size_t g = 0; g < nl.num_gates(); ++g) {
    std::uint64_t high = 0;
    for (const auto& chunk : chunk_high) high += chunk[g];
    duty[g] = static_cast<double>(high) / static_cast<double>(n_vectors);
  }
  return duty;
}

std::vector<TimedOutcome> replay_timed(const Context& ctx, const Netlist& nl,
                                       const Sta::GateDelays& delays,
                                       DelayModel model,
                                       const StimulusSet& stimulus,
                                       double t_clock_ps) {
  for (const auto& row : stimulus.vectors) {
    if (row.size() != stimulus.buses.size()) {
      throw std::invalid_argument("replay_timed: ragged stimulus");
    }
  }
  const std::size_t n_rows = stimulus.vectors.size();
  const std::size_t n_chunks =
      std::min(n_rows, static_cast<std::size_t>(ctx.num_threads()));
  std::vector<TimedOutcome> outcomes(n_rows);
  ctx.parallel_for(n_chunks, [&](std::size_t chunk) {
    const std::size_t begin = n_rows * chunk / n_chunks;
    const std::size_t end = n_rows * (chunk + 1) / n_chunks;
    TimedSim sim(nl, delays, model);
    std::vector<std::vector<NetId>> bus_pis;
    bus_pis.reserve(stimulus.buses.size());
    for (const auto& bus : stimulus.buses) {
      bus_pis.push_back(sim.resolve_stage(nl.input_bus(bus)));
    }
    const auto stage = [&](const std::vector<std::uint64_t>& row) {
      for (std::size_t b = 0; b < bus_pis.size(); ++b) {
        sim.stage_resolved(bus_pis[b], row[b]);
      }
    };
    if (begin > 0) {
      stage(stimulus.vectors[begin - 1]);
      sim.reset_staged();
    }
    for (std::size_t i = begin; i < end; ++i) {
      ctx.check_cancelled("timed.replay");
      stage(stimulus.vectors[i]);
      outcomes[i].error = sim.step_staged(t_clock_ps);
      outcomes[i].output_settle_ps = sim.last_output_settle_time();
    }
  });
  return outcomes;
}

}  // namespace aapx
