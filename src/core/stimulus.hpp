// Stimulus sets for actual-case ("measured") aging characterization.
//
// The paper characterizes components either under worst-case stress or under
// the stress induced by concrete inputs: (1) operands drawn from a normal
// distribution (application-independent) and (2) operand streams extracted
// from a running application (the IDCT decoding an image). Paper Fig. 5
// shows both induce nearly identical stress-factor distributions, which is
// what justifies characterizing with artificial inputs.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "gatesim/timedsim.hpp"
#include "netlist/netlist.hpp"

namespace aapx {

class Context;

struct StimulusSet {
  std::vector<std::string> buses;                   ///< e.g. {"a", "b"}
  std::vector<std::vector<std::uint64_t>> vectors;  ///< one value per bus

  std::size_t size() const noexcept { return vectors.size(); }
};

/// Two-operand vectors with values from N(0, sigma), wrapped to `width` bits.
/// sigma defaults to a "typical image data" magnitude relative to the width.
StimulusSet make_normal_stimulus(int width, std::size_t count,
                                 std::uint64_t seed = 1, double sigma = -1.0);

/// Three-operand (a, b, acc) variant for MAC components.
StimulusSet make_normal_mac_stimulus(int width, std::size_t count,
                                     std::uint64_t seed = 1, double sigma = -1.0);

/// Normal operand pairs whose per-sample magnitude scale is drawn
/// log-uniformly from [2^min_exp, 2^max_exp] — a heavy-tailed mix modeling
/// the wide dynamic range of transform-domain image data. The varying
/// magnitudes excite carry/propagate chains of every length, producing the
/// continuous settling-time spectrum behind the paper's Fig. 1 error growth.
StimulusSet make_mixed_magnitude_stimulus(int width, std::size_t count,
                                          std::uint64_t seed = 1,
                                          double min_exp = 4.0,
                                          double max_exp = 26.0);

/// Accumulator-style adder stimulus: operand `a` is the running sum of the
/// normally distributed samples fed as operand `b` — exactly what an adder
/// inside a DSP datapath sees. Zero crossings of the accumulator excite long
/// carry-propagate chains, which is what makes aged adders fail at speed
/// (paper Fig. 1 reports ~20-28% erroneous additions under worst-case aging).
StimulusSet make_running_sum_stimulus(int width, std::size_t count,
                                      std::uint64_t seed = 1, double sigma = -1.0);

/// Running-sum traffic interleaved with deterministic worst-case carry
/// excitation: every fourth/fifth vector is the pair (a = ones from bit j
/// up, b = 0) then (a unchanged, b = 1 << j), whose single-bit transition
/// launches a clean carry ripple from bit j to the MSB. Random traffic
/// reaches long chains only sporadically; these pairs pin the component's
/// true critical path every few cycles, which is what an in-situ timing
/// monitor needs to observe degradation *before* the application data does.
/// j cycles over [0, width/2], so the pattern keeps exciting near-critical
/// chains even when low operand bits are truncated away.
StimulusSet make_carry_stress_stimulus(int width, std::size_t count,
                                       std::uint64_t seed = 1,
                                       double sigma = -1.0);

/// Converts a recorded multiplier operand stream (e.g. from an IDCT decode,
/// via RecordingBackend) into an (a, b) stimulus set.
StimulusSet stimulus_from_operand_pairs(
    const std::vector<std::pair<std::int64_t, std::int64_t>>& ops, int width,
    std::size_t max_count = 0);

/// Runs the stimulus through a zero-delay simulation of the netlist and
/// returns the per-gate output duty cycles (the measured stress input).
/// The 64-vector batches are split into one contiguous run per worker over
/// `threads` workers (0 = all hardware threads), each run on one reused
/// packed simulator; the result never depends on the thread count.
std::vector<double> measure_gate_duty(const Netlist& nl,
                                      const StimulusSet& stimulus,
                                      int threads = 0);

/// Outcome of one vector of a timed replay.
struct TimedOutcome {
  /// A primary output sampled at the clock differs from its settled value.
  bool error = false;
  /// Time of the last primary-output change of the step.
  double output_settle_ps = 0.0;
};

/// Replays the stimulus in order through event-driven timed simulation of
/// `nl` under `delays`, sampled at `t_clock_ps`, and returns one outcome per
/// vector — bit-identical to the serial loop `TimedSim sim(nl, delays,
/// model); for each row: stage its buses, step_staged(t_clock_ps)`, and so
/// are the summed events and steps the sims flush into obs::metrics().
///
/// TimedSim::step always simulates to quiescence, so the state before
/// vector i is the settled state of vector i - 1. The rows are cut into at
/// most ctx.num_threads() contiguous chunks run on ctx.parallel_for, each on
/// its own TimedSim: chunk 0 starts from reset(), chunk k from the settled
/// state of the row just before it (TimedSim::reset_staged). A 1-thread
/// Context runs one chunk, the serial loop itself. Rejects ragged rows;
/// checks ctx's cancel token once per step, and a CancelledError thrown on
/// a worker reaches the caller.
std::vector<TimedOutcome> replay_timed(const Context& ctx, const Netlist& nl,
                                       const Sta::GateDelays& delays,
                                       DelayModel model,
                                       const StimulusSet& stimulus,
                                       double t_clock_ps);

}  // namespace aapx
