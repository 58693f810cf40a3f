// Shared infrastructure for the experiment-reproduction benches.
//
// Every bench prints the rows/series of one paper table or figure, with a
// "paper" column next to the measured values so the reproduction quality is
// visible at a glance. Absolute picoseconds are not expected to match (our
// substrate is a generated cell library, not the authors' testbed); the
// *shape* — who wins, by what factor, where crossovers sit — is the target.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "aging/aging_model.hpp"
#include "aging/stress.hpp"
#include "cell/library.hpp"
#include "core/stimulus.hpp"
#include "engine/context.hpp"
#include "rtl/backend.hpp"
#include "rtl/codec.hpp"
#include "sta/sta.hpp"
#include "synth/components.hpp"
#include "util/table.hpp"

namespace aapx::bench {

/// Project-wide experiment configuration (the calibration record — see
/// DESIGN.md Sec. 5 and EXPERIMENTS.md).
struct Config {
  CellLibrary lib = make_nangate45_like();
  AgingModel model{};

  /// The paper's four aging corners (Fig. 1) in print order.
  std::vector<AgingScenario> corners() const {
    return {{StressMode::balanced, 1.0},
            {StressMode::balanced, 10.0},
            {StressMode::worst, 1.0},
            {StressMode::worst, 10.0}};
  }

  /// Component specs of the paper's study objects.
  ComponentSpec adder32() const {
    return {ComponentKind::adder, 32, 0, AdderArch::cla4, MultArch::array};
  }
  ComponentSpec mult32() const {
    return {ComponentKind::multiplier, 32, 0, AdderArch::cla4, MultArch::array};
  }
  ComponentSpec mac32() const {
    return {ComponentKind::mac, 32, 0, AdderArch::ripple, MultArch::array};
  }
  ComponentSpec clamp32() const {
    return {ComponentKind::clamp, 32, 0, AdderArch::cla4, MultArch::array};
  }

  /// Fixed-point codec parameters (Q7 in a 32-bit datapath, quant step 4)
  /// calibrated so the fresh DCT->IDCT chain sits at the paper's ~45 dB.
  CodecConfig codec() const {
    CodecConfig cfg;
    cfg.frac_bits = 7;
    return cfg;
  }

  /// Calibrated Fig.-1 stimulus magnitudes (see EXPERIMENTS.md): pixel-scale
  /// normal operands for the adder, Q-format coefficient-scale for the
  /// multiplier.
  double adder_sigma = 64.0;
  double mult_sigma = 8192.0;
};

/// The root Context of guarded_main's body (only valid there): "--threads
/// N" / "-j N" workers (default: all cores), the process registry
/// obs::metrics(), the signal token, and one DesignStore for every row of
/// the bench.
const Context& bench_context();

/// Builds the root Context and runs a bench body on it under graceful
/// SIGINT/SIGTERM handling. The signal handler trips the root's CancelToken
/// (two atomic stores — async-signal-safe), the running sweep unwinds with
/// CancelledError through the bench scope — so a live BenchJson still
/// writes its telemetry and saves the --store snapshot on the way out, the
/// same "store holds only completed artifacts" contract the CLI gives —
/// and the process exits 128+signum with a one-line diagnostic instead of
/// dying mid-write; a malformed flag value exits 2 naming the flag, and so
/// does (after the body) any "--X" argument that no fast_mode/arg_* lookup
/// read. Every bench main is `return guarded_main(argc, argv, [&] { ... });`.
int guarded_main(int argc, char** argv, const std::function<int()>& body);

/// True if "--fast" was passed (benches shrink their workloads; used by CI).
bool fast_mode(int argc, char** argv);

/// Value of "--size N" or fallback; std::invalid_argument unless N is a
/// whole integer.
int arg_int(int argc, char** argv, const std::string& flag, int fallback);

/// Value of "--flag X.Y" or fallback; as strict as arg_int.
double arg_double(int argc, char** argv, const std::string& flag,
                  double fallback);

/// Value of "--flag text" or fallback.
std::string arg_str(int argc, char** argv, const std::string& flag,
                    const std::string& fallback);

/// Joins "--outdir D" (created on first use) with `filename`; falls back to
/// the working directory when --outdir was not passed. All bench/example
/// image outputs route through this so runs don't litter the repo root.
std::string out_path(int argc, char** argv, const std::string& filename);

/// Machine-readable bench telemetry.
///
/// Constructing a BenchJson starts the wall timer; destruction writes
/// BENCH_<name>.json into the working directory with the wall time, the
/// bench_context() thread count, event throughput (when the bench reported
/// events), any custom metrics and a snapshot of the process metrics
/// registry ("metrics_registry").
///
/// The shared instrumentation flags also apply to every bench:
/// "--trace <file>" collects a Chrome trace across the bench and writes it
/// at destruction; "--metrics <file>" writes the registry snapshot JSON;
/// "--store <file>" (or the AAPX_STORE environment variable) opens a
/// persistent DesignStore snapshot into the shared bench Context at
/// construction and saves it back at destruction, so a second bench run
/// warm-starts from the first one's synthesized netlists, aged libraries
/// and characterization surfaces.
class BenchJson {
 public:
  BenchJson(std::string name, int argc, char** argv);
  ~BenchJson();
  BenchJson(const BenchJson&) = delete;
  BenchJson& operator=(const BenchJson&) = delete;

  void metric(const std::string& key, double value);
  void metric(const std::string& key, const std::string& value);
  /// Accumulates simulator event counts for the events_per_sec field.
  void add_events(std::uint64_t n) { events_ += n; }

 private:
  std::string name_;
  std::uint64_t events_ = 0;
  std::vector<std::pair<std::string, std::string>> metrics_;
  std::string trace_path_;
  std::string metrics_path_;
  std::string store_path_;
  std::chrono::steady_clock::time_point start_;
};

/// Per-gate delays of a netlist under a uniform-stress scenario (fresh when
/// scenario.is_fresh()).
Sta::GateDelays scenario_delays(const Config& cfg, const Netlist& nl,
                                const AgingScenario& scenario);

/// Speed-binned fresh clock: max settled output time over the stimulus.
/// Substitution note: our structural netlists have conservatively long STA
/// false paths, so the "synthesis-reported Fmax" of the paper is modelled by
/// functional speed binning over a representative stimulus.
double bin_fresh_clock(const Config& cfg, const Netlist& nl,
                       const StimulusSet& stimulus, DelayModel model);

/// Fraction of stimulus operations whose sampled output differs from the
/// settled output at `t_clock` under the given scenario's delays.
double measure_error_rate(const Config& cfg, const Netlist& nl,
                          const StimulusSet& stimulus,
                          const AgingScenario& scenario, double t_clock,
                          DelayModel model);

/// Records the multiplier operand stream of an IDCT decoding one synthetic
/// frame (actual-case application stimulus, paper Fig. 3c).
StimulusSet record_idct_mult_stimulus(const Config& cfg,
                                      const std::string& sequence, int size,
                                      std::size_t max_ops);

/// Prints a header line naming the figure being reproduced.
void print_banner(const std::string& figure, const std::string& summary);

}  // namespace aapx::bench
