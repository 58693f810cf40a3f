// Static timing analysis with optional aging awareness.
//
// Each gate carries a rise and a fall delay from the NLDM tables at its load
// and a nominal input slew; arrivals propagate in topological order, and a
// net keeps one worst arrival over both edges (arcs are treated as
// non-unate, the conservative convention for max-delay analysis). The aged
// variant multiplies each gate's delays by the degradation-aware library's
// factors for the gate's stress pair — the paper's "aging-aware STA"
// (Fig. 3b / Fig. 6). A run yields arrivals and the max delay only; the
// critical path is walked back on demand by critical_path().
//
// The netlist-invariant part of that work — each gate's fresh delay at its
// load — is computed once per Sta, so an Sta answers repeated queries on one
// netlist at propagation cost. An Sta therefore must not outlive a change to
// its netlist (Netlist::set_gate_cell or any other edit): build a new one.
#pragma once

#include <cstdint>
#include <vector>

#include "aging/stress.hpp"
#include "cell/degradation.hpp"
#include "netlist/netlist.hpp"

namespace aapx::obs {
class Counter;
class MetricsRegistry;
class RunLog;
class Tracer;
}  // namespace aapx::obs

namespace aapx {

class Context;

struct StaOptions {
  double primary_input_slew = 20.0;  ///< ps, driven by boundary registers
  double primary_output_load = 4.0;  ///< fF, next-stage register D pins
};

/// One step of an extracted critical path.
struct PathStep {
  GateId gate;
  int input_pin;
  bool output_rising;
  double arrival;  ///< ps at the gate output
};

struct StaResult {
  /// Per-net worst arrival over both edges [ps]; -inf for nets that never
  /// transition.
  std::vector<double> arrival;
  double max_delay = 0.0;  ///< worst PO arrival (>= 0)
};

class Sta {
 public:
  /// log2 of the constructor's (cell, load) memo size. A component netlist
  /// holds a few dozen distinct pairs; tests overflow the memo on purpose.
  static constexpr int kBaseDelayMemoBits = 6;

  /// Computes every gate's fresh rise/fall delay once; `nl` must stay
  /// unchanged for the Sta's lifetime. At the fixed input slew a gate's
  /// fresh delays depend only on its cell and its load, so the NLDM lookups
  /// run once per distinct (cell, load) pair of a direct-mapped memo of
  /// 2^kBaseDelayMemoBits slots; an evicted pair is looked up again, so the
  /// delays are bit-identical to a per-gate lookup. `ctx` scopes the
  /// instrumentation sinks (run counters, sta_query log records); with
  /// nullptr the counters go to the process registry obs::metrics() and no
  /// log records are written. Timing results never depend on `ctx`.
  explicit Sta(const Netlist& nl, StaOptions options = {},
               const Context* ctx = nullptr);

  /// Fresh (no-aging) max-delay analysis — paper's t(noAging).
  StaResult run_fresh() const;

  /// Aging-aware analysis. The stress profile must cover every gate
  /// (uniform profiles for worst/balanced, measured profiles from simulation).
  StaResult run_aged(const DegradationAwareLibrary& aged,
                     const StressProfile& stress) const;

  /// Per-gate aged delays for the event-driven simulator: worst rise/fall arc
  /// delay of each gate at its actual load and a nominal input slew, times
  /// the gate's aging factors (fresh delays when `aged` or `stress` is null):
  /// DegradationAwareLibrary::gate_factors per gate, which a uniform profile
  /// reads from the library's per-class table. `aged` must be built over the
  /// netlist's cell library (or one of equal content). Throws
  /// std::invalid_argument unless `stress` covers every gate.
  struct GateDelays {
    std::vector<double> rise;  ///< ps, indexed by GateId
    std::vector<double> fall;
  };
  GateDelays gate_delays(const DegradationAwareLibrary* aged,
                         const StressProfile* stress) const;

  const Netlist& netlist() const noexcept { return *nl_; }
  const StaOptions& options() const noexcept { return options_; }

 private:
  StaResult run(const DegradationAwareLibrary* aged,
                const StressProfile* stress) const;
  /// Propagation core. Pure — no logging, no counters.
  StaResult run_impl(const DegradationAwareLibrary* aged,
                     const StressProfile* stress) const;

  const Netlist* nl_;
  StaOptions options_;
  /// Fresh per-gate delays (max over arcs at the nominal slew and the gate's
  /// load, PO load included); aged delays are these times the factors.
  GateDelays base_;
  /// Instrumentation handles resolved once at construction against the
  /// context's sinks (a per-instance cache; never static, so each Context's
  /// registry sees its own sta.* counts).
  obs::Counter* fresh_runs_;
  obs::Counter* aged_runs_;
  obs::RunLog* runlog_;  ///< nullptr = no sta_query records
  obs::Tracer* tracer_;  ///< nullptr = no sta.run spans
  /// Kept for mechanism counters that must be registered lazily: BTI-only
  /// runs never look them up, so their metrics snapshots carry no new keys.
  obs::MetricsRegistry* metrics_;
};

/// The one longest-path pass over explicit per-gate delays, shared by Sta,
/// MonteCarloSta and the TimedSim calendar-queue horizon. Per net, the worst
/// arrival over both edges [ps]: primary inputs arrive at 0, nets that never
/// switch stay at -inf, and a gate output arrives at the worst of its input
/// pins plus max(rise, fall) of the gate. Because rounded addition is
/// monotone, this is exactly the max of separate rise and fall passes.
std::vector<double> worst_arrivals(const Netlist& nl,
                                   const Sta::GateDelays& gd);

/// Critical path (PI-side first) of the `arrival` that worst_arrivals gives
/// for `gd`, walked back from the first primary output reaching the worst
/// arrival; empty when no output arrives after 0. At each step it takes the
/// first input pin, falling edge before rising, whose arrival reaches the
/// step's — the tie rule of a forward pass keeping only strictly later
/// arrivals. Only the sizer reads paths, so Sta runs do not build one.
std::vector<PathStep> critical_path(const Netlist& nl, const Sta::GateDelays& gd,
                                    const std::vector<double>& arrival);

}  // namespace aapx
