// Closed-loop degradation runtime and fault-injection campaign harness.
//
// Layers the runtime subsystem on top of the planning stack:
//
//   AdaptiveScheduler  -> plan (open-loop, calibrated model)
//   FaultInjector      -> ground truth the plan did NOT anticipate
//   TimedSim           -> the "hardware": sampled-vs-settled per cycle
//   TimingErrorMonitor -> what the hardware can observe about itself
//   AgingSensor        -> what the hardware believes about its age
//   DegradationController -> closes the loop
//
// A campaign advances wall-clock age epoch by epoch; each epoch runs a burst
// of workload vectors on the true (possibly faulted) delays at the current
// precision, feeds the monitor, and lets the controller react. Open-loop
// mode runs the identical plant but walks the planned schedule blindly by
// wall-clock age — the baseline the paper's closing vision implicitly
// assumes, and exactly what the campaign proves unsafe under faults.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/adaptive.hpp"
#include "core/characterizer.hpp"
#include "engine/context.hpp"
#include "gatesim/timedsim.hpp"
#include "runtime/controller.hpp"
#include "runtime/fault.hpp"
#include "runtime/monitor.hpp"
#include "runtime/sensor.hpp"

namespace aapx {

struct RuntimeOptions {
  ComponentSpec component;  ///< full-precision base (truncated_bits == 0)
  StressMode stress = StressMode::worst;
  /// Lifetime grid the adaptive schedule is planned over.
  std::vector<double> schedule_grid = {0.5, 1.0, 2.0, 5.0, 10.0};
  /// Precision floor for both planning and the controller.
  int min_precision = 1;
  StaOptions sta;
  DelayModel delay_model = DelayModel::inertial;
};

struct CampaignOptions {
  double lifetime_years = 10.0;
  int epochs = 16;
  std::size_t vectors_per_epoch = 96;
  /// Vectors per in-situ verification burst.
  std::size_t verify_vectors = 48;
  std::uint64_t stimulus_seed = 7;
  bool closed_loop = true;
  MonitorConfig monitor;
  ControllerConfig controller;  ///< precision_floor overridden by the runtime
};

/// Per-epoch observation record.
struct EpochReport {
  int epoch = 0;
  double years = 0.0;
  double sensor_years = 0.0;  ///< == years in open-loop mode
  int precision = 0;          ///< precision the epoch ran at
  std::size_t vectors = 0;
  std::size_t errors = 0;       ///< sampled timing errors this epoch
  std::size_t canary_hits = 0;  ///< canary-zone settles this epoch
  double max_settle_ps = 0.0;
};

struct CampaignResult {
  double timing_constraint = 0.0;  ///< ps — sampling clock of the campaign
  AdaptiveSchedule schedule;
  std::vector<EpochReport> epochs;
  std::vector<ControlEvent> events;  ///< empty in open-loop mode
  std::uint64_t total_errors = 0;
  std::uint64_t total_vectors = 0;
  int final_precision = 0;
  std::size_t reconfigurations = 0;  ///< committed precision changes
  /// Hard-failure arbitration: true when the controller declared a hazard
  /// crossing and handed the datapath to a spare. Only reachable with a
  /// hard-failure mechanism (EM/TDDB) in the model AND a non-zero
  /// hazard_failover_threshold — never in default drift-only campaigns.
  bool failed_over = false;
  int failover_epoch = 0;  ///< epoch of the crossing; 0 if none

  /// True if the final epoch sampled zero timing errors.
  bool converged_clean() const;
  /// Errors summed over the last `n` epochs.
  std::uint64_t errors_in_last(std::size_t n) const;
};

class ClosedLoopRuntime {
 public:
  /// Synthesized netlists, degradation libraries and model-side STA delays
  /// all live in `ctx`'s DesignStore — shared with the characterizer (which
  /// warms them while planning the schedule) and with any other runtime or
  /// fault injector on the same Context.
  ClosedLoopRuntime(const Context& ctx, const CellLibrary& lib,
                    AgingModel nominal, RuntimeOptions options);

  const AdaptiveSchedule& schedule() const noexcept { return schedule_; }
  const RuntimeOptions& options() const noexcept { return options_; }

  /// Runs one campaign against the injector's ground truth. Deterministic
  /// for fixed seeds.
  CampaignResult run(const FaultInjector& faults,
                     const CampaignOptions& campaign) const;

  /// The synthesized component at one precision step, served from the
  /// Context's DesignStore (stable reference, shared across consumers).
  const Netlist& netlist_for(int precision) const;
  /// The degradation-aware library under the nominal BTI model (DesignStore).
  const DegradationAwareLibrary& aged_library(double years) const;
  /// Model-side aged STA delay at one (precision, sensor age) point, memoized
  /// in the DesignStore — verification re-queries the same points across
  /// epochs, and a characterizer-warmed entry is a hit here.
  double model_sta_delay(int precision, double sensor_years) const;
  /// The campaign workload generator for this component kind.
  StimulusSet make_stimulus(std::size_t count, std::uint64_t seed) const;

  const Context& context() const noexcept { return *ctx_; }

 private:
  /// Full-precision spec narrowed to `precision` (validated).
  ComponentSpec spec_for(int precision) const;

  const Context* ctx_;
  const CellLibrary* lib_;
  AgingModel nominal_;
  RuntimeOptions options_;
  AdaptiveSchedule schedule_;
};

}  // namespace aapx
