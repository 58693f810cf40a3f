// Component characterization flow (paper Fig. 3).
//
// For a base component C_j of width N_j:
//   (a) sweep precision K from N_j downward, re-synthesizing the truncated
//       component each time (logic synthesis + optimization),
//   (b) run fresh STA at each K for t(noAging, K),
//   (c) run aging-aware STA for every requested scenario for t(Aging, K) —
//       worst/balanced scenarios annotate every gate uniformly; "measured"
//       scenarios first extract per-gate stress from a stimulus simulation
//       (Fig. 3c), then index the degradation-aware library per gate.
// The result is the delay-vs-precision-vs-aging surface stored in the
// aging-induced approximation library.
#pragma once

#include <vector>

#include "aging/aging_model.hpp"
#include "approx/characterization.hpp"
#include "core/stimulus.hpp"
#include "engine/context.hpp"
#include "sta/sta.hpp"

namespace aapx {

struct CharacterizerOptions {
  int min_precision = 16;  ///< sweep floor (K >= this)
  int precision_step = 1;
  StaOptions sta;
};

class ComponentCharacterizer {
 public:
  /// All synthesized netlists, degradation-aware libraries and cacheable
  /// aged delays go through `ctx`'s DesignStore, so anything this
  /// characterizer warms is reusable by every other consumer of the same
  /// Context (runtime, fault injector, another characterizer).
  ComponentCharacterizer(const Context& ctx, const CellLibrary& lib,
                         AgingModel model, CharacterizerOptions options = {});

  /// Characterizes `base` (which must have truncated_bits == 0) under the
  /// given scenarios. Scenarios with StressMode::measured require `stimulus`.
  ComponentCharacterization characterize(
      const ComponentSpec& base, const std::vector<AgingScenario>& scenarios,
      const StimulusSet* stimulus = nullptr) const;

  /// Aged max-delay of one concrete netlist under one scenario.
  double aged_delay(const Netlist& nl, const AgingScenario& scenario,
                    const StimulusSet* stimulus = nullptr) const;

  const Context& context() const noexcept { return *ctx_; }
  const CellLibrary& lib() const noexcept { return *lib_; }
  const AgingModel& model() const noexcept { return model_; }
  const CharacterizerOptions& options() const noexcept { return options_; }

 private:
  const DegradationAwareLibrary& degradation_for(double years) const;

  /// The actual precision sweep (synthesis + STA per point), without run-log
  /// emission. characterize() routes it through the Context's surface cache
  /// when every scenario is cacheable (i.e. not measured-mode).
  ComponentCharacterization sweep(const ComponentSpec& base,
                                  const std::vector<AgingScenario>& scenarios,
                                  const StimulusSet* stimulus) const;

  /// aged_delay with the Sta supplied by the caller, so one Sta per netlist
  /// serves the fresh run and every scenario.
  double aged_delay_with(const Sta& sta, const Netlist& nl,
                         const AgingScenario& scenario,
                         const StimulusSet* stimulus) const;

  const Context* ctx_;
  const CellLibrary* lib_;
  AgingModel model_;
  CharacterizerOptions options_;
};

}  // namespace aapx
