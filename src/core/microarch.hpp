// Microarchitecture-level aging-induced approximation flow (paper Fig. 6).
//
// Given an RTL design described as register-separated datapath blocks, the
// flow:
//   1. synthesizes every block and takes the fresh critical path across the
//      whole design as the timing constraint t_CP(noAging),
//   2. runs aging-aware STA per block to get t_Bk(Aging) and the slack
//      t_Bk(Slack) = t_CP(noAging) - t_Bk(Aging),
//   3. for blocks with negative slack, consults the aging-induced
//      approximation library for the precision whose aged delay meets
//      (1 + relSlack) * t_Cj(noAging, N_j),
//   4. validates by re-synthesizing the modified blocks and re-running aged
//      STA; if a small negative slack remains it either reduces precision
//      further or reports the residual guardband.
// Protected blocks (control logic) are never approximated.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/characterizer.hpp"

namespace aapx {

struct BlockSpec {
  std::string name;
  ComponentSpec component;
  bool protect = false;  ///< control blocks: hardened, never approximated
};

struct MicroarchSpec {
  std::string name;
  std::vector<BlockSpec> blocks;
};

struct BlockPlan {
  BlockSpec spec;
  double fresh_delay = 0.0;      ///< t(noAging, N), ps
  double aged_delay_full = 0.0;  ///< t(Aging, N), ps
  double slack = 0.0;            ///< ps vs the design constraint
  double rel_slack = 0.0;        ///< slack / t_CP(noAging)
  int chosen_precision = 0;      ///< P_j after the flow
  double aged_delay_final = 0.0; ///< validation aged delay at P_j
  bool meets = false;            ///< aged_delay_final <= constraint
};

struct FlowOptions {
  AgingScenario scenario{StressMode::worst, 10.0};
  StaOptions sta;
  int max_validation_iterations = 16;
  /// Stimuli for measured-mode scenarios, keyed by block name.
  std::map<std::string, StimulusSet> stimuli;
};

struct FlowResult {
  double timing_constraint = 0.0;  ///< fresh CP across blocks, ps
  std::vector<BlockPlan> blocks;
  bool timing_met = false;         ///< every block meets the constraint aged
  double residual_guardband = 0.0; ///< ps still needed if !timing_met
};

class MicroarchApproximator {
 public:
  /// Block synthesis and aged STA route through `ctx`'s DesignStore, so a
  /// flow re-uses netlists/libraries warmed by any prior work on the same
  /// Context.
  MicroarchApproximator(const Context& ctx, const CellLibrary& lib,
                        AgingModel model, CharacterizerOptions options = {});

  FlowResult run(const MicroarchSpec& design, const FlowOptions& options);

  /// Characterizations built (and cached) while running flows, keyed by
  /// the full-precision component name.
  const std::map<std::string, ComponentCharacterization>& library()
      const noexcept {
    return library_;
  }

  /// Builds (or returns the cached) final netlist for a planned block.
  Netlist build_block(const BlockPlan& plan) const;

  const ComponentCharacterizer& characterizer() const noexcept {
    return characterizer_;
  }

 private:
  const ComponentCharacterization& characterization_for(
      const ComponentSpec& base, const AgingScenario& scenario,
      const StimulusSet* stimulus);

  const CellLibrary* lib_;
  ComponentCharacterizer characterizer_;
  std::map<std::string, ComponentCharacterization> library_;
  /// Stimulus used for a component's measured-mode characterization, kept so
  /// later flows can extend the cached entry with new scenarios without the
  /// caller resupplying it.
  std::map<std::string, StimulusSet> stimulus_cache_;
};

}  // namespace aapx
