#include "core/microarch.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "engine/design_store.hpp"
#include "synth/components.hpp"

namespace aapx {
namespace {

constexpr double kTimingEps = 1e-6;

const StimulusSet* stimulus_for(const FlowOptions& options,
                                const std::string& block_name) {
  const auto it = options.stimuli.find(block_name);
  return it == options.stimuli.end() ? nullptr : &it->second;
}

}  // namespace

MicroarchApproximator::MicroarchApproximator(const Context& ctx,
                                             const CellLibrary& lib,
                                             AgingModel model,
                                             CharacterizerOptions options)
    : lib_(&lib), characterizer_(ctx, lib, std::move(model), options) {}

const ComponentCharacterization& MicroarchApproximator::characterization_for(
    const ComponentSpec& base, const AgingScenario& scenario,
    const StimulusSet* stimulus) {
  ComponentSpec key = base;
  key.truncated_bits = 0;
  const std::string name = key.name();
  if (stimulus != nullptr) {
    stimulus_cache_[name] = *stimulus;
  } else {
    const auto cached = stimulus_cache_.find(name);
    if (cached != stimulus_cache_.end()) stimulus = &cached->second;
  }
  std::vector<AgingScenario> scenarios = {scenario};
  const auto cached = library_.find(name);
  if (cached != library_.end()) {
    for (const AgingScenario& s : cached->second.scenarios) {
      if (s.mode == scenario.mode && s.years == scenario.years) {
        return cached->second;
      }
    }
    // Cached but missing this scenario: extend the scenario set and redo
    // (with the remembered stimulus if any scenario is measured).
    scenarios = cached->second.scenarios;
    scenarios.push_back(scenario);
  }
  return library_
      .insert_or_assign(name,
                        characterizer_.characterize(key, scenarios, stimulus))
      .first->second;
}

Netlist MicroarchApproximator::build_block(const BlockPlan& plan) const {
  ComponentSpec spec = plan.spec.component;
  spec.truncated_bits = spec.width - plan.chosen_precision;
  // Copy out of the store: synthesis happens at most once per distinct spec
  // even across validation iterations and repeated flows.
  return characterizer_.context().store().netlist(*lib_, spec);
}

FlowResult MicroarchApproximator::run(const MicroarchSpec& design,
                                      const FlowOptions& options) {
  if (design.blocks.empty()) {
    throw std::invalid_argument("MicroarchApproximator::run: empty design");
  }
  FlowResult result;
  result.blocks.reserve(design.blocks.size());

  // --- step 1: synthesize and take the fresh design constraint -------------
  const Context& ctx = characterizer_.context();
  engine::DesignStore& store = ctx.store();
  std::vector<const Netlist*> netlists;
  netlists.reserve(design.blocks.size());
  for (const BlockSpec& block : design.blocks) {
    if (block.component.truncated_bits != 0) {
      throw std::invalid_argument("run: blocks must start at full precision");
    }
    netlists.push_back(&store.netlist(*lib_, block.component));
    const Sta sta(*netlists.back(), options.sta, &ctx);
    BlockPlan plan;
    plan.spec = block;
    plan.fresh_delay = sta.run_fresh().max_delay;
    plan.chosen_precision = block.component.width;
    result.blocks.push_back(std::move(plan));
    result.timing_constraint =
        std::max(result.timing_constraint, result.blocks.back().fresh_delay);
  }

  // --- step 2: aging-aware STA per block, slack computation -----------------
  for (std::size_t i = 0; i < result.blocks.size(); ++i) {
    BlockPlan& plan = result.blocks[i];
    plan.aged_delay_full = characterizer_.aged_delay(
        *netlists[i], options.scenario, stimulus_for(options, plan.spec.name));
    plan.slack = result.timing_constraint - plan.aged_delay_full;
    plan.rel_slack = plan.slack / result.timing_constraint;
  }

  // --- step 3: selective approximation via the library ----------------------
  for (BlockPlan& plan : result.blocks) {
    if (plan.spec.protect || plan.slack >= 0.0) {
      plan.chosen_precision = plan.spec.component.width;  // stays exact
      continue;
    }
    const StimulusSet* stim = stimulus_for(options, plan.spec.name);
    const ComponentCharacterization& c =
        characterization_for(plan.spec.component, options.scenario, stim);
    const std::size_t sidx = c.scenario_index(options.scenario);
    const int p = c.precision_for_rel_slack(sidx, plan.rel_slack);
    plan.chosen_precision =
        p > 0 ? p : characterizer_.options().min_precision;
  }

  // --- step 4: validation (re-synthesis + aged STA), adjust if needed -------
  result.timing_met = true;
  result.residual_guardband = 0.0;
  for (BlockPlan& plan : result.blocks) {
    const StimulusSet* stim = stimulus_for(options, plan.spec.name);
    for (int iter = 0;; ++iter) {
      const Netlist nl = build_block(plan);
      plan.aged_delay_final =
          characterizer_.aged_delay(nl, options.scenario, stim);
      plan.meets =
          plan.aged_delay_final <= result.timing_constraint + kTimingEps;
      if (plan.meets || plan.spec.protect) break;
      if (iter >= options.max_validation_iterations ||
          plan.chosen_precision <= characterizer_.options().min_precision) {
        break;
      }
      --plan.chosen_precision;  // trade one more bit for timing
    }
    if (!plan.meets && !plan.spec.protect) {
      result.timing_met = false;
      result.residual_guardband =
          std::max(result.residual_guardband,
                   plan.aged_delay_final - result.timing_constraint);
    } else if (!plan.meets && plan.spec.protect) {
      // Protected blocks rely on traditional hardening (e.g. sizing); they
      // do not gate the approximation flow but are reported.
      result.timing_met = false;
      result.residual_guardband =
          std::max(result.residual_guardband,
                   plan.aged_delay_final - result.timing_constraint);
    }
  }
  return result;
}

}  // namespace aapx
