#include "core/characterizer.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "engine/design_store.hpp"
#include "netlist/stats.hpp"
#include "obs/metrics.hpp"
#include "obs/runlog.hpp"
#include "obs/trace.hpp"
#include "synth/components.hpp"
#include "util/parallel.hpp"

namespace aapx {

ComponentCharacterizer::ComponentCharacterizer(const Context& ctx,
                                               const CellLibrary& lib,
                                               AgingModel model,
                                               CharacterizerOptions options)
    : ctx_(&ctx), lib_(&lib), model_(std::move(model)), options_(options) {
  if (options_.precision_step <= 0) {
    throw std::invalid_argument("ComponentCharacterizer: bad precision_step");
  }
}

const DegradationAwareLibrary& ComponentCharacterizer::degradation_for(
    double years) const {
  // Keyed by content, so shared with the runtime and the fault injector.
  return ctx_->store().aged_library(*lib_, model_, years);
}

double ComponentCharacterizer::aged_delay(const Netlist& nl,
                                          const AgingScenario& scenario,
                                          const StimulusSet* stimulus) const {
  const Sta sta(nl, options_.sta, ctx_);
  return aged_delay_with(sta, nl, scenario, stimulus);
}

double ComponentCharacterizer::aged_delay_with(
    const Sta& sta, const Netlist& nl, const AgingScenario& scenario,
    const StimulusSet* stimulus) const {
  if (scenario.is_fresh()) return sta.run_fresh().max_delay;
  const DegradationAwareLibrary& aged = degradation_for(scenario.years);
  if (scenario.mode == StressMode::measured) {
    if (stimulus == nullptr || stimulus->size() == 0) {
      throw std::invalid_argument(
          "aged_delay: measured scenario requires a non-empty stimulus set");
    }
    const StressProfile profile = StressProfile::measured(
        measure_gate_duty(nl, *stimulus, ctx_->num_threads()));
    return sta.run_aged(aged, profile).max_delay;
  }
  const StressProfile profile =
      StressProfile::uniform(scenario.mode, nl.num_gates());
  return sta.run_aged(aged, profile).max_delay;
}

ComponentCharacterization ComponentCharacterizer::characterize(
    const ComponentSpec& base, const std::vector<AgingScenario>& scenarios,
    const StimulusSet* stimulus) const {
  if (base.truncated_bits != 0) {
    throw std::invalid_argument(
        "characterize: base spec must be full precision");
  }
  if (base.width < 1 || base.width > 64) {
    throw std::invalid_argument(
        "characterize: width must be in [1, 64], got " +
        std::to_string(base.width));
  }
  if (options_.min_precision < 1 || options_.min_precision > base.width) {
    throw std::invalid_argument("characterize: bad min_precision");
  }
  for (const AgingScenario& s : scenarios) {
    if (s.years < 0.0) {
      throw std::invalid_argument("characterize: negative scenario years");
    }
  }
  obs::Span span(&ctx_->tracer(), "characterize");

  // Route through the Context's surface cache whenever the sweep is a pure
  // function of its key (no stimulus-dependent measured scenarios): a second
  // characterization of the same component — in this process or, with a
  // store file attached, in a later one — returns the memoized surface
  // bit-identically instead of re-synthesizing. The sweep itself never logs
  // (its sta_query records are suppressed inside parallel_for anyway), so
  // the run-log emission below is identical for a cached and a computed
  // surface.
  bool cacheable = true;
  for (const AgingScenario& s : scenarios) {
    if (!s.is_fresh() && s.mode == StressMode::measured) cacheable = false;
  }
  ComponentCharacterization result;
  if (cacheable) {
    result = ctx_->store().surface(
        *lib_, model_, base, scenarios, options_.min_precision,
        options_.precision_step, options_.sta,
        [&] { return sweep(base, scenarios, stimulus); });
  } else {
    result = sweep(base, scenarios, stimulus);
  }

  // Run-log emission happens outside the sweep, in index order, so the JSONL
  // output is byte-identical at any thread count and any cache warmth.
  obs::RunLog& log = ctx_->runlog();
  if (log.enabled() && !in_parallel_region()) {
    obs::JsonWriter start;
    start.field("component", base.name())
        .field("points", static_cast<std::uint64_t>(result.points.size()))
        .field("scenarios", static_cast<std::uint64_t>(scenarios.size()));
    log.emit("sweep_start", start);
    for (const PrecisionPoint& p : result.points) {
      obs::JsonWriter w;
      w.field("component", base.name())
          .field("precision", p.precision)
          .field("fresh_ps", p.fresh_delay)
          .field("gates", static_cast<std::uint64_t>(p.gates))
          .field("area", p.area);
      log.emit("sweep_point", w);
    }
  }
  return result;
}

ComponentCharacterization ComponentCharacterizer::sweep(
    const ComponentSpec& base, const std::vector<AgingScenario>& scenarios,
    const StimulusSet* stimulus) const {
  ComponentCharacterization result;
  result.base = base;
  result.scenarios = scenarios;

  // First cancellation check before ANY store-touching work (the prewarm
  // below inserts aged libraries): a pre-cancelled sweep must leave the
  // store exactly as it found it.
  ctx_->check_cancelled("characterize.sweep");

  // Prewarm the degradation cache serially: every point needs the same aged
  // libraries, and building them inside parallel_for would serialize the
  // workers on degradation_mutex_ while one of them does the build.
  for (const AgingScenario& s : scenarios) {
    if (!s.is_fresh()) degradation_for(s.years);
  }

  std::vector<int> precisions;
  for (int k = base.width; k >= options_.min_precision;
       k -= options_.precision_step) {
    precisions.push_back(k);
  }
  result.points.resize(precisions.size());
  engine::DesignStore& store = ctx_->store();
  // Each precision point gets its netlist from the shared store (synthesized
  // once per distinct spec, process-wide) and writes only its own result
  // slot, so the surface is bit-identical at any thread count. Uniform-stress
  // and fresh delays route through the store's memoized aged-STA; measured
  // scenarios are stimulus-dependent and keep the direct Sta path.
  // Every point body starts with a cancellation check — the cooperative
  // grain the serve deadline contract promises. A tripped token throws out
  // of parallel_for (first exception wins) before the *next* synthesis
  // starts, so a cancelled sweep stops burning cores within one point and
  // inserts nothing partial: store entries only land after a full build.
  ctx_->parallel_for(precisions.size(), [&](std::size_t i) {
    ctx_->check_cancelled("characterize.point");
    const int k = precisions[i];
    obs::Span point_span(&ctx_->tracer(), "characterize.point",
                         static_cast<std::uint64_t>(k));
    ComponentSpec spec = base;
    spec.truncated_bits = base.width - k;
    const Netlist& nl = store.netlist(*lib_, spec);

    PrecisionPoint point;
    point.precision = k;
    point.fresh_delay = store.aged_sta_delay(*lib_, spec, model_,
                                             StressMode::worst, 0.0,
                                             options_.sta);
    const NetlistStats stats = compute_stats(nl);
    point.area = stats.cell_area;
    point.gates = stats.gates;
    point.aged_delay.reserve(scenarios.size());
    for (const AgingScenario& s : scenarios) {
      if (!s.is_fresh() && s.mode == StressMode::measured) {
        const Sta sta(nl, options_.sta, ctx_);
        point.aged_delay.push_back(aged_delay_with(sta, nl, s, stimulus));
      } else {
        point.aged_delay.push_back(store.aged_sta_delay(
            *lib_, spec, model_, s.mode, s.years, options_.sta));
      }
    }
    result.points[i] = std::move(point);
  });
  return result;
}

}  // namespace aapx
