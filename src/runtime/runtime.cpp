#include "runtime/runtime.hpp"

#include <algorithm>
#include <stdexcept>

#include "cell/degradation.hpp"
#include "core/stimulus.hpp"
#include "engine/design_store.hpp"
#include "obs/metrics.hpp"
#include "obs/runlog.hpp"
#include "obs/trace.hpp"
#include "sta/sta.hpp"
#include "synth/components.hpp"
#include "util/parallel.hpp"

namespace aapx {

bool CampaignResult::converged_clean() const {
  return !epochs.empty() && epochs.back().errors == 0;
}

std::uint64_t CampaignResult::errors_in_last(std::size_t n) const {
  std::uint64_t sum = 0;
  const std::size_t first = epochs.size() > n ? epochs.size() - n : 0;
  for (std::size_t i = first; i < epochs.size(); ++i) sum += epochs[i].errors;
  return sum;
}

ClosedLoopRuntime::ClosedLoopRuntime(const Context& ctx, const CellLibrary& lib,
                                     AgingModel nominal, RuntimeOptions options)
    : ctx_(&ctx),
      lib_(&lib),
      nominal_(std::move(nominal)),
      options_(std::move(options)) {
  const ComponentSpec& c = options_.component;
  if (c.truncated_bits != 0) {
    throw std::invalid_argument(
        "ClosedLoopRuntime: component must be full precision");
  }
  if (c.width < 1 || c.width > 64) {
    throw std::invalid_argument(
        "ClosedLoopRuntime: component width must be in [1, 64]");
  }
  if (options_.min_precision < 1 || options_.min_precision > c.width) {
    throw std::invalid_argument("ClosedLoopRuntime: bad min_precision");
  }
  if (options_.stress == StressMode::measured) {
    throw std::invalid_argument(
        "ClosedLoopRuntime: campaigns use uniform stress (worst or balanced)");
  }
  CharacterizerOptions copt;
  copt.min_precision = options_.min_precision;
  copt.sta = options_.sta;
  // Planning warms the Context's DesignStore: every netlist / aged library /
  // delay the schedule touches is a store hit for the campaign later.
  const ComponentCharacterizer characterizer(*ctx_, *lib_, nominal_, copt);
  const AdaptiveScheduler scheduler(characterizer);
  schedule_ = scheduler.plan(c, options_.stress, options_.schedule_grid);
}

ComponentSpec ClosedLoopRuntime::spec_for(int precision) const {
  if (precision < options_.min_precision ||
      precision > options_.component.width) {
    throw std::invalid_argument("ClosedLoopRuntime: precision out of range");
  }
  ComponentSpec spec = options_.component;
  spec.truncated_bits = spec.width - precision;
  return spec;
}

const Netlist& ClosedLoopRuntime::netlist_for(int precision) const {
  return ctx_->store().netlist(*lib_, spec_for(precision));
}

const DegradationAwareLibrary& ClosedLoopRuntime::aged_library(
    double years) const {
  return ctx_->store().aged_library(*lib_, nominal_, years);
}

double ClosedLoopRuntime::model_sta_delay(int precision,
                                          double sensor_years) const {
  return ctx_->store().aged_sta_delay(*lib_, spec_for(precision), nominal_,
                                      options_.stress, sensor_years,
                                      options_.sta);
}

StimulusSet ClosedLoopRuntime::make_stimulus(std::size_t count,
                                             std::uint64_t seed) const {
  const int width = options_.component.width;
  switch (options_.component.kind) {
    case ComponentKind::adder:
      // Running-sum traffic plus deterministic carry-ripple probes: random
      // data excites the critical chain only sporadically, so a monitored
      // campaign mixes in transitions that pin it every few cycles.
      return make_carry_stress_stimulus(width, count, seed);
    case ComponentKind::multiplier:
      return make_mixed_magnitude_stimulus(width, count, seed);
    case ComponentKind::mac:
      return make_normal_mac_stimulus(width, count, seed);
    case ComponentKind::clamp:
      break;
  }
  throw std::invalid_argument(
      "ClosedLoopRuntime: no campaign stimulus generator for this component");
}

namespace {

/// Serializes one controller decision into the unified run log. This is the
/// single source of the control_event record shape; `aapx faultsim --log`
/// exports event history by running a campaign with the log open.
void log_control_event(obs::RunLog& log, const ControlEvent& ev) {
  obs::JsonWriter w;
  w.field("epoch", ev.epoch)
      .field("years", ev.years)
      .field("sensor_years", ev.sensor_years)
      .field("trigger", to_string(ev.trigger))
      .field("outcome", to_string(ev.outcome))
      .field("from_precision", ev.from_precision)
      .field("to_precision", ev.to_precision)
      .field("window_error_rate", ev.window_error_rate)
      .field("window_canary_rate", ev.window_canary_rate)
      .field("verified_sta_delay_ps", ev.verified_sta_delay);
  log.emit("control_event", w);
}

/// Verification environment over the runtime's plant: model-side aged STA
/// with the *nominal* BTI model at the sensor age, and ground-truth bursts
/// against the injector's faulted delays at the current wall-clock age.
class RuntimeHooks final : public DegradationController::VerifyHooks {
 public:
  RuntimeHooks(const ClosedLoopRuntime& runtime, const FaultInjector& faults,
               const CampaignOptions& campaign)
      : runtime_(runtime), faults_(faults), campaign_(campaign) {}

  void set_epoch(int epoch, double years) {
    epoch_ = epoch;
    years_ = years;
  }

  double sta_delay(int precision, double sensor_years) override {
    // Memoized on the runtime: the controller re-queries the same
    // (precision, sensor age) points across epochs, and each query used to
    // rebuild a full degradation-aware library.
    return runtime_.model_sta_delay(precision, sensor_years);
  }

  BurstResult burst(int precision) override {
    const RuntimeOptions& opt = runtime_.options();
    const Netlist& nl = runtime_.netlist_for(precision);
    const Sta::GateDelays delays =
        faults_.true_delays(nl, opt.stress, years_, opt.sta);
    const double t_clock = runtime_.schedule().timing_constraint;
    // A dedicated seed stream: verification vectors differ from the epoch
    // workload so a commit is not tuned to the traffic that tripped it.
    const std::uint64_t seed = campaign_.stimulus_seed * 977 +
                               static_cast<std::uint64_t>(epoch_) * 31 +
                               static_cast<std::uint64_t>(precision);
    const StimulusSet stim =
        runtime_.make_stimulus(campaign_.verify_vectors, seed);
    const std::vector<TimedOutcome> outcomes = replay_timed(
        runtime_.context(), nl, delays, opt.delay_model, stim, t_clock);
    BurstResult result;
    for (const TimedOutcome& out : outcomes) {
      ++result.vectors;
      if (out.error) ++result.errors;
      if (out.error ||
          out.output_settle_ps > campaign_.monitor.canary_margin * t_clock) {
        ++result.canary_hits;
      }
    }
    return result;
  }

 private:
  const ClosedLoopRuntime& runtime_;
  const FaultInjector& faults_;
  const CampaignOptions& campaign_;
  int epoch_ = 0;
  double years_ = 0.0;
};

}  // namespace

CampaignResult ClosedLoopRuntime::run(const FaultInjector& faults,
                                      const CampaignOptions& campaign) const {
  if (campaign.epochs < 1) {
    throw std::invalid_argument("ClosedLoopRuntime::run: epochs must be >= 1");
  }
  if (campaign.lifetime_years <= 0.0) {
    throw std::invalid_argument("ClosedLoopRuntime::run: lifetime must be > 0");
  }
  if (campaign.vectors_per_epoch == 0 || campaign.verify_vectors == 0) {
    throw std::invalid_argument(
        "ClosedLoopRuntime::run: vector counts must be > 0");
  }
  if (!schedule_.feasible) {
    throw std::invalid_argument(
        "ClosedLoopRuntime::run: planned schedule is infeasible");
  }

  obs::Span campaign_span(&ctx_->tracer(), "campaign",
                          static_cast<std::uint64_t>(campaign.epochs));
  // Run-log emission is restricted to the serial spine: a campaign launched
  // inside parallel_for (e.g. the open/closed ablation pair) stays silent so
  // the JSONL output is deterministic and ordered.
  obs::RunLog& log = ctx_->runlog();
  const bool logging = log.enabled() && !in_parallel_region();

  CampaignResult result;
  result.schedule = schedule_;
  result.timing_constraint = schedule_.timing_constraint;
  const double t_clock = schedule_.timing_constraint;

  if (logging) {
    obs::JsonWriter w;
    w.field("component", options_.component.name())
        .field("mode", campaign.closed_loop ? "closed" : "open")
        .field("epochs", campaign.epochs)
        .field("lifetime_years", campaign.lifetime_years)
        .field("constraint_ps", t_clock)
        .field("vectors_per_epoch",
               static_cast<std::uint64_t>(campaign.vectors_per_epoch))
        .field("stimulus_seed", campaign.stimulus_seed);
    log.emit("campaign_start", w);
  }

  TimingErrorMonitor monitor(campaign.monitor);
  ControllerConfig ccfg = campaign.controller;
  ccfg.precision_floor = std::max(ccfg.precision_floor, options_.min_precision);
  DegradationController controller(schedule_, ccfg);
  AgingSensor sensor = faults.make_sensor();
  RuntimeHooks hooks(*this, faults, campaign);

  int open_precision = schedule_.steps.front().precision;
  std::size_t logged_events = 0;
  for (int e = 1; e <= campaign.epochs; ++e) {
    // Per-epoch cancellation grain: a SIGINT'd `aapx faultsim --store` run
    // unwinds here with only whole epochs behind it, so the snapshot the
    // CLI saves on the way out is exactly as warm as the completed work.
    ctx_->check_cancelled("campaign.epoch");
    obs::Span epoch_span(&ctx_->tracer(), "epoch",
                         static_cast<std::uint64_t>(e));
    const double years = campaign.lifetime_years * static_cast<double>(e) /
                         static_cast<double>(campaign.epochs);
    hooks.set_epoch(e, years);

    int precision;
    if (campaign.closed_loop) {
      precision = controller.precision();
    } else {
      precision = schedule_.precision_at(years);
      if (precision != open_precision) {
        ++result.reconfigurations;
        open_precision = precision;
      }
    }

    const Netlist& nl = netlist_for(precision);
    const Sta::GateDelays delays =
        faults.true_delays(nl, options_.stress, years, options_.sta);
    const StimulusSet stim =
        make_stimulus(campaign.vectors_per_epoch, campaign.stimulus_seed + e);

    EpochReport report;
    report.epoch = e;
    report.years = years;
    report.precision = precision;
    // The replay fans out over the Context's workers; the monitor records
    // every vector in stream order here on the spine.
    const std::vector<TimedOutcome> outcomes =
        replay_timed(*ctx_, nl, delays, options_.delay_model, stim, t_clock);
    for (const TimedOutcome& out : outcomes) {
      const double settle = out.output_settle_ps;
      ++report.vectors;
      if (out.error) ++report.errors;
      if (out.error || settle > campaign.monitor.canary_margin * t_clock) {
        ++report.canary_hits;
      }
      report.max_settle_ps = std::max(report.max_settle_ps, settle);
      if (campaign.closed_loop) monitor.record(out.error, settle, t_clock);
    }

    bool failover_now = false;
    if (campaign.closed_loop) {
      const double sensor_years =
          sensor.read(faults.equivalent_nominal_years(years));
      report.sensor_years = sensor_years;
      // Hard-failure arbitration outranks every precision trade: when the
      // model carries a wearout mechanism (EM/TDDB) and a hazard budget is
      // configured, a crossing turns the epoch into a failover instead of a
      // fallback. Both gates are off by default, so drift-only campaigns
      // never touch this path (or its counter).
      if (nominal_.has_hard_failure() &&
          ccfg.hazard_failover_threshold > 0.0) {
        GateEnv env;
        env.activity = options_.stress == StressMode::worst ? 1.0 : 0.5;
        const double hazard = nominal_.cumulative_hazard(env, years);
        failover_now =
            controller.notify_hazard(e, years, sensor_years, hazard, monitor);
        if (failover_now) {
          ctx_->metrics().counter("aging.controller.failover_decisions").add();
        }
      }
      if (!failover_now &&
          controller.evaluate(e, years, sensor_years, monitor, hooks)) {
        monitor.reset_window();
      }
    } else {
      report.sensor_years = years;
    }

    result.total_errors += report.errors;
    result.total_vectors += report.vectors;
    result.epochs.push_back(report);

    if (logging) {
      obs::JsonWriter w;
      w.field("epoch", report.epoch)
          .field("years", report.years)
          .field("precision", report.precision)
          .field("vectors", static_cast<std::uint64_t>(report.vectors))
          .field("errors", static_cast<std::uint64_t>(report.errors))
          .field("canary_hits",
                 static_cast<std::uint64_t>(report.canary_hits))
          .field("sensor_years", report.sensor_years)
          .field("max_settle_ps", report.max_settle_ps);
      log.emit("epoch", w);
      // Controller decisions taken this epoch, interleaved in epoch order.
      const auto& events = controller.events();
      for (; logged_events < events.size(); ++logged_events) {
        log_control_event(log, events[logged_events]);
      }
    }

    if (failover_now) {
      // Terminal: the spare owns the datapath from here, so the campaign
      // stops after recording the crossing epoch (its report and the
      // failover control_event are already emitted above).
      result.failed_over = true;
      result.failover_epoch = e;
      break;
    }
  }

  if (campaign.closed_loop) {
    result.events = controller.events();
    result.reconfigurations = controller.reconfigurations();
    result.final_precision = controller.precision();
  } else {
    result.final_precision = open_precision;
  }

  if (logging) {
    obs::JsonWriter w;
    w.field("total_errors", result.total_errors)
        .field("total_vectors", result.total_vectors)
        .field("final_precision", result.final_precision)
        .field("reconfigurations",
               static_cast<std::uint64_t>(result.reconfigurations))
        .field("converged_clean", result.converged_clean());
    // Only non-default campaigns (hazard budget configured AND crossed) gain
    // this field, so default run-log bytes are unchanged.
    if (result.failed_over) {
      w.field("failed_over", true).field("failover_epoch", result.failover_epoch);
    }
    log.emit("campaign_end", w);
  }
  return result;
}

}  // namespace aapx
