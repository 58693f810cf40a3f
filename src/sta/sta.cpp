#include "sta/sta.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <stdexcept>

#include "engine/context.hpp"
#include "obs/metrics.hpp"
#include "obs/runlog.hpp"
#include "obs/trace.hpp"
#include "util/parallel.hpp"

namespace aapx {
namespace {

constexpr double kNeverArrives = -std::numeric_limits<double>::infinity();

/// Back-pointer for critical-path extraction: which input pin and input
/// transition produced a net's worst rise/fall arrival.
struct Origin {
  GateId gate = kInvalidGate;
  int pin = -1;
  bool input_rising = false;
};

}  // namespace

double StaResult::net_arrival(NetId net) const {
  const double r = arrival_rise[net];
  const double f = arrival_fall[net];
  const double worst = std::max(r, f);
  return worst == kNeverArrives ? 0.0 : worst;
}

Sta::Sta(const Netlist& nl, StaOptions options, const Context* ctx)
    : nl_(&nl), options_(options) {
  obs::MetricsRegistry& registry =
      ctx != nullptr ? ctx->metrics() : obs::metrics();
  fresh_runs_ = &registry.counter("sta.fresh_runs");
  aged_runs_ = &registry.counter("sta.aged_runs");
  runlog_ = ctx != nullptr ? &ctx->runlog() : nullptr;
  tracer_ = ctx != nullptr ? &ctx->tracer() : nullptr;
  metrics_ = &registry;

  base_.rise.reserve(nl.num_gates());
  base_.fall.reserve(nl.num_gates());
  const double slew = options_.primary_input_slew;
  std::vector<char> is_po(nl.num_nets(), 0);
  for (const NetId po : nl.outputs()) is_po[po] = 1;
  for (std::size_t g = 0; g < nl.num_gates(); ++g) {
    const Gate& gate = nl.gate(static_cast<GateId>(g));
    const Cell& cell = nl.lib().cell(gate.cell);
    // Primary outputs additionally drive the next pipeline stage's registers.
    double load = nl.net_load(gate.fanout);
    if (is_po[gate.fanout]) load += options_.primary_output_load;
    double rise = 0.0;
    double fall = 0.0;
    for (const TimingArc& arc : cell.arcs) {
      rise = std::max(rise, arc.rise_delay.lookup(slew, load));
      fall = std::max(fall, arc.fall_delay.lookup(slew, load));
    }
    base_.rise.push_back(rise);
    base_.fall.push_back(fall);
  }
}

StaResult Sta::run_fresh() const { return run(nullptr, nullptr); }

StaResult Sta::run_aged(const DegradationAwareLibrary& aged,
                        const StressProfile& stress) const {
  if (stress.gate_count() != nl_->num_gates()) {
    throw std::invalid_argument("Sta::run_aged: stress profile size mismatch");
  }
  return run(&aged, &stress);
}

Sta::GateDelays Sta::gate_delays(const DegradationAwareLibrary* aged,
                                 const StressProfile* stress) const {
  if (aged == nullptr || stress == nullptr) return base_;
  const Netlist& nl = *nl_;
  const AgingModel& model = aged->model();
  // HCI drift is activity-driven, not duty-driven, so it cannot live in the
  // 11x11 stress-factor grids; it multiplies the fall factor here.
  const bool hci = model.has_hci();
  struct Factors {
    double rise;
    double fall;
  };
  const auto factors = [&](std::size_t g, CellId cell) {
    const StressPair sp = stress->gate(g);
    Factors f{aged->rise_factor(cell, sp), aged->fall_factor(cell, sp)};
    if (hci) {
      // HCI wears the nMOS pull-down network, so only output falls slow
      // down; the factor composes multiplicatively with the BTI grid's.
      const double dvth =
          model.hci_delta_vth(stress->gate_activity(g), aged->years()) *
          nl.lib().cell(cell).aging_sensitivity;
      f.fall *= model.delay_factor_from_dvth(dvth);
    }
    return f;
  };

  GateDelays gd;
  gd.rise.resize(nl.num_gates());
  gd.fall.resize(nl.num_gates());
  const auto scale = [&](std::size_t g, const Factors& f) {
    gd.rise[g] = base_.rise[g] * f.rise;
    gd.fall[g] = base_.fall[g] * f.fall;
  };
  if (stress->mode() != StressMode::measured && !stress->has_activity()) {
    // Uniform profile: every gate shares one stress pair and one activity,
    // so the factors depend on the cell alone — look them up once per cell.
    std::vector<std::optional<Factors>> per_cell(nl.lib().size());
    for (std::size_t g = 0; g < nl.num_gates(); ++g) {
      const CellId cell = nl.gate(static_cast<GateId>(g)).cell;
      if (!per_cell[cell]) per_cell[cell] = factors(g, cell);
      scale(g, *per_cell[cell]);
    }
  } else {
    for (std::size_t g = 0; g < nl.num_gates(); ++g) {
      scale(g, factors(g, nl.gate(static_cast<GateId>(g)).cell));
    }
  }
  // Resolved only for HCI-enabled models so that BTI-only runs register no
  // new metrics keys. It counts one drift evaluation per gate even where a
  // uniform profile evaluated one per cell, so the count names the work a
  // query asks for, not how it was shared.
  if (hci) {
    metrics_->counter("aging.mechanism.hci.drift_evals").add(nl.num_gates());
  }
  return gd;
}

StaResult Sta::run(const DegradationAwareLibrary* aged,
                   const StressProfile* stress) const {
  obs::Span span(tracer_, "sta.run");
  (aged != nullptr ? aged_runs_ : fresh_runs_)->add();
  StaResult res = run_impl(aged, stress);

  // Serial-spine queries only: runs launched from parallel_for workers stay
  // out of the log so its byte content is independent of the thread count
  // (the serial fallback marks the region too, so 1 thread matches N).
  if (runlog_ != nullptr && runlog_->enabled() && !in_parallel_region()) {
    obs::JsonWriter w;
    w.field("kind", aged != nullptr ? "aged" : "fresh")
        .field("gates", static_cast<std::uint64_t>(nl_->num_gates()))
        .field("max_delay_ps", res.max_delay);
    runlog_->emit("sta_query", w);
  }
  return res;
}

StaResult Sta::run_impl(const DegradationAwareLibrary* aged,
                        const StressProfile* stress) const {
  const Netlist& nl = *nl_;
  const std::size_t nets = nl.num_nets();

  // STA and the event-driven simulator share one delay model (per gate and
  // transition direction, at a nominal boundary slew). This makes the STA
  // max delay a strict upper bound on any simulated settling time, which is
  // the property behind paper Eq. 1: tCP <= tclock implies no timing errors.
  const GateDelays gd = gate_delays(aged, stress);

  StaResult res;
  res.arrival_rise.assign(nets, kNeverArrives);
  res.arrival_fall.assign(nets, kNeverArrives);
  std::vector<Origin> origin_rise(nets);
  std::vector<Origin> origin_fall(nets);

  for (const NetId pi : nl.inputs()) {
    res.arrival_rise[pi] = 0.0;
    res.arrival_fall[pi] = 0.0;
  }

  for (const GateId gid : nl.topo_order()) {
    const Gate& g = nl.gate(gid);
    const int pins = nl.gate_num_inputs(gid);
    for (int p = 0; p < pins; ++p) {
      const NetId in = g.fanin[static_cast<std::size_t>(p)];
      // Non-unate treatment: either input transition may cause either output
      // transition; take the worst combination per output edge.
      for (const bool input_rising : {false, true}) {
        const double in_arr =
            input_rising ? res.arrival_rise[in] : res.arrival_fall[in];
        if (in_arr == kNeverArrives) continue;
        const double a_rise = in_arr + gd.rise[gid];
        if (a_rise > res.arrival_rise[g.fanout]) {
          res.arrival_rise[g.fanout] = a_rise;
          origin_rise[g.fanout] = {gid, p, input_rising};
        }
        const double a_fall = in_arr + gd.fall[gid];
        if (a_fall > res.arrival_fall[g.fanout]) {
          res.arrival_fall[g.fanout] = a_fall;
          origin_fall[g.fanout] = {gid, p, input_rising};
        }
      }
    }
  }

  res.output_delay.reserve(nl.outputs().size());
  res.max_delay = 0.0;
  res.critical_output = 0;
  bool critical_rising = true;
  for (std::size_t i = 0; i < nl.outputs().size(); ++i) {
    const NetId po = nl.outputs()[i];
    const double r = res.arrival_rise[po];
    const double f = res.arrival_fall[po];
    const double worst = std::max({r, f, 0.0});
    res.output_delay.push_back(worst);
    if (worst > res.max_delay) {
      res.max_delay = worst;
      res.critical_output = i;
      critical_rising = r >= f;
    }
  }

  // Critical-path walk-back from the worst output.
  if (res.max_delay > 0.0 && !nl.outputs().empty()) {
    NetId net = nl.outputs()[res.critical_output];
    bool rising = critical_rising;
    while (true) {
      const Origin& o = rising ? origin_rise[net] : origin_fall[net];
      if (o.gate == kInvalidGate) break;
      const double arrival = rising ? res.arrival_rise[net] : res.arrival_fall[net];
      res.critical_path.push_back({o.gate, o.pin, rising, arrival});
      net = nl.gate(o.gate).fanin[static_cast<std::size_t>(o.pin)];
      rising = o.input_rising;
    }
    std::reverse(res.critical_path.begin(), res.critical_path.end());
  }
  return res;
}

}  // namespace aapx
