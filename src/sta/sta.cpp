#include "sta/sta.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>

#include "engine/context.hpp"
#include "obs/metrics.hpp"
#include "obs/runlog.hpp"
#include "obs/trace.hpp"
#include "util/parallel.hpp"

namespace aapx {
namespace {

constexpr double kNeverArrives = -std::numeric_limits<double>::infinity();

/// Worst arrival over `gate`'s input pins, in pin order (-inf when none
/// ever arrives).
double worst_input(const Gate& gate, const double* arrival) {
  const int pins = gate.num_inputs();
  double worst = kNeverArrives;
  for (int p = 0; p < pins; ++p) {
    worst = std::max(worst, arrival[gate.fanin[static_cast<std::size_t>(p)]]);
  }
  return worst;
}

/// Index of the first primary output reaching the worst arrival, or
/// outputs().size() when no output arrives after 0.
std::size_t first_worst_output(const Netlist& nl,
                               const std::vector<double>& arrival) {
  std::size_t first = nl.outputs().size();
  double worst = 0.0;
  for (std::size_t i = 0; i < nl.outputs().size(); ++i) {
    if (arrival[nl.outputs()[i]] > worst) {
      worst = arrival[nl.outputs()[i]];
      first = i;
    }
  }
  return first;
}

}  // namespace

std::vector<double> worst_arrivals(const Netlist& nl,
                                   const Sta::GateDelays& gd) {
  std::vector<double> arrival(nl.num_nets(), kNeverArrives);
  for (const NetId pi : nl.inputs()) arrival[pi] = 0.0;
  const std::span<const Gate> gates = nl.gates();
  double* const at = arrival.data();
  for (const GateId g : nl.topo_order()) {
    const Gate& gate = gates[g];
    // -inf plus a finite delay stays -inf: a gate no input reaches never
    // switches either.
    at[gate.fanout] = worst_input(gate, at) + std::max(gd.rise[g], gd.fall[g]);
  }
  return arrival;
}

// The walk: the rise (fall) arrival of a gate's output is W + rise
// (W + fall), where W is the worst arrival over the gate's input pins. Each
// step takes the first (pin, input edge) in pin order, falling edge first,
// whose arrival plus the gate delay reaches the step's own — the tie rule of
// a forward pass that keeps only strictly later arrivals.
std::vector<PathStep> critical_path(const Netlist& nl, const Sta::GateDelays& gd,
                                    const std::vector<double>& arrival) {
  std::vector<PathStep> path;
  const std::size_t po = first_worst_output(nl, arrival);
  if (po == nl.outputs().size()) return path;
  GateId g = nl.driver(nl.outputs()[po]);
  double w = worst_input(nl.gate(g), arrival.data());
  bool rising = w + gd.rise[g] >= w + gd.fall[g];
  while (g != kInvalidGate) {
    const Gate& gate = nl.gate(g);
    const double delay = rising ? gd.rise[g] : gd.fall[g];
    const double at = w + delay;
    const int pins = gate.num_inputs();
    int p = 0;
    GateId from = kInvalidGate;
    double w_from = kNeverArrives;
    bool from_rising = false;
    for (; p < pins; ++p) {
      const NetId in = gate.fanin[static_cast<std::size_t>(p)];
      // An edge of `in` can only reach `at` if the net's worst arrival does
      // (rounded addition is monotone), so other pins skip the recompute.
      if (arrival[in] + delay != at) continue;
      from = nl.driver(in);
      if (from == kInvalidGate) break;  // a PI: both edges arrive at 0
      w_from = worst_input(nl.gate(from), arrival.data());
      // The falling edge is tried first; if it falls short, the rising one
      // is the edge at the net's worst arrival.
      from_rising = w_from + gd.fall[from] + delay != at;
      break;
    }
    if (p == pins) break;  // unreachable while `at` is finite
    path.push_back({g, p, rising, at});
    g = from;
    w = w_from;
    rising = from_rising;
  }
  std::reverse(path.begin(), path.end());
  return path;
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

  // Fresh delays by (cell, load), direct-mapped: a colliding pair evicts the
  // slot and is looked up again, so no delay depends on the memo's size.
  struct Memo {
    CellId cell = kInvalidCell;
    std::uint64_t load_bits = 0;
    double rise = 0.0;
    double fall = 0.0;
  };
  std::array<Memo, std::size_t{1} << kBaseDelayMemoBits> memo{};
  base_.rise.reserve(nl.num_gates());
  base_.fall.reserve(nl.num_gates());
  const double slew = options_.primary_input_slew;
  std::vector<char> is_po(nl.num_nets(), 0);
  for (const NetId po : nl.outputs()) is_po[po] = 1;
  for (const Gate& gate : nl.gates()) {
    // Primary outputs additionally drive the next pipeline stage's registers.
    double load = nl.net_load(gate.fanout);
    if (is_po[gate.fanout]) load += options_.primary_output_load;
    const auto load_bits = std::bit_cast<std::uint64_t>(load);
    const std::uint64_t h =
        (load_bits ^ (std::uint64_t{gate.cell} << 40)) * 0x9E3779B97F4A7C15ULL;
    Memo& m = memo[static_cast<std::size_t>(h >> (64 - kBaseDelayMemoBits))];
    if (m.cell != gate.cell || m.load_bits != load_bits) {
      m = {gate.cell, load_bits, 0.0, 0.0};
      for (const TimingArc& arc : nl.lib().cell(gate.cell).arcs) {
        m.rise = std::max(m.rise, arc.rise_delay.lookup(slew, load));
        m.fall = std::max(m.fall, arc.fall_delay.lookup(slew, load));
      }
    }
    base_.rise.push_back(m.rise);
    base_.fall.push_back(m.fall);
  }
}

StaResult Sta::run_fresh() const { return run(nullptr, nullptr); }

StaResult Sta::run_aged(const DegradationAwareLibrary& aged,
                        const StressProfile& stress) const {
  return run(&aged, &stress);
}

Sta::GateDelays Sta::gate_delays(const DegradationAwareLibrary* aged,
                                 const StressProfile* stress) const {
  if (aged == nullptr || stress == nullptr) return base_;
  const Netlist& nl = *nl_;
  if (stress->gate_count() != nl.num_gates()) {
    throw std::invalid_argument(
        "Sta::gate_delays: stress profile size mismatch");
  }
  GateDelays gd;
  gd.rise.resize(nl.num_gates());
  gd.fall.resize(nl.num_gates());
  const auto scale = [&](std::size_t g, const DegradationAwareLibrary::Factors& f) {
    gd.rise[g] = base_.rise[g] * f.rise;
    gd.fall[g] = base_.fall[g] * f.fall;
  };
  const std::span<const Gate> gates = nl.gates();
  const StressMode mode = stress->mode();
  if (mode != StressMode::measured) {
    // Uniform profile: every gate shares one stress pair and one activity,
    // so the factors depend on the cell's sensitivity class alone — one
    // table load per gate. A NaN fall factor marks a class whose HCI drift
    // threw; re-evaluating it throws that error here, as it always did.
    for (std::size_t g = 0; g < gates.size(); ++g) {
      const CellId cell = gates[g].cell;
      const DegradationAwareLibrary::Factors& f =
          aged->uniform_factors(cell, mode);
      if (std::isnan(f.fall)) {
        scale(g, aged->gate_factors(cell, *stress, g));
        continue;
      }
      scale(g, f);
    }
  } else {
    for (std::size_t g = 0; g < gates.size(); ++g) {
      scale(g, aged->gate_factors(gates[g].cell, *stress, g));
    }
  }
  // Resolved only for HCI-enabled models so that BTI-only runs register no
  // new metrics keys. It counts one drift evaluation per gate even where a
  // uniform profile read the drift from the library's table, so the count
  // names the work a query asks for, not how it was shared.
  if (aged->model().has_hci()) {
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
  // STA and the event-driven simulator share one delay model (per gate and
  // transition direction, at a nominal boundary slew). This makes the STA
  // max delay a strict upper bound on any simulated settling time, which is
  // the property behind paper Eq. 1: tCP <= tclock implies no timing errors.
  const GateDelays gd = gate_delays(aged, stress);

  StaResult res;
  res.arrival = worst_arrivals(nl, gd);
  for (const NetId po : nl.outputs()) {
    res.max_delay = std::max(res.max_delay, res.arrival[po]);
  }
  return res;
}

}  // namespace aapx
