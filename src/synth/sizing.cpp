#include "synth/sizing.hpp"

#include <algorithm>
#include <limits>

namespace aapx {
namespace {

/// Worst primary-output arrival, at least 0 — Sta's max delay.
double max_po_arrival(const Netlist& nl, const std::vector<double>& arrival) {
  double worst = 0.0;
  for (const NetId po : nl.outputs()) worst = std::max(worst, arrival[po]);
  return worst;
}

/// Per-net required times under a max-delay target, from a backward pass over
/// the aged per-gate delays (worst of rise/fall, matching the STA model).
std::vector<double> required_times(const Netlist& nl, const Sta::GateDelays& gd,
                                   double target) {
  std::vector<double> required(nl.num_nets(),
                               std::numeric_limits<double>::infinity());
  for (const NetId po : nl.outputs()) required[po] = target;
  const auto& topo = nl.topo_order();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const GateId g = *it;
    const Gate& gate = nl.gate(g);
    const double delay = std::max(gd.rise[g], gd.fall[g]);
    const double need = required[gate.fanout] - delay;
    const int pins = nl.gate_num_inputs(g);
    for (int p = 0; p < pins; ++p) {
      const NetId in = gate.fanin[static_cast<std::size_t>(p)];
      required[in] = std::min(required[in], need);
    }
  }
  return required;
}

/// One upsizing round along the aged critical path: bumps only the few gates
/// with the highest estimated delay gain (greedy, like a commercial sizer),
/// instead of blanket-upsizing the whole path. Returns the bump count.
int upsize_critical_path(Netlist& work, const std::vector<PathStep>& path,
                         const SizingOptions& options, int cap) {
  const CellLibrary& lib = work.lib();
  struct Candidate {
    double gain;
    GateId gate;
    CellId next_cell;
  };
  std::vector<Candidate> candidates;
  std::vector<GateId> seen;
  for (const PathStep& step : path) {
    if (std::find(seen.begin(), seen.end(), step.gate) != seen.end()) continue;
    seen.push_back(step.gate);
    const Gate& gate = work.gate(step.gate);
    const Cell& current = lib.cell(gate.cell);
    const std::vector<CellId> variants = lib.drive_variants(current.fn);
    for (std::size_t v = 0; v + 1 < variants.size(); ++v) {
      if (lib.cell(variants[v]).drive != current.drive ||
          lib.cell(variants[v + 1]).drive > options.max_drive) {
        continue;
      }
      const Cell& next = lib.cell(variants[v + 1]);
      const double load = work.net_load(gate.fanout);
      const double slew = options.sta.primary_input_slew;
      const double d_now = std::max(current.arc(0).rise_delay.lookup(slew, load),
                                    current.arc(0).fall_delay.lookup(slew, load));
      const double d_next = std::max(next.arc(0).rise_delay.lookup(slew, load),
                                     next.arc(0).fall_delay.lookup(slew, load));
      // Upsizing also loads the predecessors; penalize by the pin-cap growth
      // charged at a nominal upstream drive resistance.
      const double penalty = 2.0 * (next.pin_cap - current.pin_cap);
      candidates.push_back({d_now - d_next - penalty, step.gate, variants[v + 1]});
      break;
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) { return a.gain > b.gain; });
  int bumped = 0;
  for (const Candidate& c : candidates) {
    if (bumped >= cap) break;
    work.set_gate_cell(c.gate, c.next_cell);
    ++bumped;
  }
  return bumped;
}

/// Downsizes gates whose aged slack comfortably covers the delay increase,
/// then verifies; reverts the whole batch if timing regressed past target.
void recover_area_pass(Netlist& work, const DegradationAwareLibrary& aged,
                       const StressProfile& stress, double target,
                       const SizingOptions& options) {
  const CellLibrary& lib = work.lib();
  double slack_factor = 1.5;  // escalates after a failed batch
  for (int iter = 0; iter < options.max_recovery_iterations; ++iter) {
    // The Sta dies before the batch below edits `work` (an Sta must not
    // outlive a change to its netlist).
    const Sta::GateDelays gd =
        Sta(work, options.sta).gate_delays(&aged, &stress);
    const std::vector<double> arrivals = worst_arrivals(work, gd);
    if (max_po_arrival(work, arrivals) > target) return;  // stay safe
    const std::vector<double> required = required_times(work, gd, target);

    // Collect downsizing candidates with their slack margins. Slack along a
    // path is shared, so the batch is capped to the best candidates rather
    // than taking every gate that individually looks safe.
    std::vector<std::pair<double, GateId>> candidates;  // margin, gate
    for (std::size_t g = 0; g < work.num_gates(); ++g) {
      const auto gid = static_cast<GateId>(g);
      const Gate& gate = work.gate(gid);
      const Cell& current = lib.cell(gate.cell);
      if (current.drive <= 1) continue;
      const double arrival = arrivals[gate.fanout];
      const double slack = required[gate.fanout] -
                           (arrival == -std::numeric_limits<double>::infinity()
                                ? 0.0
                                : arrival);
      const double delay = std::max(gd.rise[gid], gd.fall[gid]);
      if (slack < slack_factor * delay) continue;
      candidates.emplace_back(slack / delay, gid);
    }
    if (candidates.empty()) return;
    std::sort(candidates.begin(), candidates.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    const std::size_t cap =
        std::max<std::size_t>(8, work.num_gates() / 10);

    std::vector<std::pair<GateId, CellId>> batch;  // gate -> previous cell
    for (const auto& [margin, gid] : candidates) {
      if (batch.size() >= cap) break;
      const Gate& gate = work.gate(gid);
      const Cell& current = lib.cell(gate.cell);
      const std::vector<CellId> variants = lib.drive_variants(current.fn);
      for (std::size_t v = 1; v < variants.size(); ++v) {
        if (lib.cell(variants[v]).drive == current.drive) {
          batch.emplace_back(gid, gate.cell);
          work.set_gate_cell(gid, variants[v - 1]);
          break;
        }
      }
    }
    if (batch.empty()) return;

    if (Sta(work, options.sta).run_aged(aged, stress).max_delay > target) {
      for (const auto& [gid, cell] : batch) work.set_gate_cell(gid, cell);
      slack_factor *= 2.0;
      if (slack_factor > 50.0) return;
    }
  }
}

}  // namespace

SizingResult size_for_aging(const Netlist& nl, const DegradationAwareLibrary& aged,
                            const StressProfile& stress, double target_delay_ps,
                            const SizingOptions& options) {
  SizingResult result{nl, false, 0.0, 0};
  Netlist& work = result.netlist;

  double best_delay = std::numeric_limits<double>::infinity();
  int stall = 0;
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    // The Sta dies before upsizing edits `work`; the round needs the aged
    // gate delays, the arrivals and, unless timing is met, the path.
    const Sta::GateDelays gd =
        Sta(work, options.sta).gate_delays(&aged, &stress);
    const std::vector<double> arrival = worst_arrivals(work, gd);
    const double delay = max_po_arrival(work, arrival);
    result.aged_delay = delay;
    if (delay <= target_delay_ps) {
      result.met = true;
      break;
    }
    // Stop chasing an unreachable target once upsizing stops helping.
    if (delay < best_delay - 1e-6) {
      best_delay = delay;
      stall = 0;
    } else if (++stall >= 60) {
      break;
    }
    // Greedy few-gates-per-round sizing; once progress stalls, fall back to
    // blanket rounds over the whole critical path (the structure has many
    // parallel near-critical paths that must all be strengthened).
    const int cap = stall > 10 ? 1 << 20 : 5;
    const int bumped = upsize_critical_path(
        work, critical_path(work, gd, arrival), options, cap);
    result.upsized_gates += bumped;
    if (bumped == 0) break;  // everything on the path is at max drive
  }

  if (options.recover_area) {
    // If the target was unreachable, recover area against the delay that was
    // actually achieved (the baseline then carries a residual guardband).
    recover_area_pass(work, aged, stress,
                      std::max(target_delay_ps, result.aged_delay), options);
  }

  const Sta sta(work, options.sta);
  result.aged_delay = sta.run_aged(aged, stress).max_delay;
  result.met = result.aged_delay <= target_delay_ps;
  return result;
}

}  // namespace aapx
