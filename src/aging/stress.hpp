// Stress-factor abstractions.
//
// A gate's pull-up pMOS network is under NBTI stress while it conducts, i.e.
// while the gate output is logic 1; its pull-down nMOS network is under PBTI
// stress while the output is logic 0.  The per-gate stress pair is therefore
// derived from the output duty cycle (fraction of lifetime spent high):
//
//   S_pmos = duty_high,   S_nmos = 1 - duty_high.
//
// The paper evaluates three stress regimes (Secs. II and IV):
//   * worst    — every transistor at S = 100% (conservative upper bound),
//   * balanced — S = 50% (typical),
//   * measured — per-gate duty cycles extracted from gate-level simulation
//                of a concrete stimulus set ("actual-case aging").
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace aapx {

/// Duty-based stress of one gate's pull-up / pull-down networks, each in [0,1].
struct StressPair {
  double pmos = 1.0;
  double nmos = 1.0;
};

inline constexpr StressPair kWorstCaseStress{1.0, 1.0};
inline constexpr StressPair kBalancedStress{0.5, 0.5};

/// Converts an output duty cycle (fraction of time at logic 1) to stress.
StressPair stress_from_duty(double duty_high);

enum class StressMode { worst, balanced, measured };

std::string to_string(StressMode mode);

/// Per-gate stress annotation of a netlist ("netlist indexing" in paper
/// Fig. 3b). For worst/balanced modes every gate shares the same pair, so a
/// uniform profile holds the mode, the gate count and that one pair — no
/// per-gate data, and building one for a netlist of any size costs nothing.
/// A measured profile carries one pair per gate.
///
/// HCI drift, an activity-driven mechanism, also needs each gate's *toggle
/// activity* (output transitions per cycle); a profile derives it from its
/// mode, so worst / balanced sweeps need no simulation.
class StressProfile {
 public:
  /// Uniform profile (worst or balanced case).
  static StressProfile uniform(StressMode mode, std::size_t gate_count);
  /// Measured profile from per-gate output duty cycles.
  static StressProfile measured(const std::vector<double>& duty_high);

  StressMode mode() const noexcept { return mode_; }
  std::size_t gate_count() const noexcept { return gate_count_; }
  /// The stress pair of one gate; throws std::out_of_range past
  /// gate_count().
  const StressPair& gate(std::size_t index) const;

  /// Toggle activity of one gate, a mode default: worst 1.0, balanced 0.5,
  /// and for measured profiles the random-sampling estimate 2*p*(1-p) from
  /// the gate's duty.
  double gate_activity(std::size_t index) const;

 private:
  StressProfile(StressMode mode, std::size_t gate_count, StressPair uniform,
                std::vector<StressPair> per_gate);

  StressMode mode_;
  std::size_t gate_count_;
  StressPair uniform_;                ///< every gate's pair (uniform modes)
  std::vector<StressPair> per_gate_;  ///< measured mode only
};

/// An aging scenario bundles the stress regime with the lifetime, e.g.
/// "10 years of worst-case aging" — the unit every bench sweeps over.
struct AgingScenario {
  StressMode mode = StressMode::worst;
  double years = 10.0;

  static AgingScenario fresh() { return {StressMode::worst, 0.0}; }
  bool is_fresh() const noexcept { return years == 0.0; }
  std::string label() const;
};

}  // namespace aapx
