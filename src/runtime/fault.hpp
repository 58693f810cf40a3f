// Fault injection for degradation-runtime campaigns.
//
// The closed loop is only trustworthy if it survives reality deviating from
// the calibrated model. The injector builds the *ground truth* the campaign
// harness simulates against — the plant — by perturbing the nominal BTI
// model and stress world along the axes related work reports as the real
// deviation sources:
//
//  * aging acceleration — the die ages faster than the model (workload
//    dependency, process outliers; "Modeling and Predicting Transistor Aging
//    under Workload Dependency using Machine Learning"),
//  * temperature excursion — an Arrhenius step from a given point of life
//    (thermal environment drift, fan failure),
//  * per-gate ΔVth outliers — a random subset of gates degrades harder than
//    the library says, drawn in the spirit of the MC variation model
//    (sta/variation.*),
//  * sensor faults — gain/offset/noise on the aging estimate, so the
//    controller's model-side view is wrong too.
//
// The controller never sees any of this directly; it only observes the
// monitor, the sensor, and its own verification bursts — exactly the
// information real silicon would have.
#pragma once

#include <cstdint>

#include "aging/aging_model.hpp"
#include "aging/stress.hpp"
#include "cell/library.hpp"
#include "engine/context.hpp"
#include "netlist/netlist.hpp"
#include "runtime/sensor.hpp"
#include "sta/sta.hpp"

namespace aapx {

struct FaultScenario {
  /// ΔVth acceleration (1.0 = nominal): the die degrades this much harder
  /// than the calibrated model predicts, applied to both NBTI and PBTI
  /// prefactors. 1.5 means every transistor accumulates 1.5x the modeled
  /// threshold shift at any point of life — the standard process-outlier /
  /// workload-dependency deviation. Note this is far stronger than scaling
  /// wall-clock time: with the long-term exponent n = 0.16, aging 1.5x
  /// *faster in time* only inflates ΔVth by 1.5^0.16 ≈ 1.07x.
  double aging_acceleration = 1.0;

  /// Temperature excursion [K] added to the nominal operating point from
  /// `temp_step_from_years` on (Arrhenius-accelerates ΔVth growth).
  double temp_step_kelvin = 0.0;
  double temp_step_from_years = 0.0;

  /// Fraction of gates that are ΔVth outliers; each outlier's rise/fall
  /// delay is additionally multiplied by `gate_outlier_factor` (>= 1).
  /// The outlier pattern is a property of the die: fixed by `seed`.
  double gate_outlier_fraction = 0.0;
  double gate_outlier_factor = 1.0;

  /// Sensor faults, forwarded into the AgingSensor the campaign uses.
  double sensor_gain = 1.0;
  double sensor_offset_years = 0.0;
  double sensor_noise_sigma_years = 0.0;

  std::uint64_t seed = 1;

  static FaultScenario nominal() { return {}; }
};

class FaultInjector {
 public:
  /// Faulted degradation libraries come from `ctx`'s DesignStore: keyed by
  /// model *content*, so a nominal scenario shares the very same entries the
  /// runtime and characterizer use.
  FaultInjector(const Context& ctx, const CellLibrary& lib,
                AgingModel nominal, FaultScenario scenario);

  /// The age a nominal-model ΔVth observer would infer at wall-clock
  /// `years`: the t_eq with dVth_nominal(t_eq) = dVth_true(years). This is
  /// what a *perfect* aging sensor reports; under the power law a ΔVth
  /// acceleration of r maps to t_eq = years * r^(1/n) — small ΔVth
  /// deviations are huge age deviations, which is exactly why open-loop
  /// schedules are fragile.
  double equivalent_nominal_years(double years) const;

  /// Nominal aging model with the scenario's ΔVth acceleration and (if
  /// active at wall-clock `years`) temperature excursion applied to its BTI
  /// operating point; any extra mechanisms carry over unchanged.
  AgingModel faulted_model(double years) const;

  /// Ground-truth per-gate delays of `nl` at wall-clock `years`: aged by the
  /// faulted model under uniform stress of `mode`, with per-gate outlier
  /// multipliers applied on top.
  Sta::GateDelays true_delays(const Netlist& nl, StressMode mode, double years,
                              const StaOptions& sta = {}) const;

  /// Sensor observing this scenario's faults (fresh state; deterministic).
  AgingSensor make_sensor() const;

  const FaultScenario& scenario() const noexcept { return scenario_; }
  const AgingModel& nominal_model() const noexcept { return nominal_; }

 private:
  /// Faulted degradation library at one wall-clock age, served by the
  /// DesignStore (the faulted model is itself a function of `years` via the
  /// temperature step, and the store keys on the model's content, so the
  /// (model(years), years) pair is the complete key).
  const DegradationAwareLibrary& faulted_library(double years) const;

  const Context* ctx_;
  const CellLibrary* lib_;
  AgingModel nominal_;
  FaultScenario scenario_;
};

}  // namespace aapx
