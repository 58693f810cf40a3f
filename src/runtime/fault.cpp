#include "runtime/fault.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "cell/degradation.hpp"
#include "engine/design_store.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace aapx {

FaultInjector::FaultInjector(const Context& ctx, const CellLibrary& lib,
                             AgingModel nominal, FaultScenario scenario)
    : ctx_(&ctx),
      lib_(&lib),
      nominal_(std::move(nominal)),
      scenario_(scenario) {
  if (scenario_.aging_acceleration <= 0.0) {
    throw std::invalid_argument("FaultInjector: aging_acceleration must be > 0");
  }
  if (scenario_.gate_outlier_fraction < 0.0 ||
      scenario_.gate_outlier_fraction > 1.0) {
    throw std::invalid_argument(
        "FaultInjector: gate_outlier_fraction must be in [0, 1]");
  }
  if (scenario_.gate_outlier_factor < 1.0) {
    throw std::invalid_argument(
        "FaultInjector: gate_outlier_factor must be >= 1");
  }
  if (scenario_.temp_step_from_years < 0.0) {
    throw std::invalid_argument(
        "FaultInjector: temp_step_from_years must be >= 0");
  }
}

AgingModel FaultInjector::faulted_model(double years) const {
  AgingParams params = nominal_.params();
  params.bti.a_pmos *= scenario_.aging_acceleration;
  params.bti.a_nmos *= scenario_.aging_acceleration;
  if (scenario_.temp_step_kelvin != 0.0 &&
      years >= scenario_.temp_step_from_years) {
    params.bti.temp_kelvin += scenario_.temp_step_kelvin;
  }
  return AgingModel(params);
}

double FaultInjector::equivalent_nominal_years(double years) const {
  if (years < 0.0) {
    throw std::invalid_argument(
        "FaultInjector::equivalent_nominal_years: negative age");
  }
  if (years == 0.0) return 0.0;
  // Acceleration and temperature scale dVth uniformly across stress levels,
  // so the ratio at any one (S, t) pins the whole faulted surface; invert
  // the dVth = A * S^gamma * (t/t_ref)^n power law for the age a nominal
  // observer would infer from the true shift.
  const double dvth_true =
      faulted_model(years).delta_vth(TransistorType::pMos, 1.0, years);
  const double dvth_nom =
      nominal_.delta_vth(TransistorType::pMos, 1.0, years);
  if (dvth_nom <= 0.0) return years;
  const double n = nominal_.params().bti.time_exponent;
  return years * std::pow(dvth_true / dvth_nom, 1.0 / n);
}

const DegradationAwareLibrary& FaultInjector::faulted_library(
    double years) const {
  // A nominal scenario's faulted model is content-identical to the nominal
  // model, so this resolves to the same store entries the runtime warms.
  return ctx_->store().aged_library(*lib_, faulted_model(years), years);
}

Sta::GateDelays FaultInjector::true_delays(const Netlist& nl, StressMode mode,
                                           double years,
                                           const StaOptions& sta_options) const {
  if (years < 0.0) {
    throw std::invalid_argument("FaultInjector::true_delays: negative age");
  }
  const Sta sta(nl, sta_options, ctx_);
  Sta::GateDelays delays;
  if (years == 0.0) {
    delays = sta.gate_delays(nullptr, nullptr);
  } else {
    const DegradationAwareLibrary& aged = faulted_library(years);
    const StressProfile stress = StressProfile::uniform(mode, nl.num_gates());
    delays = sta.gate_delays(&aged, &stress);
  }
  if (scenario_.gate_outlier_fraction > 0.0 &&
      scenario_.gate_outlier_factor > 1.0) {
    // The outlier pattern is the die's fingerprint: reseeding per call keeps
    // it identical for every query against the same netlist.
    Rng rng(scenario_.seed);
    for (std::size_t g = 0; g < delays.rise.size(); ++g) {
      if (rng.next_bool(scenario_.gate_outlier_fraction)) {
        delays.rise[g] *= scenario_.gate_outlier_factor;
        delays.fall[g] *= scenario_.gate_outlier_factor;
      }
    }
  }
  return delays;
}

AgingSensor FaultInjector::make_sensor() const {
  AgingSensorConfig cfg;
  cfg.gain = scenario_.sensor_gain;
  cfg.offset_years = scenario_.sensor_offset_years;
  cfg.noise_sigma_years = scenario_.sensor_noise_sigma_years;
  cfg.seed = scenario_.seed + 0x5eed;
  return AgingSensor(cfg);
}

}  // namespace aapx
