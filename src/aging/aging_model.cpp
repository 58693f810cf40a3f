#include "aging/aging_model.hpp"

#include <cmath>
#include <stdexcept>

#include "util/hash.hpp"

namespace aapx {

std::uint64_t aging_params_key(const AgingParams& params) {
  // Domain-separation tag of the aging-parameter key family.
  constexpr std::uint64_t kTagAgingModel = 0x41474d3131ULL;  // "AGM11"
  Hasher h;
  h.u64(kTagAgingModel);
  h.u64(params.mechanisms.size());
  for (const MechanismKind kind : params.mechanisms) {
    h.i32(static_cast<int>(kind));
  }
  const BtiParams& b = params.bti;
  h.f64(b.vdd)
      .f64(b.vth0)
      .f64(b.a_pmos)
      .f64(b.a_nmos)
      .f64(b.time_exponent)
      .f64(b.stress_exponent)
      .f64(b.alpha)
      .f64(b.t_ref_years)
      .f64(b.temp_kelvin)
      .f64(b.t_ref_kelvin)
      .f64(b.activation_ev);
  if (params.has(MechanismKind::hci)) {
    const HciParams& p = params.hci;
    h.f64(p.a_hci)
        .f64(p.activity_exponent)
        .f64(p.time_exponent)
        .f64(p.t_ref_years)
        .f64(p.activation_ev)
        .f64(p.t_ref_kelvin);
  }
  if (params.has(MechanismKind::em)) {
    const EmParams& p = params.em;
    h.f64(p.beta)
        .f64(p.eta_ref_years)
        .f64(p.j_ref)
        .f64(p.current_exponent)
        .f64(p.activation_ev)
        .f64(p.t_ref_kelvin);
  }
  if (params.has(MechanismKind::tddb)) {
    const TddbParams& p = params.tddb;
    h.f64(p.beta)
        .f64(p.eta_ref_years)
        .f64(p.vdd_ref)
        .f64(p.voltage_exponent)
        .f64(p.activation_ev)
        .f64(p.t_ref_kelvin);
  }
  return h.digest();
}

AgingModel::AgingModel(AgingParams params) : params_(std::move(params)) {
  const BtiParams& bti = params_.bti;
  if (bti.vdd <= bti.vth0) {
    throw std::invalid_argument("AgingModel: vdd must exceed vth0");
  }
  if (bti.a_pmos < 0.0 || bti.a_nmos < 0.0) {
    throw std::invalid_argument("AgingModel: negative dVth prefactor");
  }
  if (bti.t_ref_years <= 0.0) {
    throw std::invalid_argument("AgingModel: t_ref_years must be positive");
  }
  if (bti.temp_kelvin <= 0.0 || bti.t_ref_kelvin <= 0.0) {
    throw std::invalid_argument("AgingModel: temperatures must be positive");
  }
  rebuild();
  key_ = aging_params_key(params_);
}

AgingModel::AgingModel(const AgingModel& other)
    : params_(other.params_), key_(other.key_) {
  rebuild();
}

AgingModel& AgingModel::operator=(const AgingModel& other) {
  if (this != &other) {
    params_ = other.params_;
    key_ = other.key_;
    rebuild();
  }
  return *this;
}

void AgingModel::rebuild() {
  if (params_.mechanisms.empty()) {
    throw std::invalid_argument("AgingModel: mechanism set must be non-empty");
  }
  mechanisms_.clear();
  bti_ = nullptr;
  hci_ = nullptr;
  has_hard_failure_ = false;
  for (std::size_t i = 0; i < params_.mechanisms.size(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      if (params_.mechanisms[j] == params_.mechanisms[i]) {
        throw std::invalid_argument("AgingModel: duplicate mechanism '" +
                                    to_string(params_.mechanisms[i]) + "'");
      }
    }
    switch (params_.mechanisms[i]) {
      case MechanismKind::bti:
        mechanisms_.push_back(std::make_unique<BtiMechanism>(params_.bti));
        bti_ = static_cast<const BtiMechanism*>(mechanisms_.back().get());
        break;
      case MechanismKind::hci:
        mechanisms_.push_back(std::make_unique<HciMechanism>(params_.hci));
        hci_ = static_cast<const HciMechanism*>(mechanisms_.back().get());
        break;
      case MechanismKind::em:
        mechanisms_.push_back(std::make_unique<EmMechanism>(params_.em));
        has_hard_failure_ = true;
        break;
      case MechanismKind::tddb:
        mechanisms_.push_back(
            std::make_unique<TddbMechanism>(params_.tddb, params_.bti.vdd));
        has_hard_failure_ = true;
        break;
    }
  }
}

double AgingModel::delta_vth(TransistorType type, double stress,
                             double years) const {
  // Without BTI the duty-based grids degenerate to identity.
  return bti_ != nullptr ? bti_->delta_vth(type, stress, years) : 0.0;
}

double AgingModel::delay_factor(TransistorType type, double stress,
                                double years) const {
  return delay_factor_from_dvth(delta_vth(type, stress, years));
}

double AgingModel::delay_factor_from_dvth(double dvth) const {
  const double overdrive0 = params_.bti.vdd - params_.bti.vth0;
  const double overdrive = overdrive0 - dvth;
  if (overdrive <= 0.0) {
    throw std::domain_error(
        "AgingModel: dVth consumed the full gate overdrive");
  }
  return std::pow(overdrive0 / overdrive, params_.bti.alpha);
}

double AgingModel::hci_delta_vth(double activity, double years) const {
  if (hci_ == nullptr) return 0.0;
  GateEnv env;
  env.activity = activity;
  env.temp_kelvin = params_.bti.temp_kelvin;
  return hci_->delta_vth(TransistorType::nMos, env, years);
}

double AgingModel::hazard_rate(const GateEnv& env, double years) const {
  double h = 0.0;
  for (const auto& m : mechanisms_) {
    if (m->hard_failure()) h += m->hazard_rate(env, years);
  }
  return h;
}

double AgingModel::cumulative_hazard(const GateEnv& env, double years) const {
  double h = 0.0;
  for (const auto& m : mechanisms_) {
    if (m->hard_failure()) h += m->cumulative_hazard(env, years);
  }
  return h;
}

}  // namespace aapx
