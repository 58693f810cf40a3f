#include "aging/mechanism.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace aapx {
namespace {

constexpr double kBoltzmannEv = 8.617333262e-5;  // eV / K

/// Arrhenius acceleration relative to a characterization corner: identity at
/// T == T_ref, > 1 when the mechanism is faster at T than at T_ref.
double arrhenius(double activation_ev, double t_ref_kelvin,
                 double temp_kelvin) {
  return std::exp(activation_ev / kBoltzmannEv *
                  (1.0 / t_ref_kelvin - 1.0 / temp_kelvin));
}

/// Weibull cumulative hazard H(t) = (t / eta)^beta; eta == +inf means the
/// environment exerts no stress at all (e.g. EM with zero activity).
double weibull_cumulative(double eta, double beta, double years) {
  if (years <= 0.0 || !std::isfinite(eta)) return 0.0;
  return std::pow(years / eta, beta);
}

double weibull_rate(double eta, double beta, double years) {
  if (years <= 0.0 || !std::isfinite(eta)) return 0.0;
  return beta / eta * std::pow(years / eta, beta - 1.0);
}

void require_positive(double v, const char* what) {
  if (!(v > 0.0)) {
    throw std::invalid_argument(std::string("AgingMechanism: ") + what +
                                " must be positive");
  }
}

}  // namespace

std::string to_string(MechanismKind kind) {
  switch (kind) {
    case MechanismKind::bti:
      return "bti";
    case MechanismKind::hci:
      return "hci";
    case MechanismKind::em:
      return "em";
    case MechanismKind::tddb:
      return "tddb";
  }
  return "?";
}

MechanismKind mechanism_from_string(const std::string& name) {
  if (name == "bti") return MechanismKind::bti;
  if (name == "hci") return MechanismKind::hci;
  if (name == "em") return MechanismKind::em;
  if (name == "tddb") return MechanismKind::tddb;
  throw std::invalid_argument("unknown aging mechanism '" + name +
                              "' (bti|hci|em|tddb)");
}

// --- BTI --------------------------------------------------------------------

double BtiMechanism::delta_vth(TransistorType type, double stress,
                               double years) const {
  if (stress < 0.0 || stress > 1.0) {
    throw std::invalid_argument("BtiMechanism: stress must be in [0, 1]");
  }
  if (years < 0.0) {
    throw std::invalid_argument("BtiMechanism: negative lifetime");
  }
  if (stress == 0.0 || years == 0.0) return 0.0;
  const double a =
      type == TransistorType::pMos ? params_.a_pmos : params_.a_nmos;
  // Arrhenius temperature acceleration relative to the characterization
  // corner (identity at T == T_ref).
  const double thermal = arrhenius(params_.activation_ev, params_.t_ref_kelvin,
                                   params_.temp_kelvin);
  return a * thermal * std::pow(stress, params_.stress_exponent) *
         std::pow(years / params_.t_ref_years, params_.time_exponent);
}

double BtiMechanism::delta_vth(TransistorType type, const GateEnv& env,
                               double years) const {
  const double stress =
      type == TransistorType::pMos ? env.stress_pmos : env.stress_nmos;
  const double base = delta_vth(type, stress, years);
  // The power law evaluates at params().temp_kelvin; retarget the Arrhenius
  // term to the environment's temperature (identity when they agree).
  if (env.temp_kelvin == params_.temp_kelvin) return base;
  require_positive(env.temp_kelvin, "temp_kelvin");
  return base *
         arrhenius(params_.activation_ev, params_.temp_kelvin, env.temp_kelvin);
}

// --- HCI --------------------------------------------------------------------

HciMechanism::HciMechanism(const HciParams& params) : params_(params) {
  if (params_.a_hci < 0.0) {
    throw std::invalid_argument("HciMechanism: negative dVth prefactor");
  }
  require_positive(params_.t_ref_years, "hci t_ref_years");
  require_positive(params_.t_ref_kelvin, "hci t_ref_kelvin");
}

double HciMechanism::delta_vth(TransistorType type, const GateEnv& env,
                               double years) const {
  // Hot carriers are injected during output transitions, which discharge
  // through the nMOS pull-down — classic HCI damages the nMOS device.
  if (type != TransistorType::nMos) return 0.0;
  if (env.activity < 0.0) {
    throw std::invalid_argument("HciMechanism: negative activity");
  }
  if (years < 0.0) {
    throw std::invalid_argument("HciMechanism: negative lifetime");
  }
  if (env.activity == 0.0 || years == 0.0) return 0.0;
  require_positive(env.temp_kelvin, "temp_kelvin");
  return params_.a_hci *
         arrhenius(params_.activation_ev, params_.t_ref_kelvin,
                   env.temp_kelvin) *
         std::pow(env.activity, params_.activity_exponent) *
         std::pow(years / params_.t_ref_years, params_.time_exponent);
}

// --- EM ---------------------------------------------------------------------

EmMechanism::EmMechanism(const EmParams& params) : params_(params) {
  require_positive(params_.beta, "em beta");
  require_positive(params_.eta_ref_years, "em eta_ref_years");
  require_positive(params_.j_ref, "em j_ref");
  require_positive(params_.t_ref_kelvin, "em t_ref_kelvin");
}

double EmMechanism::eta_years(const GateEnv& env) const {
  const double j = env.activity * env.load;  // switching charge per cycle
  if (j <= 0.0) return std::numeric_limits<double>::infinity();
  require_positive(env.temp_kelvin, "temp_kelvin");
  // Black's equation: life ~ j^-n * exp(Ea / kT). Expressed relative to the
  // characterization corner so eta(j_ref, T_ref) == eta_ref.
  return params_.eta_ref_years *
         std::pow(params_.j_ref / j, params_.current_exponent) /
         arrhenius(params_.activation_ev, params_.t_ref_kelvin,
                   env.temp_kelvin);
}

double EmMechanism::hazard_rate(const GateEnv& env, double years) const {
  return weibull_rate(eta_years(env), params_.beta, years);
}

double EmMechanism::cumulative_hazard(const GateEnv& env, double years) const {
  return weibull_cumulative(eta_years(env), params_.beta, years);
}

// --- TDDB -------------------------------------------------------------------

TddbMechanism::TddbMechanism(const TddbParams& params, double vdd)
    : params_(params), vdd_(vdd) {
  require_positive(params_.beta, "tddb beta");
  require_positive(params_.eta_ref_years, "tddb eta_ref_years");
  require_positive(params_.vdd_ref, "tddb vdd_ref");
  require_positive(params_.t_ref_kelvin, "tddb t_ref_kelvin");
  require_positive(vdd_, "vdd");
}

double TddbMechanism::eta_years(const GateEnv& env) const {
  require_positive(env.temp_kelvin, "temp_kelvin");
  // Voltage power law: life ~ V^-gamma, thermally accelerated. The oxide is
  // under field stress whenever the part is powered — no activity term.
  return params_.eta_ref_years *
         std::pow(params_.vdd_ref / vdd_, params_.voltage_exponent) /
         arrhenius(params_.activation_ev, params_.t_ref_kelvin,
                   env.temp_kelvin);
}

double TddbMechanism::hazard_rate(const GateEnv& env, double years) const {
  return weibull_rate(eta_years(env), params_.beta, years);
}

double TddbMechanism::cumulative_hazard(const GateEnv& env,
                                        double years) const {
  return weibull_cumulative(eta_years(env), params_.beta, years);
}

}  // namespace aapx
