// Pluggable aging-mechanism interface.
//
// The paper's aging chain (Eq. 1) is BTI-only; real silicon degrades through
// several mechanisms with different *consequences*:
//
//   * drift mechanisms (BTI, HCI) shift Vth and slow gates down — the
//     runtime can compensate by stepping precision down (the paper's
//     aging-induced approximation), and
//   * wear-out mechanisms (EM, TDDB) kill a driver or an oxide outright —
//     no precision step helps; the control loop must fail over instead.
//
// Every mechanism implements one narrow contract: a threshold-voltage drift
// contribution (zero for hard-failure mechanisms) plus a hazard rate for
// hard failure (zero for drift mechanisms). The composite AgingModel
// (aging_model.hpp) owns an ordered set of mechanisms and turns their drift
// into gate delay factors.
#pragma once

#include <string>

namespace aapx {

enum class TransistorType { nMos, pMos };

enum class MechanismKind { bti = 0, hci = 1, em = 2, tddb = 3 };

std::string to_string(MechanismKind kind);
/// Parses "bti" | "hci" | "em" | "tddb"; throws std::invalid_argument on
/// anything else (the CLI turns that into a one-line diagnostic).
MechanismKind mechanism_from_string(const std::string& name);

/// Per-gate operating environment a mechanism evaluates against. The duty
/// pair feeds BTI, the toggle activity feeds HCI and EM (switching current),
/// the normalized load scales the driver's current density, and the
/// temperature drives every Arrhenius term.
struct GateEnv {
  double stress_pmos = 1.0;  ///< pull-up duty stress in [0, 1] (NBTI)
  double stress_nmos = 1.0;  ///< pull-down duty stress in [0, 1] (PBTI)
  double activity = 0.0;     ///< output toggles per cycle (transition density)
  double load = 1.0;         ///< normalized output load (current-density proxy)
  double temp_kelvin = 358.15;
};

/// Bias Temperature Instability: the paper's first-order aging chain
/// (Eq. 1). dVth follows the long-term reaction-diffusion / capture-emission
/// power law  dVth = A * S^gamma * (t/t_ref)^n,  where the stress factor
/// S in [0, 1] is the fraction of lifetime the transistor spends under stress
/// (paper Sec. IV: ratio of stress to recovery time). pMOS devices suffer
/// NBTI; nMOS devices suffer the weaker PBTI (smaller prefactor).
///
/// The block also carries the electrical operating point (vdd, vth0) and the
/// alpha-power delay-law exponent every mechanism's drift is converted
/// through (AgingModel::delay_factor_from_dvth).
///
/// Calibration (see DESIGN.md Sec. 5): with the defaults below a pMOS under
/// 100% stress for 10 years yields k ~= 1.15 (about +15% gate delay), and
/// ~+10% after 1 year, matching the guardband magnitudes in paper Figs. 4/7/8a.
struct BtiParams {
  double vdd = 1.1;    ///< Supply voltage [V] (NanGate 45nm operating point).
  double vth0 = 0.45;  ///< Fresh threshold voltage [V].

  double a_pmos = 0.0458;  ///< NBTI dVth prefactor [V] at S=1, t=t_ref.
  double a_nmos = 0.0275;  ///< PBTI dVth prefactor [V] (weaker than NBTI).

  double time_exponent = 0.16;   ///< n: long-term BTI time power law.
  double stress_exponent = 0.5;  ///< gamma: dVth ~ S^gamma.
  double alpha = 1.3;            ///< alpha-power delay-law exponent.
  double t_ref_years = 1.0;      ///< Reference time for the prefactors.

  /// Operating temperature [K]. BTI is thermally activated (Arrhenius):
  /// dVth scales by exp(Ea/k * (1/T_ref - 1/T)). The prefactors are
  /// characterized at t_ref_kelvin (85 C, the usual reliability corner), so
  /// the default changes nothing.
  double temp_kelvin = 358.15;
  double t_ref_kelvin = 358.15;
  double activation_ev = 0.08;   ///< effective BTI activation energy [eV]
};

/// Hot-carrier injection: drift driven by switching events, not by static
/// bias — dVth grows with the toggle activity of the gate output. HCI has a
/// steeper time exponent than BTI and (unlike BTI) worsens slightly at *low*
/// temperature, hence the negative default activation energy.
struct HciParams {
  double a_hci = 0.006;            ///< dVth prefactor [V] at activity=1, t=t_ref
  double activity_exponent = 0.7;  ///< dVth ~ activity^m
  double time_exponent = 0.45;     ///< n: HCI time power law (steeper than BTI)
  double t_ref_years = 1.0;
  double activation_ev = -0.05;    ///< negative: worse when cold
  double t_ref_kelvin = 358.15;
};

/// Electromigration: hard failure of a driver/wire from momentum transfer at
/// high current density. Weibull life with a Black's-equation scale,
///   eta = eta_ref * (j_ref / j)^n * exp(Ea/k * (1/T - 1/T_ref)),
/// where the normalized current density j = activity * load (switching
/// charge through the driver per cycle). Zero activity means zero hazard.
struct EmParams {
  double beta = 2.0;             ///< Weibull shape
  double eta_ref_years = 500.0;  ///< Weibull scale at j == j_ref, T == T_ref
  double j_ref = 1.0;            ///< reference normalized current density
  double current_exponent = 2.0; ///< Black's-equation n
  double activation_ev = 0.9;
  double t_ref_kelvin = 358.15;
};

/// Time-dependent dielectric breakdown: hard failure of the gate oxide under
/// field stress — present whenever the part is powered, independent of
/// activity. Weibull life with a voltage power-law scale,
///   eta = eta_ref * (vdd_ref / vdd)^gamma * exp(Ea/k * (1/T - 1/T_ref)).
struct TddbParams {
  double beta = 1.5;              ///< Weibull shape
  double eta_ref_years = 800.0;   ///< Weibull scale at vdd_ref, T_ref
  double vdd_ref = 1.1;           ///< reference supply [V]
  double voltage_exponent = 30.0; ///< field-acceleration power-law exponent
  double activation_ev = 0.6;
  double t_ref_kelvin = 358.15;
};

/// One aging mechanism. Drift mechanisms implement delta_vth and return zero
/// hazard; hard-failure mechanisms implement the hazard pair and return zero
/// drift. Both kinds are total functions over (env, years >= 0).
class AgingMechanism {
 public:
  virtual ~AgingMechanism() = default;

  virtual MechanismKind kind() const noexcept = 0;
  /// True for wear-out mechanisms (EM, TDDB) whose consequence is a dead
  /// device; false for drift mechanisms (BTI, HCI) whose consequence is a
  /// delay factor the precision-fallback path can absorb.
  virtual bool hard_failure() const noexcept = 0;

  /// Threshold-voltage shift [V] after `years` in this environment. Zero for
  /// hard-failure mechanisms.
  virtual double delta_vth(TransistorType type, const GateEnv& env,
                           double years) const = 0;
  /// Instantaneous hazard rate [1/years]. Zero for drift mechanisms.
  virtual double hazard_rate(const GateEnv& env, double years) const = 0;
  /// Cumulative hazard H(t) = integral of the rate; the device survival
  /// probability is exp(-H). Zero for drift mechanisms.
  virtual double cumulative_hazard(const GateEnv& env, double years) const = 0;
};

/// BTI as a mechanism. Parameter validation lives in AgingModel, which
/// checks the BTI block for every mechanism set.
class BtiMechanism final : public AgingMechanism {
 public:
  explicit BtiMechanism(const BtiParams& params) : params_(params) {}

  MechanismKind kind() const noexcept override { return MechanismKind::bti; }
  bool hard_failure() const noexcept override { return false; }
  double delta_vth(TransistorType type, const GateEnv& env,
                   double years) const override;
  double hazard_rate(const GateEnv&, double) const override { return 0.0; }
  double cumulative_hazard(const GateEnv&, double) const override {
    return 0.0;
  }

  /// Threshold-voltage shift [V] after `years` at stress factor `stress` in
  /// [0, 1], evaluated at the block's temp_kelvin. stress == 0 means permanent
  /// recovery (no shift).
  double delta_vth(TransistorType type, double stress, double years) const;

 private:
  BtiParams params_;
};

class HciMechanism final : public AgingMechanism {
 public:
  explicit HciMechanism(const HciParams& params);

  MechanismKind kind() const noexcept override { return MechanismKind::hci; }
  bool hard_failure() const noexcept override { return false; }
  double delta_vth(TransistorType type, const GateEnv& env,
                   double years) const override;
  double hazard_rate(const GateEnv&, double) const override { return 0.0; }
  double cumulative_hazard(const GateEnv&, double) const override {
    return 0.0;
  }

 private:
  HciParams params_;
};

class EmMechanism final : public AgingMechanism {
 public:
  explicit EmMechanism(const EmParams& params);

  MechanismKind kind() const noexcept override { return MechanismKind::em; }
  bool hard_failure() const noexcept override { return true; }
  double delta_vth(TransistorType, const GateEnv&, double) const override {
    return 0.0;
  }
  double hazard_rate(const GateEnv& env, double years) const override;
  double cumulative_hazard(const GateEnv& env, double years) const override;

  /// Weibull scale [years] in this environment; +inf when j <= 0.
  double eta_years(const GateEnv& env) const;

 private:
  EmParams params_;
};

class TddbMechanism final : public AgingMechanism {
 public:
  /// `vdd` is the actual operating supply (the electrical operating point
  /// lives in BtiParams; the composite model passes it through).
  TddbMechanism(const TddbParams& params, double vdd);

  MechanismKind kind() const noexcept override { return MechanismKind::tddb; }
  bool hard_failure() const noexcept override { return true; }
  double delta_vth(TransistorType, const GateEnv&, double) const override {
    return 0.0;
  }
  double hazard_rate(const GateEnv& env, double years) const override;
  double cumulative_hazard(const GateEnv& env, double years) const override;

  /// Weibull scale [years] in this environment.
  double eta_years(const GateEnv& env) const;

 private:
  TddbParams params_;
  double vdd_;
};

}  // namespace aapx
