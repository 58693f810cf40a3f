#include "aging/mechanism.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "aging/aging_model.hpp"
#include "engine/key.hpp"

namespace aapx {
namespace {

constexpr double kBoltzmannEv = 8.617333262e-5;

double arrhenius(double ea, double t_ref, double t) {
  return std::exp(ea / kBoltzmannEv * (1.0 / t_ref - 1.0 / t));
}

TEST(MechanismKindTest, NamesRoundTrip) {
  for (const MechanismKind k : {MechanismKind::bti, MechanismKind::hci,
                                MechanismKind::em, MechanismKind::tddb}) {
    EXPECT_EQ(mechanism_from_string(to_string(k)), k);
  }
  EXPECT_THROW(mechanism_from_string("nbti"), std::invalid_argument);
}

// --- golden curves, one per mechanism --------------------------------------
// Each expected value is an independent re-derivation of the mechanism's
// published law, so a silent change to the physics breaks these even if the
// implementation stays self-consistent.

TEST(BtiMechanismTest, MatchesWrappedModelAtItsOwnTemperature) {
  const BtiParams p;
  const AgingModel model;
  const BtiMechanism mech(p);
  GateEnv env;
  env.temp_kelvin = p.temp_kelvin;
  for (const double s : {0.0, 0.25, 1.0}) {
    env.stress_pmos = s;
    env.stress_nmos = s;
    for (const double y : {0.5, 1.0, 10.0}) {
      EXPECT_EQ(mech.delta_vth(TransistorType::pMos, env, y),
                model.delta_vth(TransistorType::pMos, s, y));
      EXPECT_EQ(mech.delta_vth(TransistorType::nMos, env, y),
                model.delta_vth(TransistorType::nMos, s, y));
      EXPECT_NEAR(mech.delta_vth(TransistorType::pMos, env, y),
                  p.a_pmos * std::pow(s, p.stress_exponent) *
                      std::pow(y / p.t_ref_years, p.time_exponent),
                  1e-15);
    }
  }
  EXPECT_EQ(mech.hazard_rate(env, 10.0), 0.0);
  EXPECT_EQ(mech.cumulative_hazard(env, 10.0), 0.0);
}

TEST(BtiMechanismTest, RetargetsArrheniusToEnvironmentTemperature) {
  const BtiParams p;
  const BtiMechanism mech(p);
  GateEnv env;
  env.temp_kelvin = 398.15;
  const double base = mech.delta_vth(TransistorType::pMos, 1.0, 10.0);
  const double expected =
      base * arrhenius(p.activation_ev, p.temp_kelvin, env.temp_kelvin);
  EXPECT_NEAR(mech.delta_vth(TransistorType::pMos, env, 10.0), expected,
              1e-15);
}

TEST(HciMechanismTest, GoldenDriftCurve) {
  const HciParams p;
  const HciMechanism mech(p);
  GateEnv env;
  env.temp_kelvin = p.t_ref_kelvin;
  // At reference time and unit activity the drift is the prefactor itself.
  env.activity = 1.0;
  EXPECT_DOUBLE_EQ(mech.delta_vth(TransistorType::nMos, env, p.t_ref_years),
                   p.a_hci);
  // Activity and time power laws.
  env.activity = 0.25;
  const double expected = p.a_hci *
                          std::pow(0.25, p.activity_exponent) *
                          std::pow(8.0, p.time_exponent);
  EXPECT_NEAR(mech.delta_vth(TransistorType::nMos, env, 8.0 * p.t_ref_years),
              expected, 1e-15);
  // Negative activation energy: HCI worsens when cold.
  GateEnv cold = env;
  cold.temp_kelvin = 300.0;
  EXPECT_GT(mech.delta_vth(TransistorType::nMos, cold, 8.0),
            mech.delta_vth(TransistorType::nMos, env, 8.0));
  // Only the nMOS pull-down is damaged; idle gates do not age.
  EXPECT_EQ(mech.delta_vth(TransistorType::pMos, env, 8.0), 0.0);
  env.activity = 0.0;
  EXPECT_EQ(mech.delta_vth(TransistorType::nMos, env, 8.0), 0.0);
}

TEST(EmMechanismTest, GoldenHazardCurve) {
  const EmParams p;
  const EmMechanism mech(p);
  GateEnv env;
  env.activity = 1.0;
  env.load = 1.0;
  env.temp_kelvin = p.t_ref_kelvin;
  // At the characterization corner (j == j_ref, T == T_ref) the Weibull
  // scale is eta_ref: H(t) = (t / eta_ref)^beta.
  const double years = 10.0;
  EXPECT_NEAR(mech.cumulative_hazard(env, years),
              std::pow(years / p.eta_ref_years, p.beta), 1e-15);
  EXPECT_NEAR(mech.hazard_rate(env, years),
              p.beta / p.eta_ref_years *
                  std::pow(years / p.eta_ref_years, p.beta - 1.0),
              1e-18);
  // Black's equation: half the current density -> 2^n longer life.
  GateEnv half = env;
  half.activity = 0.5;
  EXPECT_NEAR(mech.cumulative_hazard(half, years),
              mech.cumulative_hazard(env, years) /
                  std::pow(std::pow(2.0, p.current_exponent), p.beta),
              1e-15);
  // No switching current, no electromigration.
  GateEnv idle = env;
  idle.activity = 0.0;
  EXPECT_EQ(mech.cumulative_hazard(idle, years), 0.0);
  EXPECT_EQ(mech.hazard_rate(idle, years), 0.0);
  EXPECT_EQ(mech.delta_vth(TransistorType::nMos, env, years), 0.0);
}

TEST(TddbMechanismTest, GoldenHazardCurve) {
  const TddbParams p;
  const TddbMechanism mech(p, p.vdd_ref);
  GateEnv env;
  env.temp_kelvin = p.t_ref_kelvin;
  const double years = 20.0;
  EXPECT_NEAR(mech.cumulative_hazard(env, years),
              std::pow(years / p.eta_ref_years, p.beta), 1e-15);
  // Oxide stress is field-driven: activity does not matter...
  GateEnv busy = env;
  busy.activity = 1.0;
  EXPECT_EQ(mech.cumulative_hazard(busy, years),
            mech.cumulative_hazard(env, years));
  // ...but the supply very much does (voltage power law).
  const TddbMechanism overdriven(p, p.vdd_ref * 1.05);
  EXPECT_NEAR(overdriven.cumulative_hazard(env, years) /
                  mech.cumulative_hazard(env, years),
              std::pow(1.05, p.voltage_exponent * p.beta), 1e-9);
  // Hotter oxide breaks down sooner.
  GateEnv hot = env;
  hot.temp_kelvin = p.t_ref_kelvin + 30.0;
  EXPECT_GT(mech.cumulative_hazard(hot, years),
            mech.cumulative_hazard(env, years));
}

// --- composite model --------------------------------------------------------

TEST(AgingModelTest, ValidatesMechanismSet) {
  AgingParams empty;
  empty.mechanisms.clear();
  EXPECT_THROW(AgingModel{empty}, std::invalid_argument);
  AgingParams dup;
  dup.mechanisms = {MechanismKind::bti, MechanismKind::bti};
  EXPECT_THROW(AgingModel{dup}, std::invalid_argument);
}

TEST(AgingModelTest, HazardSumsCompetingRisks) {
  AgingParams params;
  params.mechanisms = {MechanismKind::bti, MechanismKind::em,
                       MechanismKind::tddb};
  const AgingModel model(params);
  EXPECT_TRUE(model.has_hard_failure());
  GateEnv env;
  env.activity = 0.8;
  const double em = EmMechanism(params.em).cumulative_hazard(env, 10.0);
  const double tddb =
      TddbMechanism(params.tddb, params.bti.vdd).cumulative_hazard(env, 10.0);
  EXPECT_NEAR(model.cumulative_hazard(env, 10.0), em + tddb, 1e-18);
}

// --- store keys -------------------------------------------------------------

TEST(AgingModelKeyTest, ExtendedSetsNeverAliasBtiOnlyKeys) {
  const std::uint64_t default_key = engine::key_of(AgingParams{});
  AgingParams hci;
  hci.mechanisms = {MechanismKind::bti, MechanismKind::hci};
  AgingParams hard;
  hard.mechanisms = {MechanismKind::bti, MechanismKind::em,
                     MechanismKind::tddb};
  const std::uint64_t k_hci = engine::key_of(hci);
  const std::uint64_t k_hard = engine::key_of(hard);
  EXPECT_NE(k_hci, default_key);
  EXPECT_NE(k_hard, default_key);
  EXPECT_NE(k_hci, k_hard);
  // Parameter changes inside an enabled block change the extended key.
  AgingParams hci2 = hci;
  hci2.hci.a_hci *= 2.0;
  EXPECT_NE(engine::key_of(hci2), k_hci);
}

TEST(AgingModelKeyTest, EveryLiveFieldAndTheMechanismOrderChangeTheKey) {
  using Field = double& (*)(AgingParams&);
#define FIELD(f) {#f, [](AgingParams& p) -> double& { return p.f; }}
  const std::vector<std::pair<const char*, Field>> bti = {
      FIELD(bti.vdd),           FIELD(bti.vth0),
      FIELD(bti.a_pmos),        FIELD(bti.a_nmos),
      FIELD(bti.time_exponent), FIELD(bti.stress_exponent),
      FIELD(bti.alpha),         FIELD(bti.t_ref_years),
      FIELD(bti.temp_kelvin),   FIELD(bti.t_ref_kelvin),
      FIELD(bti.activation_ev),
  };
  const std::vector<std::pair<const char*, Field>> others = {
      FIELD(hci.a_hci),          FIELD(hci.activity_exponent),
      FIELD(hci.time_exponent),  FIELD(hci.t_ref_years),
      FIELD(hci.activation_ev),  FIELD(hci.t_ref_kelvin),
      FIELD(em.beta),            FIELD(em.eta_ref_years),
      FIELD(em.j_ref),           FIELD(em.current_exponent),
      FIELD(em.activation_ev),   FIELD(em.t_ref_kelvin),
      FIELD(tddb.beta),          FIELD(tddb.eta_ref_years),
      FIELD(tddb.vdd_ref),       FIELD(tddb.voltage_exponent),
      FIELD(tddb.activation_ev), FIELD(tddb.t_ref_kelvin),
  };
#undef FIELD
  AgingParams all;
  all.mechanisms = {MechanismKind::bti, MechanismKind::hci, MechanismKind::em,
                    MechanismKind::tddb};
  const AgingParams bti_alone;  // HCI, EM and TDDB blocks disabled
  const std::uint64_t k_all = engine::key_of(all);
  const std::uint64_t k_bti = engine::key_of(bti_alone);
  for (const auto& [name, field] : bti) {
    AgingParams p = all;
    field(p) += 0.25;
    EXPECT_NE(engine::key_of(p), k_all) << name;
    AgingParams q = bti_alone;
    field(q) += 0.25;
    EXPECT_NE(engine::key_of(q), k_bti) << name;
  }
  for (const auto& [name, field] : others) {
    AgingParams p = all;
    field(p) += 0.25;
    EXPECT_NE(engine::key_of(p), k_all) << name << " (enabled)";
    AgingParams q = bti_alone;
    field(q) += 0.25;
    EXPECT_EQ(engine::key_of(q), k_bti) << name << " (disabled)";
  }
  AgingParams reordered = all;
  reordered.mechanisms = {MechanismKind::hci, MechanismKind::bti,
                          MechanismKind::em, MechanismKind::tddb};
  EXPECT_NE(engine::key_of(reordered), k_all);
}

}  // namespace
}  // namespace aapx
