// Composite aging model: an ordered set of AgingMechanism instances plus the
// superset parameter record — the single aging type the cell library, STA,
// sensor and fault injector consume.
//
// The chain is the paper's Eq. 1: per-mechanism stress -> dVth, and one
// alpha-power delay law (BSIM [3]) that converts the summed drift into a gate
// delay factor relative to the fresh gate,
//
//   k = ((Vdd - Vth0) / (Vdd - Vth0 - dVth))^alpha  >= 1.
//
// The default AgingParams enables exactly {bti} with the calibrated
// BtiParams (DESIGN.md Sec. 5).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "aging/mechanism.hpp"

namespace aapx {

/// Superset parameter record: one block per mechanism plus the ordered set
/// of enabled mechanisms. The electrical operating point (vdd, vth0) lives
/// in the BTI block and is shared by every mechanism that needs it.
struct AgingParams {
  BtiParams bti;
  HciParams hci;
  EmParams em;
  TddbParams tddb;
  /// Enabled mechanisms, in evaluation order. Must be non-empty and free of
  /// duplicates (AgingModel validates).
  std::vector<MechanismKind> mechanisms = {MechanismKind::bti};

  bool has(MechanismKind kind) const noexcept {
    for (const MechanismKind m : mechanisms) {
      if (m == kind) return true;
    }
    return false;
  }
};

/// Stable 64-bit content digest of a parameter record (util/hash.hpp): the
/// ordered mechanism list, every BtiParams field (the block carries the
/// shared electrical operating point, so it always participates) and the
/// parameter block of each enabled HCI/EM/TDDB mechanism. A disabled
/// mechanism's block does not affect the key, so records with equal
/// effective parameters key identically. Store keys and files depend on
/// this byte stream; tests/engine/key_pin_test.cpp pins it.
std::uint64_t aging_params_key(const AgingParams& params);

class AgingModel {
 public:
  /// Validates the BTI block (it carries the electrical operating point for
  /// every mechanism set) and the mechanism list; throws
  /// std::invalid_argument on either.
  explicit AgingModel(AgingParams params = {});

  /// Copyable: mechanisms are rebuilt from the params (cheap, validation
  /// already passed once) and the key is copied with them.
  AgingModel(const AgingModel& other);
  AgingModel& operator=(const AgingModel& other);
  AgingModel(AgingModel&&) noexcept = default;
  AgingModel& operator=(AgingModel&&) noexcept = default;

  const AgingParams& params() const noexcept { return params_; }
  /// aging_params_key(params()), computed once at construction: every store
  /// lookup keys on it, so a query never re-hashes the parameter block.
  std::uint64_t key() const noexcept { return key_; }

  bool has(MechanismKind kind) const noexcept { return params_.has(kind); }
  bool has_hci() const noexcept { return hci_ != nullptr; }
  /// True when any enabled mechanism is a hard-failure mechanism (EM/TDDB).
  bool has_hard_failure() const noexcept { return has_hard_failure_; }
  const std::vector<std::unique_ptr<AgingMechanism>>& mechanisms()
      const noexcept {
    return mechanisms_;
  }

  // --- duty-based drift -----------------------------------------------------
  // The calls the degradation grids, sensor and fault injector make. With BTI
  // enabled delta_vth is BtiMechanism's power law; with BTI disabled it is
  // identically zero (identity grids).

  /// Threshold-voltage shift [V] after `years` at stress factor `stress` in
  /// [0, 1]. stress == 0 means permanent recovery (no shift).
  double delta_vth(TransistorType type, double stress, double years) const;
  /// Delay degradation factor k >= 1 for a transition driven by a transistor
  /// of the given type (rising output -> pMOS pull-up, falling -> nMOS).
  double delay_factor(TransistorType type, double stress, double years) const;
  /// Alpha-power delay factor from an explicit dVth; throws std::domain_error
  /// once dVth consumes the full gate overdrive (vdd - vth0).
  double delay_factor_from_dvth(double dvth) const;

  // --- HCI drift ------------------------------------------------------------

  /// nMOS threshold drift from toggle activity (zero when HCI is disabled).
  /// The STA layer applies this to falling-transition delays on top of the
  /// duty-based BTI grids.
  double hci_delta_vth(double activity, double years) const;

  // --- hard failure ---------------------------------------------------------

  /// Summed instantaneous hazard rate [1/years] over the enabled
  /// hard-failure mechanisms (competing risks; zero when none are enabled).
  double hazard_rate(const GateEnv& env, double years) const;
  /// Summed cumulative hazard; device survival is exp(-H).
  double cumulative_hazard(const GateEnv& env, double years) const;

 private:
  void rebuild();

  AgingParams params_;
  std::uint64_t key_ = 0;
  std::vector<std::unique_ptr<AgingMechanism>> mechanisms_;
  // Borrowed views into mechanisms_, refreshed by rebuild().
  const BtiMechanism* bti_ = nullptr;
  const HciMechanism* hci_ = nullptr;
  bool has_hard_failure_ = false;
};

}  // namespace aapx
