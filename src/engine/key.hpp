// Content-addressed key derivation for the DesignStore.
//
// Every cacheable artifact of the flow is identified by a 64-bit FNV-1a
// digest of the *inputs that determine it*, via util/hash.hpp:
//
//   netlist        <- tag, cell-library fingerprint, ComponentSpec fields
//   aged library   <- tag, fingerprint, AgingParams key, lifetime years
//   aged-STA delay <- tag, netlist key, model key or "fresh", stress mode,
//                     years, StaOptions fields
//
// Keys are pure functions of content — never of addresses — so two
// AgingModel objects with equal parameters share cache entries, and keys are
// stable across runs (they could be persisted or shipped to a remote shard).
#pragma once

#include <cstdint>

#include "aging/aging_model.hpp"
#include "aging/stress.hpp"
#include "sta/sta.hpp"
#include "synth/components.hpp"

namespace aapx {

class CellLibrary;

namespace engine {

/// Digest of every ComponentSpec field (kind, width, truncation, adder and
/// multiplier architecture, approximation technique).
std::uint64_t key_of(const ComponentSpec& spec);

/// Digest of the composite aging-parameter record: aging_params_key
/// (aging/aging_model.hpp), which lives beside the model so an AgingModel can
/// hold its own key. Models with equal parameters key identically.
inline std::uint64_t key_of(const AgingParams& params) {
  return aging_params_key(params);
}
/// The model's stored key: no hashing per query.
inline std::uint64_t key_of(const AgingModel& model) { return model.key(); }

std::uint64_t key_of(const StaOptions& options);

/// Digest of (mode, years). Fresh scenarios (years == 0) of any mode key
/// identically — aging-free timing does not depend on the stress mode.
std::uint64_t key_of(const AgingScenario& scenario);

/// Content fingerprint of a cell library: every cell's name, function,
/// drive, electrical constants, leakage vector and NLDM tables, plus the DFF
/// boundary spec. Expensive (walks every table); DesignStore memoizes it per
/// library object.
std::uint64_t fingerprint(const CellLibrary& lib);

}  // namespace engine
}  // namespace aapx
