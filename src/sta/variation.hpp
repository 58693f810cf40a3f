// Monte-Carlo statistical timing under process variation.
//
// Real guardbands cover process variation as well as aging (paper Sec. I
// cites both as reliability costs). This module samples per-gate delay
// multipliers from a lognormal distribution (local/random variation) plus a
// global corner factor (die-to-die), runs the shared STA delay model and
// longest-path pass (worst_arrivals) per sample, and reports the resulting
// max-delay distribution. Combined with the degradation library it answers:
// how much of the combined variation+aging guardband can precision reduction
// absorb?
#pragma once

#include <vector>

#include "cell/degradation.hpp"
#include "netlist/netlist.hpp"
#include "sta/sta.hpp"

namespace aapx {

struct VariationParams {
  double local_sigma = 0.04;   ///< sigma of per-gate lognormal delay factor
  double global_sigma = 0.03;  ///< sigma of the per-die global factor
  std::uint64_t seed = 1;
};

struct VariationResult {
  std::vector<double> samples;  ///< max delay per Monte-Carlo die, sorted

  double mean() const;
  double quantile(double q) const;  ///< q in [0, 1]
  /// Guardband above `nominal` needed to cover quantile q of dies.
  double guardband(double nominal, double q) const;
};

class MonteCarloSta {
 public:
  /// `ctx` sets the worker count the dies fan out to and the sinks of the
  /// inner Sta; nullptr = all hardware threads and the process registry, as
  /// for Sta. Results never depend on `ctx`.
  MonteCarloSta(const Netlist& nl, VariationParams params = {},
                StaOptions sta_options = {}, const Context* ctx = nullptr);

  /// Fresh variation-only analysis over `samples` dies.
  VariationResult run_fresh(int samples) const;

  /// Variation on top of aged delays (stress applied uniformly per mode).
  VariationResult run_aged(const DegradationAwareLibrary& aged,
                           const StressProfile& stress, int samples) const;

 private:
  VariationResult run(const Sta::GateDelays& base, int samples) const;

  const Netlist* nl_;
  VariationParams params_;
  StaOptions sta_options_;
  const Context* ctx_;
};

}  // namespace aapx
