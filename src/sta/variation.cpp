#include "sta/variation.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "engine/context.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace aapx {

double VariationResult::mean() const {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (const double s : samples) sum += s;
  return sum / static_cast<double>(samples.size());
}

double VariationResult::quantile(double q) const {
  if (samples.empty()) throw std::logic_error("VariationResult: empty");
  if (q < 0.0 || q > 1.0) throw std::invalid_argument("quantile: q in [0,1]");
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(samples.size() - 1) + 0.5);
  return samples[std::min(idx, samples.size() - 1)];
}

double VariationResult::guardband(double nominal, double q) const {
  return std::max(0.0, quantile(q) - nominal);
}

MonteCarloSta::MonteCarloSta(const Netlist& nl, VariationParams params,
                             StaOptions sta_options, const Context* ctx)
    : nl_(&nl), params_(params), sta_options_(sta_options), ctx_(ctx) {
  if (params_.local_sigma < 0.0 || params_.global_sigma < 0.0) {
    throw std::invalid_argument("MonteCarloSta: negative sigma");
  }
}

VariationResult MonteCarloSta::run_fresh(int samples) const {
  const Sta sta(*nl_, sta_options_, ctx_);
  return run(sta.gate_delays(nullptr, nullptr), samples);
}

VariationResult MonteCarloSta::run_aged(const DegradationAwareLibrary& aged,
                                        const StressProfile& stress,
                                        int samples) const {
  const Sta sta(*nl_, sta_options_, ctx_);
  return run(sta.gate_delays(&aged, &stress), samples);
}

VariationResult MonteCarloSta::run(const Sta::GateDelays& base,
                                   int samples) const {
  if (samples <= 0) throw std::invalid_argument("MonteCarloSta: samples > 0");
  Rng rng(params_.seed);
  VariationResult result;
  const std::size_t n = static_cast<std::size_t>(samples);
  const std::size_t gates = base.rise.size();
  result.samples.resize(n);
  // Mean-one lognormal: exp(sigma*z - sigma^2/2).
  const auto lognormal = [&](double sigma) {
    return std::exp(sigma * rng.next_normal() - 0.5 * sigma * sigma);
  };
  // Factors are drawn serially in blocks — the RNG stream is consumed in
  // exactly the sequential order — then the longest-path analyses run in
  // parallel into index-owned slots, so the distribution is bit-identical
  // to a serial run at any thread count.
  constexpr std::size_t kBlock = 64;
  const int threads = ctx_ != nullptr ? ctx_->num_threads() : 0;
  obs::Tracer* tracer = ctx_ != nullptr ? &ctx_->tracer() : nullptr;
  std::vector<double> factors;
  for (std::size_t first = 0; first < n; first += kBlock) {
    const std::size_t count = std::min(kBlock, n - first);
    factors.assign(count * gates, 1.0);
    for (std::size_t s = 0; s < count; ++s) {
      const double global = lognormal(params_.global_sigma);
      for (std::size_t g = 0; g < gates; ++g) {
        factors[s * gates + g] = global * lognormal(params_.local_sigma);
      }
    }
    parallel_for(count, [&](std::size_t s) {
      Sta::GateDelays die = base;
      for (std::size_t g = 0; g < gates; ++g) {
        die.rise[g] = base.rise[g] * factors[s * gates + g];
        die.fall[g] = base.fall[g] * factors[s * gates + g];
      }
      const std::vector<double> arrival = worst_arrivals(*nl_, die);
      double worst = 0.0;
      for (const NetId po : nl_->outputs()) {
        worst = std::max(worst, arrival[po]);
      }
      result.samples[first + s] = worst;
    }, threads, tracer);
  }
  std::sort(result.samples.begin(), result.samples.end());
  return result;
}

}  // namespace aapx
