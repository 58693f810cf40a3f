#include "aging/stress.hpp"

#include <sstream>
#include <stdexcept>

namespace aapx {

StressPair stress_from_duty(double duty_high) {
  if (duty_high < 0.0 || duty_high > 1.0) {
    throw std::invalid_argument("stress_from_duty: duty must be in [0, 1]");
  }
  return {duty_high, 1.0 - duty_high};
}

std::string to_string(StressMode mode) {
  switch (mode) {
    case StressMode::worst: return "worst";
    case StressMode::balanced: return "balanced";
    case StressMode::measured: return "measured";
  }
  return "unknown";
}

StressProfile::StressProfile(StressMode mode, std::size_t gate_count,
                             StressPair uniform,
                             std::vector<StressPair> per_gate)
    : mode_(mode),
      gate_count_(gate_count),
      uniform_(uniform),
      per_gate_(std::move(per_gate)) {}

StressProfile StressProfile::uniform(StressMode mode, std::size_t gate_count) {
  if (mode == StressMode::measured) {
    throw std::invalid_argument(
        "StressProfile::uniform: measured profiles need duty cycles");
  }
  const StressPair pair = mode == StressMode::worst ? kWorstCaseStress
                                                    : kBalancedStress;
  return StressProfile(mode, gate_count, pair, {});
}

StressProfile StressProfile::measured(const std::vector<double>& duty_high) {
  std::vector<StressPair> per_gate;
  per_gate.reserve(duty_high.size());
  for (const double d : duty_high) per_gate.push_back(stress_from_duty(d));
  const std::size_t n = per_gate.size();
  return StressProfile(StressMode::measured, n, {}, std::move(per_gate));
}

const StressPair& StressProfile::gate(std::size_t index) const {
  if (index >= gate_count_) {
    throw std::out_of_range("StressProfile::gate");
  }
  return mode_ == StressMode::measured ? per_gate_[index] : uniform_;
}

double StressProfile::gate_activity(std::size_t index) const {
  if (index >= gate_count_) {
    throw std::out_of_range("StressProfile::gate_activity");
  }
  switch (mode_) {
    case StressMode::worst:
      return 1.0;
    case StressMode::balanced:
      return 0.5;
    case StressMode::measured:
      // Toggle estimate for independently sampled cycles at duty p.
      return 2.0 * per_gate_[index].pmos * per_gate_[index].nmos;
  }
  return 0.0;
}

std::string AgingScenario::label() const {
  if (is_fresh()) return "noAging";
  std::ostringstream os;
  os << years << "Y(" << to_string(mode) << ")";
  return os.str();
}

}  // namespace aapx
