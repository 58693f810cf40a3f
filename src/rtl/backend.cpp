#include "rtl/backend.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "approx/error_bounds.hpp"

namespace aapx {

std::int64_t wrap_signed(std::int64_t v, int bits) {
  if (bits <= 0 || bits > 64) throw std::invalid_argument("wrap_signed: bad bits");
  if (bits == 64) return v;
  const std::uint64_t mask = (std::uint64_t{1} << bits) - 1;
  std::uint64_t u = static_cast<std::uint64_t>(v) & mask;
  if (u & (std::uint64_t{1} << (bits - 1))) u |= ~mask;  // sign-extend
  return static_cast<std::int64_t>(u);
}

ExactBackend::ExactBackend(int width, int mult_truncated_bits,
                           int add_truncated_bits)
    : width_(width), mult_trunc_(mult_truncated_bits), add_trunc_(add_truncated_bits) {
  if (width <= 1 || width > 32) {
    throw std::invalid_argument("ExactBackend: width must be in (1, 32]");
  }
  if (mult_trunc_ < 0 || mult_trunc_ >= width || add_trunc_ < 0 ||
      add_trunc_ >= width) {
    throw std::invalid_argument("ExactBackend: truncation out of range");
  }
}

std::int64_t ExactBackend::multiply(std::int64_t a, std::int64_t b) {
  const std::int64_t ta = truncate_lsbs(wrap_signed(a, width_), mult_trunc_);
  const std::int64_t tb = truncate_lsbs(wrap_signed(b, width_), mult_trunc_);
  return wrap_signed(ta * tb, 2 * width_);
}

std::int64_t ExactBackend::add(std::int64_t a, std::int64_t b) {
  const std::int64_t ta = truncate_lsbs(wrap_signed(a, width_), add_trunc_);
  const std::int64_t tb = truncate_lsbs(wrap_signed(b, width_), add_trunc_);
  return wrap_signed(ta + tb, width_);
}

TimedNetlistBackend::TimedNetlistBackend(const Netlist& mult,
                                         Sta::GateDelays mult_delays,
                                         const Netlist& adder,
                                         Sta::GateDelays adder_delays, int width,
                                         double t_clock_ps, DelayModel model,
                                         ObservedWindow mult_window,
                                         const CancelToken* cancel)
    : mult_(&mult),
      adder_(&adder),
      mult_sim_(mult, std::move(mult_delays), model),
      adder_sim_(adder, std::move(adder_delays), model),
      width_(width),
      t_clock_(t_clock_ps),
      mult_window_(mult_window),
      cancel_(cancel) {
  if (width <= 1 || width > 32) {
    throw std::invalid_argument("TimedNetlistBackend: width must be in (1, 32]");
  }
  if (t_clock_ps <= 0.0) {
    throw std::invalid_argument("TimedNetlistBackend: bad clock period");
  }
  // An empty or out-of-bus window would check no bit, silently disabling
  // error detection and the settle-time record.
  const int bus = static_cast<int>(mult.output_bus("y").size());
  const int lo = mult_window.lo;
  const int count = mult_window.count;
  if (lo < 0 || lo >= bus ||
      (count != -1 && (count <= 0 || count > bus - lo))) {
    throw std::invalid_argument(
        "TimedNetlistBackend: observed window [" + std::to_string(lo) + ", +" +
        std::to_string(count) + ") outside the " + std::to_string(bus) +
        "-bit product bus");
  }
}

std::int64_t TimedNetlistBackend::multiply(std::int64_t a, std::int64_t b) {
  // One gate-level simulation is the cooperative cancellation grain of the
  // image benches; an untripped check is two relaxed loads, invisible next
  // to an event-driven multiply.
  if (cancel_ != nullptr) cancel_->check("gatesim.multiply");
  const std::uint64_t mask = width_ == 64 ? ~std::uint64_t{0}
                                          : (std::uint64_t{1} << width_) - 1;
  mult_sim_.stage_bus("a", static_cast<std::uint64_t>(a) & mask);
  mult_sim_.stage_bus("b", static_cast<std::uint64_t>(b) & mask);
  mult_sim_.step_staged(t_clock_);
  ++mult_ops_;
  // Only the observed bit window gates the error count and the settle time:
  // unconsumed product bits never reach a register in the real datapath.
  const auto& y = mult_->output_bus("y");
  const std::size_t lo = static_cast<std::size_t>(mult_window_.lo);
  const std::size_t hi =
      mult_window_.count < 0
          ? y.size()
          : lo + static_cast<std::size_t>(mult_window_.count);
  bool error = false;
  for (std::size_t i = lo; i < hi; ++i) {
    max_mult_settle_ = std::max(max_mult_settle_, mult_sim_.settle_time(y[i]));
    if (mult_sim_.sampled(y[i]) != mult_sim_.settled(y[i])) error = true;
  }
  if (error) ++mult_errors_;
  return wrap_signed(static_cast<std::int64_t>(mult_sim_.sampled_bus("y")),
                     2 * width_);
}

std::int64_t TimedNetlistBackend::add(std::int64_t a, std::int64_t b) {
  if (cancel_ != nullptr) cancel_->check("gatesim.add");
  const std::uint64_t mask = (std::uint64_t{1} << width_) - 1;
  adder_sim_.stage_bus("a", static_cast<std::uint64_t>(a) & mask);
  adder_sim_.stage_bus("b", static_cast<std::uint64_t>(b) & mask);
  const bool error = adder_sim_.step_staged(t_clock_);
  ++add_ops_;
  if (error) ++add_errors_;
  max_add_settle_ = std::max(max_add_settle_, adder_sim_.last_output_settle_time());
  // The adder output bus has width+1 bits; wrap to the datapath width.
  return wrap_signed(static_cast<std::int64_t>(adder_sim_.sampled_bus("y")), width_);
}

RecordingBackend::RecordingBackend(ArithBackend& inner) : inner_(&inner) {}

std::int64_t RecordingBackend::multiply(std::int64_t a, std::int64_t b) {
  mult_ops_.emplace_back(a, b);
  return inner_->multiply(a, b);
}

std::int64_t RecordingBackend::add(std::int64_t a, std::int64_t b) {
  add_ops_.emplace_back(a, b);
  return inner_->add(a, b);
}

}  // namespace aapx
