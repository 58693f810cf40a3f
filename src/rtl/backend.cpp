#include "rtl/backend.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace aapx {
namespace {

void check_frac_bits(int frac_bits) {
  if (frac_bits <= 0 || frac_bits >= 63) {
    throw std::invalid_argument("ArithBackend::transform: bad frac_bits");
  }
}

}  // namespace

std::int64_t wrap_signed(std::int64_t v, int bits) {
  if (bits <= 0 || bits > 64) throw std::invalid_argument("wrap_signed: bad bits");
  if (bits == 64) return v;
  const std::uint64_t mask = (std::uint64_t{1} << bits) - 1;
  std::uint64_t u = static_cast<std::uint64_t>(v) & mask;
  if (u & (std::uint64_t{1} << (bits - 1))) u |= ~mask;  // sign-extend
  return static_cast<std::int64_t>(u);
}

TransformVector ArithBackend::transform(const TransformMatrix& m,
                                        const TransformVector& x,
                                        int frac_bits) {
  check_frac_bits(frac_bits);
  // Product in Q(2*frac) -> Q(frac) with round-to-nearest.
  const std::int64_t half = std::int64_t{1} << (frac_bits - 1);
  TransformVector y{};
  for (std::size_t o = 0; o < kTransformPoints; ++o) {
    std::int64_t acc = 0;
    for (std::size_t i = 0; i < kTransformPoints; ++i) {
      acc = add(acc, (multiply(m[o][i], x[i]) + half) >> frac_bits);
    }
    y[o] = acc;
  }
  return y;
}

ExactBackend::ExactBackend(int width, int mult_truncated_bits,
                           int add_truncated_bits)
    : width_(width) {
  if (width <= 1 || width > 32) {
    throw std::invalid_argument("ExactBackend: width must be in (1, 32]");
  }
  if (mult_truncated_bits < 0 || mult_truncated_bits >= width ||
      add_truncated_bits < 0 || add_truncated_bits >= width) {
    throw std::invalid_argument("ExactBackend: truncation out of range");
  }
  low_mask_ = (std::uint64_t{1} << width) - 1;
  sign_bit_ = std::uint64_t{1} << (width - 1);
  mult_mask_ = ~((std::uint64_t{1} << mult_truncated_bits) - 1);
  add_mask_ = ~((std::uint64_t{1} << add_truncated_bits) - 1);
}

std::int64_t ExactBackend::multiply(std::int64_t a, std::int64_t b) {
  // Two width-bit operands have a product of magnitude at most
  // 2^(2*width - 2): it always fits the 2*width-bit product, unwrapped.
  return truncate(a) * truncate(b);
}

std::int64_t ExactBackend::add(std::int64_t a, std::int64_t b) {
  // A sum wrapped to the width depends only on the operands' low `width`
  // bits, so the operands need no wrap of their own.
  return wrap((static_cast<std::uint64_t>(a) & add_mask_) +
              (static_cast<std::uint64_t>(b) & add_mask_));
}

TransformVector ExactBackend::transform(const TransformMatrix& m,
                                        const TransformVector& x,
                                        int frac_bits) {
  check_frac_bits(frac_bits);
  const std::int64_t half = std::int64_t{1} << (frac_bits - 1);
  // The per-op stream's accumulator is acc' = wrap(acc + (term & add_mask))
  // (acc's own truncated bits are already clear, so its mask is a no-op).
  // wrap() depends only on its argument mod 2^width, so the eight sums run
  // unwrapped in uint64_t (mod 2^64) and wrap once at the end. A zero
  // operand contributes nothing: its product is 0 and (0 + half) >> frac
  // is 0 because half < 2^frac. About 44 % of quantized CIF levels are 0.
  std::array<std::uint64_t, kTransformPoints> acc{};
  for (std::size_t i = 0; i < kTransformPoints; ++i) {
    const std::int64_t xi = truncate(x[i]);
    if (xi == 0) continue;
    for (std::size_t o = 0; o < kTransformPoints; ++o) {
      const std::int64_t term = (truncate(m[o][i]) * xi + half) >> frac_bits;
      acc[o] += static_cast<std::uint64_t>(term) & add_mask_;
    }
  }
  TransformVector y{};
  for (std::size_t o = 0; o < kTransformPoints; ++o) y[o] = wrap(acc[o]);
  return y;
}

TimedNetlistBackend::TimedNetlistBackend(const Netlist& mult,
                                         Sta::GateDelays mult_delays,
                                         const Netlist& adder,
                                         Sta::GateDelays adder_delays, int width,
                                         double t_clock_ps, DelayModel model,
                                         ObservedWindow mult_window,
                                         const CancelToken* cancel)
    : mult_sim_(mult, std::move(mult_delays), model),
      adder_sim_(adder, std::move(adder_delays), model),
      mult_a_(mult_sim_.resolve_stage(mult.input_bus("a"))),
      mult_b_(mult_sim_.resolve_stage(mult.input_bus("b"))),
      mult_y_(&mult.output_bus("y")),
      add_a_(adder_sim_.resolve_stage(adder.input_bus("a"))),
      add_b_(adder_sim_.resolve_stage(adder.input_bus("b"))),
      add_y_(&adder.output_bus("y")),
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
  const int bus = static_cast<int>(mult_y_->size());
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
  const std::uint64_t mask = (std::uint64_t{1} << width_) - 1;
  mult_sim_.stage_resolved(mult_a_, static_cast<std::uint64_t>(a) & mask);
  mult_sim_.stage_resolved(mult_b_, static_cast<std::uint64_t>(b) & mask);
  mult_sim_.step_staged(t_clock_);
  ++mult_ops_;
  // Only the observed bit window gates the error count and the settle time:
  // unconsumed product bits never reach a register in the real datapath.
  const std::vector<NetId>& y = *mult_y_;
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
  return wrap_signed(static_cast<std::int64_t>(mult_sim_.sampled_word(y)),
                     2 * width_);
}

std::int64_t TimedNetlistBackend::add(std::int64_t a, std::int64_t b) {
  if (cancel_ != nullptr) cancel_->check("gatesim.add");
  const std::uint64_t mask = (std::uint64_t{1} << width_) - 1;
  adder_sim_.stage_resolved(add_a_, static_cast<std::uint64_t>(a) & mask);
  adder_sim_.stage_resolved(add_b_, static_cast<std::uint64_t>(b) & mask);
  const bool error = adder_sim_.step_staged(t_clock_);
  ++add_ops_;
  if (error) ++add_errors_;
  max_add_settle_ = std::max(max_add_settle_, adder_sim_.last_output_settle_time());
  // The adder output bus has width+1 bits; wrap to the datapath width.
  return wrap_signed(static_cast<std::int64_t>(adder_sim_.sampled_word(*add_y_)),
                     width_);
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
