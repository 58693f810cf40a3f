// Arithmetic backends for RTL simulation.
//
// The RTL codec models compute through one of these:
//  * ExactBackend        — bit-accurate two's complement arithmetic with the
//    paper's LSB truncation applied to operands (deterministic
//    approximation). This is the paper's "RTL simulation": seconds per
//    image, quality loss entirely from the *approximation*. It batches:
//    one transform() call runs a whole 8-point pass, updating all eight
//    accumulators per input, skipping inputs that truncate or wrap to 0
//    and wrapping each output to the width once, with constant masks.
//  * TimedNetlistBackend — every operation is evaluated by the event-driven
//    gate-level simulator on the synthesized component netlist with aged
//    delays, and the *sampled-at-clock* (possibly wrong) result is returned.
//    This is the paper's ModelSim gate-level flow and exhibits the
//    nondeterministic aging-induced timing errors of Figs. 1-2.
//  * RecordingBackend    — delegates to another backend while recording the
//    multiplier operand stream, used to extract application stimuli for
//    actual-case aging characterization (paper Fig. 3c).
//
// Every backend but ExactBackend keeps the default transform(), which
// issues the per-operation multiply/add stream in a fixed order: the timed
// backends' simulator state after an operation depends on the operands of
// the one before it.
//
// Composing per-component timed simulations at register boundaries is exact
// for the paper's microarchitecture because every block is separated by
// registers (see DESIGN.md Sec. 2).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "engine/cancel.hpp"
#include "gatesim/timedsim.hpp"
#include "netlist/netlist.hpp"

namespace aapx {

/// Two's complement wrap of `v` to `bits` bits, returned sign-extended.
std::int64_t wrap_signed(std::int64_t v, int bits);

/// Points of one transform pass (the codec's 8-point DCT/IDCT rows).
inline constexpr std::size_t kTransformPoints = 8;
using TransformVector = std::array<std::int64_t, kTransformPoints>;
/// Q(frac) coefficients, m[output][input].
using TransformMatrix = std::array<TransformVector, kTransformPoints>;

class ArithBackend {
 public:
  virtual ~ArithBackend() = default;

  /// width x width -> 2*width two's complement product.
  virtual std::int64_t multiply(std::int64_t a, std::int64_t b) = 0;

  /// width + width -> width two's complement sum (wrapping).
  virtual std::int64_t add(std::int64_t a, std::int64_t b) = 0;

  virtual int width() const = 0;

  /// One pass of the MAC datapath:
  ///   y[o] = sum_i round(multiply(m[o][i], x[i]) >> frac_bits),
  /// accumulated through add() from 0 in i order, outputs in o order. The
  /// default issues exactly that multiply/add stream; an override must
  /// return the same values. Throws std::invalid_argument unless
  /// 0 < frac_bits < 63.
  virtual TransformVector transform(const TransformMatrix& m,
                                    const TransformVector& x, int frac_bits);
};

/// Deterministic approximation: truncation of operand LSBs, exact otherwise.
class ExactBackend final : public ArithBackend {
 public:
  ExactBackend(int width, int mult_truncated_bits, int add_truncated_bits);

  std::int64_t multiply(std::int64_t a, std::int64_t b) override;
  std::int64_t add(std::int64_t a, std::int64_t b) override;
  int width() const override { return width_; }

  /// The default's values, computed directly: operands that truncate to 0
  /// are skipped, the eight outputs accumulate together, and each output
  /// wraps to the width once.
  TransformVector transform(const TransformMatrix& m, const TransformVector& x,
                            int frac_bits) override;

 private:
  /// Two's complement wrap to the width with constant masks, sign-extended.
  std::int64_t wrap(std::uint64_t v) const {
    return static_cast<std::int64_t>((v & low_mask_) ^ sign_bit_) -
           static_cast<std::int64_t>(sign_bit_);
  }
  /// Wraps an operand to the width, then clears its truncated LSBs (toward
  /// minus infinity, as truncate_lsbs does).
  std::int64_t truncate(std::int64_t v) const {
    return static_cast<std::int64_t>(
        static_cast<std::uint64_t>(wrap(static_cast<std::uint64_t>(v))) &
        mult_mask_);
  }

  int width_;
  std::uint64_t low_mask_ = 0;   ///< the width's low bits
  std::uint64_t sign_bit_ = 0;   ///< bit width - 1
  std::uint64_t mult_mask_ = 0;  ///< clears the multiplier's truncated LSBs
  std::uint64_t add_mask_ = 0;   ///< clears the adder's truncated LSBs
};

/// Range of output-bus bits a downstream consumer actually reads. A fixed-
/// point datapath that wraps the product to `width` bits after a right shift
/// only consumes product bits [frac, frac + width); constraining and
/// checking just those bits models the real register boundary. The window
/// must lie inside the product bus: 0 <= lo < bus width, and count is -1
/// (through the top bit) or in (0, bus width - lo].
struct ObservedWindow {
  int lo = 0;
  int count = -1;  ///< -1 = the whole bus
};

/// Gate-accurate timed evaluation with timing-error capture.
class TimedNetlistBackend final : public ArithBackend {
 public:
  /// `mult` must expose buses a, b -> y; `adder` buses a, b -> y; both
  /// must outlive the backend.
  /// `t_clock_ps` is the sampling clock; delays carry the aging. Every
  /// multiply and add first checks `cancel` (borrowed; nullptr = never
  /// cancelled) and throws CancelledError once it has tripped. Throws
  /// std::invalid_argument for a bad width, clock or `mult_window`.
  TimedNetlistBackend(const Netlist& mult, Sta::GateDelays mult_delays,
                      const Netlist& adder, Sta::GateDelays adder_delays,
                      int width, double t_clock_ps,
                      DelayModel model = DelayModel::transport,
                      ObservedWindow mult_window = {},
                      const CancelToken* cancel = nullptr);

  std::int64_t multiply(std::int64_t a, std::int64_t b) override;
  std::int64_t add(std::int64_t a, std::int64_t b) override;
  int width() const override { return width_; }

  std::uint64_t mult_errors() const noexcept { return mult_errors_; }
  std::uint64_t add_errors() const noexcept { return add_errors_; }
  std::uint64_t mult_ops() const noexcept { return mult_ops_; }
  std::uint64_t add_ops() const noexcept { return add_ops_; }

  /// Worst observed output settling times across all operations — used to
  /// speed-bin the fresh design's clock before injecting aged delays.
  double max_mult_settle() const noexcept { return max_mult_settle_; }
  double max_add_settle() const noexcept { return max_add_settle_; }

  TimedSim& mult_sim() noexcept { return mult_sim_; }
  TimedSim& adder_sim() noexcept { return adder_sim_; }

 private:
  TimedSim mult_sim_;
  TimedSim adder_sim_;
  // Buses resolved once: PI indices to stage, output nets to sample.
  const std::vector<NetId> mult_a_;
  const std::vector<NetId> mult_b_;
  const std::vector<NetId>* mult_y_;
  const std::vector<NetId> add_a_;
  const std::vector<NetId> add_b_;
  const std::vector<NetId>* add_y_;
  int width_;
  double t_clock_;
  ObservedWindow mult_window_;
  const CancelToken* cancel_;
  std::uint64_t mult_errors_ = 0;
  std::uint64_t add_errors_ = 0;
  std::uint64_t mult_ops_ = 0;
  std::uint64_t add_ops_ = 0;
  double max_mult_settle_ = 0.0;
  double max_add_settle_ = 0.0;
};

/// Records the operand stream feeding the multiplier (and optionally adds).
class RecordingBackend final : public ArithBackend {
 public:
  explicit RecordingBackend(ArithBackend& inner);

  std::int64_t multiply(std::int64_t a, std::int64_t b) override;
  std::int64_t add(std::int64_t a, std::int64_t b) override;
  int width() const override { return inner_->width(); }

  const std::vector<std::pair<std::int64_t, std::int64_t>>& mult_ops() const {
    return mult_ops_;
  }
  const std::vector<std::pair<std::int64_t, std::int64_t>>& add_ops() const {
    return add_ops_;
  }

 private:
  ArithBackend* inner_;
  std::vector<std::pair<std::int64_t, std::int64_t>> mult_ops_;
  std::vector<std::pair<std::int64_t, std::int64_t>> add_ops_;
};

}  // namespace aapx
