// Event-driven timed gate-level simulation.
//
// This is the reproduction of the paper's ModelSim + SDF flow: each gate
// carries its (optionally aged) rise/fall delay; input vectors are applied at
// clock edges; outputs are *sampled* at the clock period and compared with
// the *settled* values. A mismatch is exactly an aging-induced timing error
// (paper Sec. II). The simulator also accumulates per-net toggle counts and
// duty cycles, which feed dynamic power analysis and the measured
// ("actual-case") stress profiles of paper Fig. 3c / Fig. 5.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"
#include "sta/sta.hpp"

namespace aapx {

/// Switching statistics accumulated across simulated cycles.
struct Activity {
  std::vector<std::uint64_t> toggles;    ///< per net, includes glitches
  std::vector<std::uint64_t> high_cycles;///< per net, settled value == 1
  std::uint64_t cycles = 0;

  /// Settled duty cycle (fraction of cycles spent at logic 1).
  double duty_high(NetId net) const;
  /// Average toggles per cycle.
  double toggle_rate(NetId net) const;
  /// Per-gate output duty cycles, ready for StressProfile::measured.
  std::vector<double> gate_output_duty(const Netlist& nl) const;
};

/// Gate delay semantics of the simulator.
///  * inertial  — pulses shorter than the gate delay are swallowed
///                (ModelSim's default for gate primitives); much faster on
///                glitchy structures such as array-multiplier rows.
///  * transport — every scheduled transition is delivered; models wire-like
///                propagation and preserves glitch trains.
enum class DelayModel { inertial, transport };

class TimedSim {
 public:
  /// `delays` come from Sta::gate_delays (fresh or aged). Throws
  /// std::invalid_argument on a size mismatch or a negative or non-finite
  /// rise/fall delay.
  TimedSim(const Netlist& nl, Sta::GateDelays delays,
           DelayModel model = DelayModel::inertial);
  /// Flushes per-instance statistics (events, steps, peak queue depth) into
  /// the process metrics registry — one registry touch per sim lifetime,
  /// never per event.
  ~TimedSim();

  /// Initializes the settled state from the given PI assignment
  /// (held "for a long time"; no events are generated).
  void reset(const std::vector<char>& pi_values);
  /// Convenience reset with all inputs low.
  void reset();
  /// reset() from the staged vector (see stage_bus): a settled start at the
  /// inputs a serial run would hold before its next step.
  void reset_staged() { reset(staged_pi_); }

  /// Applies a new input vector at t=0, simulates to quiescence, and samples
  /// every net at `t_clock_ps`. Returns true if any primary output sampled a
  /// value different from its settled value (a timing error).
  bool step(const std::vector<char>& pi_values, double t_clock_ps);

  /// Sets one bus of the *next* input vector (staging area), LSB-first.
  void stage_bus(const std::string& bus, std::uint64_t value);
  /// stage_bus with the net list already resolved (callers on a hot loop
  /// look the bus up once via Netlist::input_bus instead of per vector).
  void stage_word(const std::vector<NetId>& nets, std::uint64_t value);
  /// Pre-resolves a bus net list into per-bit PI indices for stage_resolved
  /// (kInvalidNet for constant or rewritten bits, which never stage).
  std::vector<NetId> resolve_stage(const std::vector<NetId>& nets) const;
  /// stage_word with the PI lookups hoisted out of the per-vector loop.
  void stage_resolved(const std::vector<NetId>& pi_indices,
                      std::uint64_t value);
  /// Runs step() with the staged vector.
  bool step_staged(double t_clock_ps);

  /// Sampled (at t_clock) and settled values of an output bus.
  std::uint64_t sampled_bus(const std::string& bus) const;
  std::uint64_t settled_bus(const std::string& bus) const;
  /// Same with pre-resolved nets (see stage_word).
  std::uint64_t sampled_word(const std::vector<NetId>& nets) const;
  std::uint64_t settled_word(const std::vector<NetId>& nets) const;

  bool sampled(NetId net) const;
  bool settled(NetId net) const;

  const Activity& activity() const;
  void clear_activity();

  /// Total events processed since construction (simulation cost metric).
  std::uint64_t events_processed() const noexcept { return events_processed_; }

  /// Peak event-queue population since construction.
  std::size_t max_queue_depth() const noexcept { return max_queue_depth_; }

  /// Time of the last applied value change in the most recent step — the
  /// settling time of that input transition (any net, including internal
  /// glitches that never reach an output).
  double last_settle_time() const noexcept { return last_settle_time_; }

  /// Time of the last primary-output value change in the most recent step —
  /// what a downstream register actually needs to wait for.
  double last_output_settle_time() const noexcept {
    return last_output_settle_time_;
  }

  /// Time of the last value change of one specific net in the most recent
  /// step (0 if it did not change). Lets callers constrain only the output
  /// bits a downstream consumer actually reads.
  double settle_time(NetId net) const;

 private:
  /// Queue entry, packed to 16 bytes. No explicit sequence number: the
  /// calendar queue below keeps equal-time events in insertion order, which
  /// IS the FIFO tie-break the old binary heap encoded in a per-event seq
  /// field. gen_val carries the net's generation (NetHot::generation, which
  /// advances in steps of 2 so bit 0 is free) OR'd with the scheduled value
  /// in bit 0; stale events are recognized by comparing the masked field.
  struct Event {
    double time;
    NetId net;
    std::uint32_t gen_val;
  };

  /// One reader gate of a net, in the reader CSR: the net the gate drives
  /// and the bit of every pin the net feeds (OR'd when one net drives
  /// several pins of the gate, so a commit re-decides the gate once).
  struct Reader {
    NetId fanout;
    std::uint32_t pins;
  };

  void push_event(Event ev);
  void clear_queue();
  /// Orders the bucket the drain just opened by (time, push order).
  void open_bucket(std::vector<Event>& b);
  /// Commits value `v` of `net` at time `t`: activity and settle-time
  /// bookkeeping, then every reader gate re-decides its output.
  template <DelayModel kModel>
  void commit(NetId net, char v, double t);
  template <DelayModel kModel>
  bool step_impl(double t_clock_ps);
  std::uint64_t word_sampled(const std::vector<NetId>& nets) const;
  std::uint64_t word_settled(const std::vector<NetId>& nets) const;
  /// Folds all outstanding cycles into high_cycles (see high_sync_).
  void sync_high_cycles() const;

  const Netlist* nl_;
  DelayModel model_;
  /// Reader gates of each net as a flat CSR list, in first-pin order:
  /// reader_[reader_offset_[net] .. reader_offset_[net+1]).
  std::vector<std::uint32_t> reader_offset_;
  std::vector<Reader> reader_;
  /// Monotone calendar queue. Pop-order contract: events pop in exactly
  /// (time, push sequence) order, the order of a binary heap with a FIFO
  /// tie-break. Buckets split [0, horizon] evenly; the horizon is the
  /// topological longest path over max(rise, fall), a hard bound on every
  /// event time in a step (times are path-delay sums from t = 0; STA computes
  /// the same bound), so the clamp into the last bucket only absorbs float
  /// rounding. A push into a later bucket appends; the drain orders each
  /// bucket once when it opens it (open_bucket: a stable counting pass into
  /// one sub-bin per event, then an insertion sort that only reorders within
  /// a sub-bin). The bucket being drained stays sorted: a push into it is an
  /// upper_bound insert at or after drain_pos_, since its time is >= the
  /// current pop time. Times map to buckets monotonically and no push goes
  /// below cur_bucket_, so once a bucket completes nothing lands in it again.
  /// The occupied_ bitmask skips empty buckets 64 at a time.
  std::vector<std::vector<Event>> buckets_;
  std::vector<std::uint64_t> occupied_;
  double inv_bucket_width_ = 0.0;
  std::uint32_t n_buckets_ = 1;
  std::uint32_t cur_bucket_ = 0;
  std::size_t drain_pos_ = 0;   ///< next index to pop in cur_bucket_
  std::size_t queue_size_ = 0;  ///< live (unpopped) events across buckets
  /// open_bucket scratch, reused across steps and only ever grown: each
  /// event's sub-bin, the sub-bin starts, and a copy of the bucket that the
  /// counting pass scatters back (never swapped in, so no bucket inherits
  /// the largest capacity).
  std::vector<std::uint32_t> sub_bin_;
  std::vector<std::uint32_t> sub_start_;
  std::vector<Event> unsorted_;
  /// Hot per-net simulation state, 32 bytes and 32-aligned so one cache line
  /// serves the stale check and the commit of an event, and the whole
  /// re-decision of the gate driving the net when a fanin commits: the
  /// gate's truth table, delays and current fanin values live here.
  struct alignas(32) NetHot {
    double rise;  ///< ps, output-rise delay of the driving gate (0 for PIs)
    double fall;
    /// Advanced by 2 whenever the net's scheduled transition is superseded
    /// (bit 0 is reserved for the value bit inside Event::gen_val);
    /// implements inertial-delay pulse cancellation (ModelSim semantics).
    std::uint32_t generation;
    /// Newest generation already applied; transport mode uses it to drop
    /// events arriving out of order (rise/fall delay inversion).
    std::uint32_t applied_generation;
    /// Driving gate's 8-entry truth table: bit m = fn_eval(fn, m).
    std::uint8_t tt;
    /// Driving gate's current fanin values, bit p = value of pin p's net
    /// (unused pins read 0). Invariant: every commit flips the bits of the
    /// pins the committed net feeds, and reset() rebuilds it from the gates.
    std::uint8_t in_mask;
    char value;    ///< current waveform value
    char pending;  ///< projected final value
    char is_output;
  };
  static_assert(sizeof(NetHot) == 32);
  std::vector<NetHot> net_;
  /// Snapshot at t_clock. Only materialized when an event actually crosses
  /// the clock edge (a timing violation); otherwise sampled == settled and
  /// sampled_is_settled_ short-circuits the copy and the PO comparison.
  std::vector<char> sampled_;
  bool sampled_is_settled_ = true;
  std::vector<char> staged_pi_;
  /// Scratch: PIs whose value changes this step, in input order. Applied
  /// inline at the head of step_impl instead of through the event queue.
  std::vector<NetId> pi_changed_;
  /// Duty accounting is lazy: high_cycles is brought up to date per net on
  /// each committed toggle (and fully on read) instead of sweeping every net
  /// every step. high_sync_[n] = cycle count already folded into
  /// high_cycles[n]; mutable so the const accessor can settle the books.
  mutable Activity activity_;
  mutable std::vector<std::uint64_t> high_sync_;
  std::uint64_t events_processed_ = 0;
  std::size_t max_queue_depth_ = 0;  ///< plain member; flushed at destruction
  double last_settle_time_ = 0.0;
  double last_output_settle_time_ = 0.0;
  /// Last change of each net: time and the step it happened in (one array so
  /// a commit touches a single cache line for both fields).
  struct Change {
    double time;
    std::uint64_t step;
  };
  std::vector<Change> change_;
  std::uint64_t step_id_ = 0;
};

}  // namespace aapx
