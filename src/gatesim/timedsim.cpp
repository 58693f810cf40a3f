#include "gatesim/timedsim.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "gatesim/funcsim.hpp"
#include "obs/metrics.hpp"

namespace aapx {
namespace {

/// Stable insertion sort by time: equal times keep push order. Buckets are
/// small and mostly ordered, so this beats std::stable_sort's buffer.
template <class Event>
void sort_by_time(std::vector<Event>& b) {
  for (std::size_t i = 1; i < b.size(); ++i) {
    const Event ev = b[i];
    std::size_t j = i;
    for (; j > 0 && ev.time < b[j - 1].time; --j) b[j] = b[j - 1];
    b[j] = ev;
  }
}

}  // namespace

double Activity::duty_high(NetId net) const {
  if (cycles == 0) return 0.0;
  return static_cast<double>(high_cycles.at(net)) / static_cast<double>(cycles);
}

double Activity::toggle_rate(NetId net) const {
  if (cycles == 0) return 0.0;
  return static_cast<double>(toggles.at(net)) / static_cast<double>(cycles);
}

std::vector<double> Activity::gate_output_duty(const Netlist& nl) const {
  std::vector<double> duty;
  duty.reserve(nl.num_gates());
  for (std::size_t g = 0; g < nl.num_gates(); ++g) {
    duty.push_back(duty_high(nl.gate(static_cast<GateId>(g)).fanout));
  }
  return duty;
}

TimedSim::TimedSim(const Netlist& nl, Sta::GateDelays delays, DelayModel model)
    : nl_(&nl), delays_(std::move(delays)), model_(model) {
  if (delays_.rise.size() != nl.num_gates() ||
      delays_.fall.size() != nl.num_gates()) {
    throw std::invalid_argument("TimedSim: delay vector size mismatch");
  }
  for (std::size_t g = 0; g < nl.num_gates(); ++g) {
    for (const double d : {delays_.rise[g], delays_.fall[g]}) {
      if (!std::isfinite(d) || d < 0.0) {
        throw std::invalid_argument(
            "TimedSim: gate " + std::to_string(g) +
            " has a negative or non-finite delay");
      }
    }
  }
  if (nl.num_nets() < 2) {
    throw std::invalid_argument("TimedSim: netlist missing constant nets");
  }
  net_.assign(nl.num_nets(), NetHot{0, 0, 0, 0, 0});
  net_[nl.const1()].value = 1;
  net_[nl.const1()].pending = 1;
  sampled_.assign(nl.num_nets(), 0);
  sampled_[nl.const1()] = 1;
  staged_pi_.assign(nl.inputs().size(), 0);
  change_.assign(nl.num_nets(), Change{0.0, 0});
  for (const NetId po : nl.outputs()) net_[po].is_output = 1;
  activity_.toggles.assign(nl.num_nets(), 0);
  activity_.high_cycles.assign(nl.num_nets(), 0);
  high_sync_.assign(nl.num_nets(), 0);

  // Flatten gate functions, fanins and delays so the event loop never chases
  // Gate/Cell indirections, and the reader lists into one CSR array.
  gate_info_.reserve(nl.num_gates());
  for (std::size_t g = 0; g < nl.num_gates(); ++g) {
    const Gate& gate = nl.gate(static_cast<GateId>(g));
    GateInfo info;
    for (std::size_t p = 0; p < info.fanin.size(); ++p) {
      info.fanin[p] = gate.fanin[p] == kInvalidNet ? nl.const0() : gate.fanin[p];
    }
    info.fanout = gate.fanout;
    info.rise = delays_.rise[g];
    info.fall = delays_.fall[g];
    const LogicFn fn = nl.lib().cell(gate.cell).fn;
    info.tt = 0;
    for (unsigned m = 0; m < 8; ++m) {
      if (fn_eval(fn, m)) info.tt |= static_cast<std::uint8_t>(1u << m);
    }
    gate_info_.push_back(info);
  }
  reader_offset_.assign(nl.num_nets() + 1, 0);
  for (std::size_t n = 0; n < nl.num_nets(); ++n) {
    reader_offset_[n + 1] =
        reader_offset_[n] +
        static_cast<std::uint32_t>(nl.readers(static_cast<NetId>(n)).size());
  }
  reader_gate_.resize(reader_offset_.back());
  for (std::size_t n = 0; n < nl.num_nets(); ++n) {
    std::uint32_t at = reader_offset_[n];
    for (const NetReader& r : nl.readers(static_cast<NetId>(n))) {
      reader_gate_[at++] = r.gate;
    }
  }

  // Calendar-queue horizon: the topo longest-path delay is a hard upper
  // bound on any event time within a step (every event time is a sum of
  // gate delays along a path from a t=0 input transition).
  double horizon = 0.0;
  {
    std::vector<double> arrive(nl.num_nets(), 0.0);
    for (const GateId gid : nl.topo_order()) {
      const GateInfo& g = gate_info_[gid];
      double in = 0.0;
      for (const NetId f : g.fanin) in = std::max(in, arrive[f]);
      arrive[g.fanout] = in + std::max(g.rise, g.fall);
      horizon = std::max(horizon, arrive[g.fanout]);
    }
  }
  if (horizon <= 0.0) horizon = 1.0;
  // ~1 bucket per couple of gate delays on typical components; bounded so
  // tiny netlists don't pay a big sweep and huge ones don't blow memory.
  n_buckets_ = static_cast<std::uint32_t>(
      std::clamp<std::size_t>(nl.num_gates() * 2, 64, 4096));
  inv_bucket_width_ = static_cast<double>(n_buckets_) / (horizon * (1.0 + 1e-9));
  buckets_.resize(n_buckets_);
  occupied_.assign((n_buckets_ + 63) / 64, 0);
  reset();
}

TimedSim::~TimedSim() {
  static obs::Counter& events = obs::metrics().counter("timedsim.events");
  static obs::Counter& steps = obs::metrics().counter("timedsim.steps");
  static obs::Gauge& depth = obs::metrics().gauge("timedsim.max_queue_depth");
  events.add(events_processed_);
  steps.add(step_id_);
  depth.update_max(static_cast<double>(max_queue_depth_));
}

inline __attribute__((always_inline)) void TimedSim::push_event(Event ev) {
  std::uint32_t idx = static_cast<std::uint32_t>(ev.time * inv_bucket_width_);
  if (idx >= n_buckets_) idx = n_buckets_ - 1;  // float-rounding clamp only
  std::vector<Event>& b = buckets_[idx];
  // Later buckets take plain appends (push order) and are sorted once when
  // the drain opens them. The bucket being drained stays sorted: upper_bound
  // lands after equal times (FIFO among ties), and ev.time >= the current
  // pop time keeps the position >= drain_pos_.
  if (idx == cur_bucket_ && !b.empty() && ev.time < b.back().time) {
    b.insert(std::upper_bound(b.begin() + static_cast<std::ptrdiff_t>(drain_pos_),
                              b.end(), ev.time,
                              [](double t, const Event& e) { return t < e.time; }),
             ev);
  } else {
    b.push_back(ev);
  }
  occupied_[idx >> 6] |= std::uint64_t{1} << (idx & 63);
  if (++queue_size_ > max_queue_depth_) max_queue_depth_ = queue_size_;
}

void TimedSim::clear_queue() {
  for (std::size_t w = 0; w < occupied_.size(); ++w) {
    std::uint64_t bits = occupied_[w];
    while (bits) {
      buckets_[(w << 6) + static_cast<std::size_t>(std::countr_zero(bits))]
          .clear();
      bits &= bits - 1;
    }
    occupied_[w] = 0;
  }
  cur_bucket_ = 0;
  drain_pos_ = 0;
  queue_size_ = 0;
}

void TimedSim::reset() { reset(std::vector<char>(nl_->inputs().size(), 0)); }

void TimedSim::reset(const std::vector<char>& pi_values) {
  if (pi_values.size() != nl_->inputs().size()) {
    throw std::invalid_argument("TimedSim::reset: PI vector size mismatch");
  }
  // Values are about to change without events; settle the duty books first.
  sync_high_cycles();
  FuncSim settle(*nl_);
  for (std::size_t i = 0; i < pi_values.size(); ++i) {
    settle.set_input(nl_->inputs()[i], pi_values[i] != 0);
  }
  settle.eval();
  for (std::size_t n = 0; n < net_.size(); ++n) {
    net_[n].value = settle.values()[n];
    net_[n].pending = net_[n].value;
    sampled_[n] = net_[n].value;
  }
  sampled_is_settled_ = true;
  staged_pi_ = pi_values;
}

void TimedSim::stage_bus(const std::string& bus, std::uint64_t v) {
  stage_word(nl_->input_bus(bus), v);
}

void TimedSim::stage_word(const std::vector<NetId>& nets, std::uint64_t v) {
  for (std::size_t i = 0; i < nets.size(); ++i) {
    if (nl_->is_constant(nets[i])) continue;
    const bool bit = i < 64 && ((v >> i) & 1u) != 0;
    const NetId pi = nl_->pi_index(nets[i]);
    if (pi == kInvalidNet) continue;  // bus member rewritten off the PI list
    staged_pi_[pi] = bit ? 1 : 0;
  }
}

std::vector<NetId> TimedSim::resolve_stage(
    const std::vector<NetId>& nets) const {
  std::vector<NetId> pi_indices(nets.size(), kInvalidNet);
  for (std::size_t i = 0; i < nets.size(); ++i) {
    if (nl_->is_constant(nets[i])) continue;
    pi_indices[i] = nl_->pi_index(nets[i]);
  }
  return pi_indices;
}

void TimedSim::stage_resolved(const std::vector<NetId>& pi_indices,
                              std::uint64_t v) {
  const std::size_t n = std::min<std::size_t>(pi_indices.size(), 64);
  for (std::size_t i = 0; i < n; ++i) {
    const NetId pi = pi_indices[i];
    if (pi == kInvalidNet) continue;
    staged_pi_[pi] = static_cast<char>((v >> i) & 1u);
  }
  for (std::size_t i = 64; i < pi_indices.size(); ++i) {
    if (pi_indices[i] != kInvalidNet) staged_pi_[pi_indices[i]] = 0;
  }
}

bool TimedSim::step_staged(double t_clock_ps) {
  return step(staged_pi_, t_clock_ps);
}

bool TimedSim::step(const std::vector<char>& pi_values, double t_clock_ps) {
  if (pi_values.size() != nl_->inputs().size()) {
    throw std::invalid_argument("TimedSim::step: PI vector size mismatch");
  }
  clear_queue();
  // Collect the changed PIs (in input order). They are applied inline at the
  // head of step_impl instead of round-tripping through the event queue:
  // every one of them would pop first (t = 0, FIFO) and commit — no gate
  // drives a PI, so nothing can supersede them before the drain starts.
  pi_changed_.clear();
  const NetId* const ins = nl_->inputs().data();
  for (std::size_t i = 0; i < pi_values.size(); ++i) {
    NetHot& h = net_[ins[i]];
    const char v = pi_values[i] ? 1 : 0;
    if (h.pending != v) {
      h.pending = v;
      h.generation += 2;
      pi_changed_.push_back(ins[i]);
    }
  }
  if (&pi_values != &staged_pi_) staged_pi_ = pi_values;
  return model_ == DelayModel::inertial
             ? step_impl<DelayModel::inertial>(t_clock_ps)
             : step_impl<DelayModel::transport>(t_clock_ps);
}

template <DelayModel kModel>
bool TimedSim::step_impl(double t_clock_ps) {
  bool snapshotted = false;
  // Single-compare snapshot test: after the snapshot is taken (or when none
  // can ever trigger) the threshold moves to +inf and the branch never fires.
  double snapshot_after = t_clock_ps;
  std::uint64_t guard = 0;
  last_settle_time_ = 0.0;
  last_output_settle_time_ = 0.0;
  ++step_id_;
  // Apply the changed PIs inline, in input order — identical bookkeeping and
  // propagation order to popping them from the queue at t = 0 (see step()),
  // minus ~1/3 of all queue traffic.
  if (!pi_changed_.empty() && 0.0 > t_clock_ps) {  // degenerate clock only
    for (std::size_t n = 0; n < net_.size(); ++n) sampled_[n] = net_[n].value;
    sampled_is_settled_ = false;
    snapshotted = true;
    snapshot_after = std::numeric_limits<double>::infinity();
  }
  for (const NetId pi : pi_changed_) {
    NetHot& h = net_[pi];
    ++guard;
    h.applied_generation = h.generation;
    const char v = h.pending;
    if (h.value == v) continue;
    activity_.high_cycles[pi] += (activity_.cycles - high_sync_[pi]) &
                                 (0 - static_cast<std::uint64_t>(h.value));
    high_sync_[pi] = activity_.cycles;
    h.value = v;
    ++activity_.toggles[pi];
    ++events_processed_;
    last_settle_time_ = 0.0;
    change_[pi] = {0.0, step_id_};
    if (h.is_output) last_output_settle_time_ = 0.0;
    const std::uint32_t rbegin = reader_offset_[pi];
    const std::uint32_t rend = reader_offset_[pi + 1];
    for (std::uint32_t r = rbegin; r < rend; ++r) {
      const GateId gid = reader_gate_[r];
      const GateInfo& g = gate_info_[gid];
      const unsigned mask =
          static_cast<unsigned>(net_[g.fanin[0]].value) |
          (static_cast<unsigned>(net_[g.fanin[1]].value) << 1) |
          (static_cast<unsigned>(net_[g.fanin[2]].value) << 2);
      const char out = static_cast<char>((g.tt >> mask) & 1u);
      NetHot& fo = net_[g.fanout];
      if (fo.pending == out) continue;
      fo.pending = out;
      fo.generation += 2;  // cancels in-flight transitions (inertial)
      if constexpr (kModel == DelayModel::inertial) {
        if (out == fo.value) continue;  // pulse swallowed entirely
      }
      const double delay = out ? g.rise : g.fall;
      push_event(
          {delay, g.fanout, fo.generation | static_cast<std::uint32_t>(out)});
    }
  }
  while (queue_size_ > 0) {
    // Advance to the next occupied bucket (monotone: completed buckets can
    // never be repopulated, so cur_bucket_ only moves forward in a step).
    std::vector<Event>* bucket = &buckets_[cur_bucket_];
    while (drain_pos_ >= bucket->size()) {
      bucket->clear();
      occupied_[cur_bucket_ >> 6] &=
          ~(std::uint64_t{1} << (cur_bucket_ & 63));
      drain_pos_ = 0;
      std::uint32_t w = cur_bucket_ >> 6;
      std::uint64_t bits = occupied_[w] & ~((std::uint64_t{1} << (cur_bucket_ & 63)) - 1);
      while (bits == 0) bits = occupied_[++w];
      cur_bucket_ = static_cast<std::uint32_t>(
          (w << 6) + static_cast<std::uint32_t>(std::countr_zero(bits)));
      bucket = &buckets_[cur_bucket_];
      sort_by_time(*bucket);
    }
    const Event ev = (*bucket)[drain_pos_++];
    --queue_size_;
    if (++guard > 50'000'000ULL) {
      throw std::runtime_error("TimedSim::step: event budget exceeded");
    }
    NetHot& h = net_[ev.net];
    // Inertial-delay semantics: a transition superseded by a newer decision
    // for the same net was a sub-delay pulse and is swallowed. Transport mode
    // keeps pulses but must drop events arriving out of order (a later
    // decision can land earlier when rise and fall delays differ), or a stale
    // value would stick as the final state.
    const std::uint32_t ev_gen = ev.gen_val & ~1u;
    const char ev_value = static_cast<char>(ev.gen_val & 1u);
    if constexpr (kModel == DelayModel::inertial) {
      if (ev_gen != h.generation) continue;
    } else {
      if (ev_gen < h.applied_generation) continue;
    }
    if (ev.time > snapshot_after) {
      for (std::size_t n = 0; n < net_.size(); ++n) sampled_[n] = net_[n].value;
      sampled_is_settled_ = false;
      snapshotted = true;
      snapshot_after = std::numeric_limits<double>::infinity();
    }
    h.applied_generation = ev_gen;
    if (h.value == ev_value) continue;
    // Fold the cycles the old value was held into the duty account before
    // overwriting it (lazy replacement for a per-step sweep of all nets).
    activity_.high_cycles[ev.net] +=
        (activity_.cycles - high_sync_[ev.net]) &
        (0 - static_cast<std::uint64_t>(h.value));
    high_sync_[ev.net] = activity_.cycles;
    h.value = ev_value;
    ++activity_.toggles[ev.net];
    ++events_processed_;
    last_settle_time_ = ev.time;
    change_[ev.net] = {ev.time, step_id_};
    if (h.is_output) last_output_settle_time_ = ev.time;
    // Propagate to reader gates (flat CSR + per-gate truth tables; no
    // Gate/Cell lookups on the hot path).
    const std::uint32_t rbegin = reader_offset_[ev.net];
    const std::uint32_t rend = reader_offset_[ev.net + 1];
    for (std::uint32_t r = rbegin; r < rend; ++r) {
      const GateId gid = reader_gate_[r];
      const GateInfo& g = gate_info_[gid];
      const unsigned mask =
          static_cast<unsigned>(net_[g.fanin[0]].value) |
          (static_cast<unsigned>(net_[g.fanin[1]].value) << 1) |
          (static_cast<unsigned>(net_[g.fanin[2]].value) << 2);
      const char out = static_cast<char>((g.tt >> mask) & 1u);
      NetHot& fo = net_[g.fanout];
      if (fo.pending == out) continue;
      fo.pending = out;
      fo.generation += 2;  // cancels in-flight transitions (inertial)
      if constexpr (kModel == DelayModel::inertial) {
        if (out == fo.value) continue;  // pulse swallowed entirely
      }
      const double delay = out ? g.rise : g.fall;
      push_event(
          {ev.time + delay, g.fanout, fo.generation | static_cast<std::uint32_t>(out)});
    }
  }
  if (cur_bucket_ < n_buckets_) {
    buckets_[cur_bucket_].clear();
    occupied_[cur_bucket_ >> 6] &= ~(std::uint64_t{1} << (cur_bucket_ & 63));
  }
  cur_bucket_ = 0;
  drain_pos_ = 0;

  ++activity_.cycles;

  if (!snapshotted) {
    // No event crossed the clock edge: the sample IS the settled state, so
    // there is nothing to copy and no PO can mismatch.
    sampled_is_settled_ = true;
    return false;
  }
  for (const NetId po : nl_->outputs()) {
    if (sampled_[po] != net_[po].value) return true;
  }
  return false;
}

std::uint64_t TimedSim::word_sampled(const std::vector<NetId>& nets) const {
  if (sampled_is_settled_) return word_settled(nets);
  if (nets.size() > 64) throw std::invalid_argument("TimedSim: bus too wide");
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < nets.size(); ++i) {
    if (sampled_[nets[i]]) v |= std::uint64_t{1} << i;
  }
  return v;
}

std::uint64_t TimedSim::word_settled(const std::vector<NetId>& nets) const {
  if (nets.size() > 64) throw std::invalid_argument("TimedSim: bus too wide");
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < nets.size(); ++i) {
    if (net_[nets[i]].value) v |= std::uint64_t{1} << i;
  }
  return v;
}

std::uint64_t TimedSim::sampled_bus(const std::string& bus) const {
  return word_sampled(nl_->output_bus(bus));
}

std::uint64_t TimedSim::settled_bus(const std::string& bus) const {
  return word_settled(nl_->output_bus(bus));
}

std::uint64_t TimedSim::sampled_word(const std::vector<NetId>& nets) const {
  return word_sampled(nets);
}

std::uint64_t TimedSim::settled_word(const std::vector<NetId>& nets) const {
  return word_settled(nets);
}

bool TimedSim::sampled(NetId net) const {
  return (sampled_is_settled_ ? net_[net].value : sampled_[net]) != 0;
}
bool TimedSim::settled(NetId net) const { return net_[net].value != 0; }

double TimedSim::settle_time(NetId net) const {
  if (net >= change_.size()) throw std::out_of_range("TimedSim::settle_time");
  return change_[net].step == step_id_ ? change_[net].time : 0.0;
}

void TimedSim::sync_high_cycles() const {
  for (std::size_t n = 0; n < net_.size(); ++n) {
    if (net_[n].value) {
      activity_.high_cycles[n] += activity_.cycles - high_sync_[n];
    }
    high_sync_[n] = activity_.cycles;
  }
}

const Activity& TimedSim::activity() const {
  sync_high_cycles();
  return activity_;
}

void TimedSim::clear_activity() {
  activity_.toggles.assign(nl_->num_nets(), 0);
  activity_.high_cycles.assign(nl_->num_nets(), 0);
  high_sync_.assign(nl_->num_nets(), 0);
  activity_.cycles = 0;
}

}  // namespace aapx
