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

/// Stable insertion sort by time: equal times keep push order. It runs after
/// open_bucket's counting pass, which leaves only within-sub-bin disorder.
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
    : nl_(&nl), model_(model) {
  if (delays.rise.size() != nl.num_gates() ||
      delays.fall.size() != nl.num_gates()) {
    throw std::invalid_argument("TimedSim: delay vector size mismatch");
  }
  for (std::size_t g = 0; g < nl.num_gates(); ++g) {
    for (const double d : {delays.rise[g], delays.fall[g]}) {
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
  net_.assign(nl.num_nets(), NetHot{});
  sampled_.assign(nl.num_nets(), 0);
  staged_pi_.assign(nl.inputs().size(), 0);
  change_.assign(nl.num_nets(), Change{0.0, 0});
  for (const NetId po : nl.outputs()) net_[po].is_output = 1;
  activity_.toggles.assign(nl.num_nets(), 0);
  activity_.high_cycles.assign(nl.num_nets(), 0);
  high_sync_.assign(nl.num_nets(), 0);

  // Each gate's function and delays go into its output net's record, so the
  // event loop never chases Gate/Cell indirections (in_mask is set by reset).
  for (std::size_t g = 0; g < nl.num_gates(); ++g) {
    const Gate& gate = nl.gate(static_cast<GateId>(g));
    NetHot& h = net_[gate.fanout];
    h.rise = delays.rise[g];
    h.fall = delays.fall[g];
    const LogicFn fn = nl.lib().cell(gate.cell).fn;
    for (unsigned m = 0; m < 8; ++m) {
      if (fn_eval(fn, m)) h.tt |= static_cast<std::uint8_t>(1u << m);
    }
  }
  // Reader CSR: one entry per reader gate, pins of a repeated net merged
  // into the entry of its first pin. entry_end[g] is one past the gate's
  // newest entry; it belongs to the net being listed iff it lies past begin.
  reader_offset_.assign(nl.num_nets() + 1, 0);
  std::vector<std::size_t> entry_end(nl.num_gates(), 0);
  for (std::size_t n = 0; n < nl.num_nets(); ++n) {
    const std::size_t begin = reader_.size();
    for (const NetReader& r : nl.readers(static_cast<NetId>(n))) {
      const std::uint32_t pin = 1u << r.pin;
      std::size_t& end = entry_end[r.gate];
      if (end > begin) {
        reader_[end - 1].pins |= pin;
      } else {
        reader_.push_back({nl.gate(r.gate).fanout, pin});
        end = reader_.size();
      }
    }
    reader_offset_[n + 1] = static_cast<std::uint32_t>(reader_.size());
  }

  // Calendar-queue horizon: the topo longest-path delay is a hard upper
  // bound on any event time within a step (every event time is a sum of
  // gate delays along a path from a t=0 input transition).
  double horizon = 0.0;
  {
    std::vector<double> arrive(nl.num_nets(), 0.0);
    for (const GateId gid : nl.topo_order()) {
      const Gate& g = nl.gate(gid);
      double in = 0.0;
      for (const NetId f : g.fanin) {
        if (f != kInvalidNet) in = std::max(in, arrive[f]);
      }
      arrive[g.fanout] = in + std::max(delays.rise[gid], delays.fall[gid]);
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
  for (std::size_t g = 0; g < nl_->num_gates(); ++g) {
    const Gate& gate = nl_->gate(static_cast<GateId>(g));
    std::uint8_t mask = 0;
    for (std::size_t p = 0; p < gate.fanin.size(); ++p) {
      if (gate.fanin[p] != kInvalidNet && net_[gate.fanin[p]].value) {
        mask |= static_cast<std::uint8_t>(1u << p);
      }
    }
    net_[gate.fanout].in_mask = mask;
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

void TimedSim::open_bucket(std::vector<Event>& b) {
  const std::size_t n = b.size();
  if (n < 2) return;
  Event* const ev = b.data();
  // Sub-bin of an event: its offset into the bucket scaled to [0, n). The
  // map never decreases in time, so an event in a later sub-bin is strictly
  // later than every event in an earlier one, and the stable counting pass
  // leaves only within-sub-bin disorder for the insertion sort. The events
  // are copied out and scattered back, so the bucket keeps its own storage.
  const double scale = static_cast<double>(n) * inv_bucket_width_;
  const double base = static_cast<double>(n) * static_cast<double>(cur_bucket_);
  const std::int64_t last = static_cast<std::int64_t>(n) - 1;
  if (sub_start_.size() <= n) sub_start_.resize(n + 1);
  if (sub_bin_.size() < n) {
    sub_bin_.resize(n);
    unsorted_.resize(n);
  }
  std::uint32_t* const start = sub_start_.data();
  std::uint32_t* const bin = sub_bin_.data();
  Event* const copy = unsorted_.data();
  std::fill_n(start, n + 1, 0u);
  for (std::size_t j = 0; j < n; ++j) {
    const auto k = static_cast<std::int64_t>(ev[j].time * scale - base);
    bin[j] = static_cast<std::uint32_t>(std::clamp<std::int64_t>(k, 0, last));
    ++start[bin[j] + 1];
    copy[j] = ev[j];
  }
  for (std::size_t k = 1; k < n; ++k) start[k] += start[k - 1];
  for (std::size_t j = 0; j < n; ++j) ev[start[bin[j]]++] = copy[j];
  sort_by_time(b);
}

template <DelayModel kModel>
inline __attribute__((always_inline)) void TimedSim::commit(NetId net, char v, double t) {
  NetHot& h = net_[net];
  // Fold the cycles the old value was held into the duty account before
  // overwriting it (lazy replacement for a per-step sweep of all nets).
  activity_.high_cycles[net] += (activity_.cycles - high_sync_[net]) &
                                (0 - static_cast<std::uint64_t>(h.value));
  high_sync_[net] = activity_.cycles;
  h.value = v;
  ++activity_.toggles[net];
  ++events_processed_;
  last_settle_time_ = t;
  change_[net] = {t, step_id_};
  if (h.is_output) last_output_settle_time_ = t;
  // Re-decide every reader gate from its output net's record: the committed
  // net flipped, so its pins' bits flip in the gate's fanin mask.
  const std::uint32_t rend = reader_offset_[net + 1];
  for (std::uint32_t r = reader_offset_[net]; r < rend; ++r) {
    const Reader rd = reader_[r];
    NetHot& fo = net_[rd.fanout];
    fo.in_mask ^= static_cast<std::uint8_t>(rd.pins);
    const char out = static_cast<char>((fo.tt >> fo.in_mask) & 1u);
    if (fo.pending == out) continue;
    fo.pending = out;
    fo.generation += 2;  // cancels in-flight transitions (inertial)
    if constexpr (kModel == DelayModel::inertial) {
      if (out == fo.value) continue;  // pulse swallowed entirely
    }
    const double delay = out ? fo.rise : fo.fall;
    push_event(
        {t + delay, rd.fanout, fo.generation | static_cast<std::uint32_t>(out)});
  }
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
    if (h.value != h.pending) commit<kModel>(pi, h.pending, 0.0);
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
      open_bucket(*bucket);
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
    if (h.value != ev_value) commit<kModel>(ev.net, ev_value, ev.time);
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
