// Differential test: TimedSim against a naive reference event simulator.
//
// The reference keeps its queue in an ordered map keyed by (time, push
// sequence) and pops the minimum, with no calendar buckets and no packed
// per-net state. It follows TimedSim's documented rules: changed primary
// inputs commit at t = 0 in input order, a gate re-decides its output on
// every committed fanin change, inertial mode drops every superseded
// transition, transport mode drops only transitions older than the newest
// one applied, and the sample is a snapshot taken just before the first
// event later than the clock. After every step, every observable of the two
// simulators must agree exactly.
//
// TimedReplayTest then holds the chunked stream primitive replay_timed to
// the plain serial TimedSim loop on the same generators: per-vector error
// flags and output settle times, and the summed events and steps, at every
// thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cell/degradation.hpp"
#include "core/stimulus.hpp"
#include "engine/cancel.hpp"
#include "engine/context.hpp"
#include "gatesim/timedsim.hpp"
#include "obs/metrics.hpp"
#include "synth/components.hpp"
#include "util/rng.hpp"

namespace aapx {
namespace {

class OracleSim {
 public:
  OracleSim(const Netlist& nl, Sta::GateDelays delays, DelayModel model)
      : nl_(nl), delays_(std::move(delays)), model_(model) {
    const std::size_t n = nl.num_nets();
    value_.assign(n, 0);
    pending_.assign(n, 0);
    sampled_.assign(n, 0);
    generation_.assign(n, 0);
    applied_.assign(n, 0);
    settle_.assign(n, 0.0);
    toggles_.assign(n, 0);
    high_.assign(n, 0);
    reset(std::vector<char>(nl.inputs().size(), 0));
  }

  void reset(const std::vector<char>& pis) {
    std::fill(value_.begin(), value_.end(), 0);
    value_[nl_.const1()] = 1;
    for (std::size_t i = 0; i < pis.size(); ++i) {
      value_[nl_.inputs()[i]] = pis[i] ? 1 : 0;
    }
    for (const GateId g : nl_.topo_order()) value_[nl_.gate(g).fanout] = eval(g);
    pending_ = value_;
    sampled_ = value_;
  }

  bool step(const std::vector<char>& pis, double t_clock) {
    events_.clear();
    std::fill(settle_.begin(), settle_.end(), 0.0);
    last_settle_ = 0.0;
    last_output_settle_ = 0.0;
    sampled_ = value_;
    std::vector<NetId> changed;
    for (std::size_t i = 0; i < pis.size(); ++i) {
      const NetId pi = nl_.inputs()[i];
      const char v = pis[i] ? 1 : 0;
      if (pending_[pi] == v) continue;
      pending_[pi] = v;
      ++generation_[pi];
      changed.push_back(pi);
    }
    bool sampled_now = false;
    if (!changed.empty() && t_clock < 0.0) {
      sampled_ = value_;
      sampled_now = true;
    }
    for (const NetId pi : changed) {
      applied_[pi] = generation_[pi];
      commit(pi, pending_[pi], 0.0);
    }
    while (!events_.empty()) {
      const auto it = events_.begin();
      const double t = it->first.first;
      const Event ev = it->second;
      events_.erase(it);
      const bool stale = model_ == DelayModel::inertial
                             ? ev.generation != generation_[ev.net]
                             : ev.generation < applied_[ev.net];
      if (stale) continue;
      if (!sampled_now && t > t_clock) {
        sampled_ = value_;
        sampled_now = true;
      }
      applied_[ev.net] = ev.generation;
      commit(ev.net, ev.value, t);
    }
    ++cycles_;
    for (std::size_t n = 0; n < value_.size(); ++n) high_[n] += value_[n] ? 1 : 0;
    if (!sampled_now) sampled_ = value_;
    for (const NetId po : nl_.outputs()) {
      if (sampled_[po] != value_[po]) return true;
    }
    return false;
  }

  const Netlist& nl_;
  Sta::GateDelays delays_;
  DelayModel model_;
  std::vector<char> value_, pending_, sampled_;
  std::vector<std::uint64_t> generation_, applied_, toggles_, high_;
  std::vector<double> settle_;
  double last_settle_ = 0.0;
  double last_output_settle_ = 0.0;
  std::uint64_t events_processed_ = 0;
  std::uint64_t cycles_ = 0;

 private:
  struct Event {
    NetId net;
    std::uint64_t generation;
    char value;
  };

  char eval(GateId g) const {
    const Gate& gate = nl_.gate(g);
    unsigned mask = 0;
    for (std::size_t p = 0; p < gate.fanin.size(); ++p) {
      if (gate.fanin[p] != kInvalidNet && value_[gate.fanin[p]]) mask |= 1u << p;
    }
    return fn_eval(nl_.lib().cell(gate.cell).fn, mask) ? 1 : 0;
  }

  void commit(NetId net, char v, double t) {
    if (value_[net] == v) return;
    value_[net] = v;
    ++toggles_[net];
    ++events_processed_;
    settle_[net] = t;
    last_settle_ = t;
    if (std::count(nl_.outputs().begin(), nl_.outputs().end(), net) > 0) {
      last_output_settle_ = t;
    }
    for (const NetReader& r : nl_.readers(net)) {
      const NetId out_net = nl_.gate(r.gate).fanout;
      const char out = eval(r.gate);
      if (pending_[out_net] == out) continue;
      pending_[out_net] = out;
      ++generation_[out_net];
      if (model_ == DelayModel::inertial && out == value_[out_net]) continue;
      const double delay = out ? delays_.rise[r.gate] : delays_.fall[r.gate];
      events_.emplace(std::make_pair(t + delay, seq_++),
                      Event{out_net, generation_[out_net], out});
    }
  }

  std::map<std::pair<double, std::uint64_t>, Event> events_;
  std::uint64_t seq_ = 0;
};

/// Longest topological path over max(rise, fall): no event can land later.
double path_bound(const Netlist& nl, const Sta::GateDelays& d) {
  std::vector<double> arrive(nl.num_nets(), 0.0);
  double bound = 0.0;
  for (const GateId g : nl.topo_order()) {
    const Gate& gate = nl.gate(g);
    double in = 0.0;
    for (const NetId f : gate.fanin) {
      if (f != kInvalidNet) in = std::max(in, arrive[f]);
    }
    arrive[gate.fanout] = in + std::max(d.rise[g], d.fall[g]);
    bound = std::max(bound, arrive[gate.fanout]);
  }
  return bound;
}

void expect_same(const Netlist& nl, TimedSim& sim, const OracleSim& ref,
                 bool err, bool ref_err) {
  ASSERT_EQ(err, ref_err);
  ASSERT_EQ(sim.events_processed(), ref.events_processed_);
  ASSERT_EQ(sim.last_settle_time(), ref.last_settle_);
  ASSERT_EQ(sim.last_output_settle_time(), ref.last_output_settle_);
  const Activity& act = sim.activity();
  ASSERT_EQ(act.cycles, ref.cycles_);
  for (NetId n = 0; n < nl.num_nets(); ++n) {
    ASSERT_EQ(sim.settled(n), ref.value_[n] != 0) << "net " << n;
    ASSERT_EQ(sim.sampled(n), ref.sampled_[n] != 0) << "net " << n;
    ASSERT_EQ(sim.settle_time(n), ref.settle_[n]) << "net " << n;
    ASSERT_EQ(act.toggles[n], ref.toggles_[n]) << "net " << n;
    ASSERT_EQ(act.high_cycles[n], ref.high_[n]) << "net " << n;
  }
}

/// Drives both simulators with the same random vectors, clocks and resets
/// (one reset half-way through). Returns the number of steps that flagged a
/// timing error.
int cross_check(const Netlist& nl, const Sta::GateDelays& delays,
                DelayModel model, std::uint64_t seed, int steps = 40) {
  TimedSim sim(nl, delays, model);
  OracleSim ref(nl, delays, model);
  const double bound = path_bound(nl, delays);
  Rng rng(seed);
  std::vector<char> pis(nl.inputs().size(), 0);
  int errors = 0;
  for (int i = 0; i < steps; ++i) {
    if (i == steps / 2) {
      for (char& b : pis) b = rng.next_bool() ? 1 : 0;
      sim.reset(pis);
      ref.reset(pis);
    }
    if (i % 4 == 3) {
      pis[rng.next_below(pis.size())] ^= 1;  // one-bit change
    } else {
      for (char& b : pis) b = rng.next_bool() ? 1 : 0;
    }
    double t_clock = bound * 1.2 * rng.next_double();
    if (i % 10 == 0) t_clock = 1e9;
    if (i % 10 == 5) t_clock = 0.0;
    if (i % 10 == 7) t_clock = -1.0;
    const bool err = sim.step(pis, t_clock);
    const bool ref_err = ref.step(pis, t_clock);
    SCOPED_TRACE(testing::Message() << "step " << i << " clock " << t_clock);
    expect_same(nl, sim, ref, err, ref_err);
    if (testing::Test::HasFatalFailure()) return errors;
    errors += err ? 1 : 0;
  }
  return errors;
}

/// Per-gate delays on a coarse 5 ps grid with independent rise and fall:
/// many equal-time events (FIFO tie-breaks) and rise/fall inversions.
Sta::GateDelays jittered(const Sta::GateDelays& base, Rng& rng) {
  Sta::GateDelays d = base;
  for (std::size_t g = 0; g < d.rise.size(); ++g) {
    d.rise[g] = 5.0 * static_cast<double>(rng.next_int(1, 6));
    d.fall[g] = 5.0 * static_cast<double>(rng.next_int(1, 6));
  }
  return d;
}

/// Every component generator and approximation technique, small enough for
/// the naive oracle.
std::vector<ComponentSpec> oracle_specs() {
  using K = ComponentKind;
  using T = ApproxTechnique;
  return {
      {K::adder, 8, 0, AdderArch::ripple, MultArch::array},
      {K::adder, 8, 0, AdderArch::cla4, MultArch::array},
      {K::adder, 8, 0, AdderArch::kogge_stone, MultArch::array},
      {K::adder, 8, 2, AdderArch::cla4, MultArch::array},
      {K::adder, 8, 3, AdderArch::ripple, MultArch::array, T::carry_window},
      {K::multiplier, 6, 0, AdderArch::ripple, MultArch::array},
      {K::multiplier, 6, 0, AdderArch::cla4, MultArch::wallace},
      {K::multiplier, 6, 2, AdderArch::cla4, MultArch::array, T::pp_truncation},
      {K::mac, 5, 0, AdderArch::ripple, MultArch::array},
      {K::clamp, 10, 0, AdderArch::cla4, MultArch::array},
  };
}

TEST(TimedSimOracleTest, MatchesNaiveSimulatorOnEveryGenerator) {
  const CellLibrary lib = make_nangate45_like();
  const DegradationAwareLibrary aged(lib, AgingModel{}, 10.0);
  Rng rng(2017);
  std::uint64_t seed = 1;
  for (const ComponentSpec& spec : oracle_specs()) {
    const Netlist nl = make_component(lib, spec);
    const Sta sta(nl);
    const StressProfile stress =
        StressProfile::uniform(StressMode::worst, nl.num_gates());
    const Sta::GateDelays fresh = sta.gate_delays(nullptr, nullptr);
    const std::vector<Sta::GateDelays> variants = {
        fresh, sta.gate_delays(&aged, &stress), jittered(fresh, rng)};
    for (std::size_t v = 0; v < variants.size(); ++v) {
      for (const DelayModel model : {DelayModel::inertial, DelayModel::transport}) {
        SCOPED_TRACE(testing::Message()
                     << spec.name() << " delays " << v << " "
                     << (model == DelayModel::inertial ? "inertial" : "transport"));
        // Every configuration must reach the snapshot path.
        EXPECT_GT(cross_check(nl, variants[v], model, seed++), 0);
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST(TimedSimOracleTest, OneNetOnSeveralPinsOfOneGate) {
  // Gates that read one net on several pins, driven by primary inputs and by
  // an internal net: every commit of the net must re-decide such a gate once
  // with all its pins flipped. Re-deciding it per pin would, with transport
  // delays, emit a zero-width pulse from XOR2(a, a).
  const CellLibrary lib = make_nangate45_like();
  Netlist nl(lib);
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId c = nl.add_input("c");
  const NetId x = nl.mk(LogicFn::kXor2, a, b);
  const std::vector<NetId> outs = {
      nl.mk(LogicFn::kAnd2, a, a),
      nl.mk(LogicFn::kXor2, a, a),
      nl.mk(LogicFn::kAoi21, a, b, a),
      nl.mk(LogicFn::kMux2, c, x, x),
      nl.mk(LogicFn::kXnor2, x, x),
      nl.mk(LogicFn::kOr2, nl.mk(LogicFn::kXor2, x, x), c),
      nl.mk(LogicFn::kMaj3, x, c, x),
  };
  for (std::size_t i = 0; i < outs.size(); ++i) {
    nl.mark_output(outs[i], "y" + std::to_string(i));
  }
  const Sta::GateDelays fresh = Sta(nl).gate_delays(nullptr, nullptr);
  Rng rng(11);
  std::uint64_t seed = 100;
  for (const Sta::GateDelays& delays : {fresh, jittered(fresh, rng)}) {
    for (const DelayModel model : {DelayModel::inertial, DelayModel::transport}) {
      SCOPED_TRACE(model == DelayModel::inertial ? "inertial" : "transport");
      cross_check(nl, delays, model, seed++);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(TimedSimOracleTest, ClusteredBucketsOfArrayMultiplier) {
  // A 16-bit array multiplier in transport mode fills its calendar buckets
  // with wavefronts: buckets of about a hundred events at distinct,
  // near-equal times (the generator suite above opens none larger than about
  // two dozen), which the bucket ordering's counting pass alone leaves out of
  // order.
  const CellLibrary lib = make_nangate45_like();
  const Netlist nl = make_component(
      lib, {ComponentKind::multiplier, 16, 0, AdderArch::ripple, MultArch::array});
  const Sta::GateDelays fresh = Sta(nl).gate_delays(nullptr, nullptr);
  Rng rng(16);
  std::uint64_t seed = 200;
  for (const Sta::GateDelays& delays : {fresh, jittered(fresh, rng)}) {
    cross_check(nl, delays, DelayModel::transport, seed++, 12);
    if (HasFatalFailure()) return;
  }
}

// --- Chunked replay (replay_timed) against the serial TimedSim loop -------

/// Random rows over every input bus of `nl`; row `repeat_at` (0 = none)
/// copies its predecessor, so no primary input changes there.
StimulusSet random_rows(const Netlist& nl, std::size_t count,
                        std::size_t repeat_at, Rng& rng) {
  StimulusSet stim;
  stim.buses = nl.input_bus_names();
  for (std::size_t i = 0; i < count; ++i) {
    if (i == repeat_at && i > 0) {
      stim.vectors.push_back(stim.vectors.back());
      continue;
    }
    std::vector<std::uint64_t> row;
    for (const std::string& bus : stim.buses) {
      const std::size_t width = nl.input_bus(bus).size();
      const std::uint64_t mask =
          width >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << width) - 1;
      row.push_back(rng.next_u64() & mask);
    }
    stim.vectors.push_back(std::move(row));
  }
  return stim;
}

/// The reference: one TimedSim, reset() once, every row staged and stepped
/// in order.
struct SerialReplay {
  std::vector<TimedOutcome> outcomes;
  std::uint64_t events = 0;
};

SerialReplay serial_replay(const Netlist& nl, const Sta::GateDelays& delays,
                           DelayModel model, const StimulusSet& stim,
                           double t_clock) {
  TimedSim sim(nl, delays, model);
  sim.reset();
  SerialReplay ref;
  for (const auto& row : stim.vectors) {
    for (std::size_t b = 0; b < stim.buses.size(); ++b) {
      sim.stage_bus(stim.buses[b], row[b]);
    }
    const bool error = sim.step_staged(t_clock);
    ref.outcomes.push_back({error, sim.last_output_settle_time()});
  }
  ref.events = sim.events_processed();
  return ref;
}

Context::Options with_threads(int threads) {
  Context::Options options;
  options.threads = threads;
  return options;
}

TEST(TimedReplayTest, ChunkedEqualsSerialOnEveryGenerator) {
  const CellLibrary lib = make_nangate45_like();
  const DegradationAwareLibrary aged(lib, AgingModel{}, 10.0);
  obs::Counter& events = obs::metrics().counter("timedsim.events");
  obs::Counter& steps = obs::metrics().counter("timedsim.steps");
  Rng rng(2020);
  for (const ComponentSpec& spec : oracle_specs()) {
    const Netlist nl = make_component(lib, spec);
    const StressProfile stress =
        StressProfile::uniform(StressMode::worst, nl.num_gates());
    const Sta::GateDelays delays = Sta(nl).gate_delays(&aged, &stress);
    // 37 rows cut unevenly at every thread count; row 18 repeats row 17,
    // which is a chunk boundary at 2 and 4 threads. The 2- and 5-row
    // streams are shorter than (or barely longer than) the thread count, so
    // they run chunks of a single row.
    const std::vector<StimulusSet> streams = {
        random_rows(nl, 37, 18, rng), random_rows(nl, 2, 0, rng),
        random_rows(nl, 5, 0, rng)};
    for (const DelayModel model : {DelayModel::inertial, DelayModel::transport}) {
      const char* model_name =
          model == DelayModel::inertial ? "inertial" : "transport";
      // A clock at 60 % of the long stream's slowest output settle: tight
      // enough that some vectors err.
      const SerialReplay unclocked =
          serial_replay(nl, delays, model, streams[0], 1e12);
      double slowest = 0.0;
      for (const TimedOutcome& o : unclocked.outcomes) {
        slowest = std::max(slowest, o.output_settle_ps);
      }
      const double t_clock = 0.6 * slowest;
      for (std::size_t s = 0; s < streams.size(); ++s) {
        const SerialReplay ref =
            serial_replay(nl, delays, model, streams[s], t_clock);
        std::size_t errors = 0;
        for (const TimedOutcome& o : ref.outcomes) errors += o.error ? 1 : 0;
        if (s == 0) {
          EXPECT_GT(errors, 0u) << spec.name() << " " << model_name;
        }
        for (const int threads : {1, 2, 3, 4}) {
          SCOPED_TRACE(testing::Message()
                       << spec.name() << " stream " << s << " " << model_name
                       << " threads " << threads);
          const Context ctx(with_threads(threads));
          const std::uint64_t events0 = events.value();
          const std::uint64_t steps0 = steps.value();
          const std::vector<TimedOutcome> got =
              replay_timed(ctx, nl, delays, model, streams[s], t_clock);
          EXPECT_EQ(events.value() - events0, ref.events);
          EXPECT_EQ(steps.value() - steps0, streams[s].size());
          ASSERT_EQ(got.size(), ref.outcomes.size());
          for (std::size_t i = 0; i < got.size(); ++i) {
            ASSERT_EQ(got[i].error, ref.outcomes[i].error) << "vector " << i;
            ASSERT_EQ(got[i].output_settle_ps, ref.outcomes[i].output_settle_ps)
                << "vector " << i;
          }
        }
      }
    }
  }
}

TEST(TimedReplayTest, RejectsRaggedRowsAndObservesCancellation) {
  const CellLibrary lib = make_nangate45_like();
  const Netlist nl = make_component(
      lib, {ComponentKind::adder, 8, 0, AdderArch::ripple, MultArch::array});
  const Sta::GateDelays delays = Sta(nl).gate_delays(nullptr, nullptr);
  Rng rng(7);
  StimulusSet stim = random_rows(nl, 16, 0, rng);

  CancelToken token;
  token.cancel();
  Context::Options options = with_threads(4);
  options.cancel = &token;
  const Context cancelled(options);
  EXPECT_THROW(replay_timed(cancelled, nl, delays, DelayModel::inertial, stim,
                            1e12),
               CancelledError);

  const Context ctx(with_threads(4));
  stim.vectors[9].pop_back();
  EXPECT_THROW(
      replay_timed(ctx, nl, delays, DelayModel::inertial, stim, 1e12),
      std::invalid_argument);
}

}  // namespace
}  // namespace aapx
