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
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "cell/degradation.hpp"
#include "gatesim/timedsim.hpp"
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

/// Drives both simulators with the same random vectors, clocks and resets.
/// Returns the number of steps that flagged a timing error.
int cross_check(const Netlist& nl, const Sta::GateDelays& delays,
                DelayModel model, std::uint64_t seed) {
  TimedSim sim(nl, delays, model);
  OracleSim ref(nl, delays, model);
  const double bound = path_bound(nl, delays);
  Rng rng(seed);
  std::vector<char> pis(nl.inputs().size(), 0);
  int errors = 0;
  for (int i = 0; i < 40; ++i) {
    if (i == 20) {
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

TEST(TimedSimOracleTest, MatchesNaiveSimulatorOnEveryGenerator) {
  const CellLibrary lib = make_nangate45_like();
  const DegradationAwareLibrary aged(lib, AgingModel{}, 10.0);
  using K = ComponentKind;
  using T = ApproxTechnique;
  const std::vector<ComponentSpec> specs = {
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
  Rng rng(2017);
  std::uint64_t seed = 1;
  for (const ComponentSpec& spec : specs) {
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

}  // namespace
}  // namespace aapx
