// Differential test: the one-vector arrival pass against split rise/fall
// propagation.
//
// The reference below is the propagation Sta ran before it kept one worst
// arrival per net: separate rise and fall arrival vectors, a back-pointer per
// net and edge naming the input pin and input edge that produced the worst
// arrival (first strictly later one wins), and a walk-back along those
// pointers from the first primary output reaching the max delay. A second
// reference is the Monte-Carlo sampler's former private pass. Sta,
// critical_path() and MonteCarloSta must reproduce both exactly (==, not
// within a tolerance): max delay, every net's worst arrival and every
// critical-path field.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "sta/sta.hpp"
#include "sta/variation.hpp"
#include "synth/components.hpp"
#include "util/rng.hpp"

namespace aapx {
namespace {

constexpr double kNever = -std::numeric_limits<double>::infinity();

struct SplitTiming {
  std::vector<double> rise;  ///< per net
  std::vector<double> fall;
  double max_delay = 0.0;
  std::vector<PathStep> path;  ///< PI-side first
};

/// Rise/fall propagation with per-net back-pointers, as Sta ran it with
/// four per-net vectors.
SplitTiming split_propagation(const Netlist& nl, const Sta::GateDelays& gd) {
  struct BackPointer {
    GateId gate = kInvalidGate;
    int pin = -1;
    bool input_rising = false;
  };
  const std::size_t nets = nl.num_nets();
  SplitTiming t;
  t.rise.assign(nets, kNever);
  t.fall.assign(nets, kNever);
  std::vector<BackPointer> from_rise(nets);
  std::vector<BackPointer> from_fall(nets);
  for (const NetId pi : nl.inputs()) {
    t.rise[pi] = 0.0;
    t.fall[pi] = 0.0;
  }
  for (const GateId gid : nl.topo_order()) {
    const Gate& g = nl.gate(gid);
    for (int p = 0; p < nl.gate_num_inputs(gid); ++p) {
      const NetId in = g.fanin[static_cast<std::size_t>(p)];
      for (const bool input_rising : {false, true}) {
        const double at = input_rising ? t.rise[in] : t.fall[in];
        if (at == kNever) continue;
        if (at + gd.rise[gid] > t.rise[g.fanout]) {
          t.rise[g.fanout] = at + gd.rise[gid];
          from_rise[g.fanout] = {gid, p, input_rising};
        }
        if (at + gd.fall[gid] > t.fall[g.fanout]) {
          t.fall[g.fanout] = at + gd.fall[gid];
          from_fall[g.fanout] = {gid, p, input_rising};
        }
      }
    }
  }
  std::size_t crit_po = 0;
  bool rising = true;
  for (std::size_t i = 0; i < nl.outputs().size(); ++i) {
    const NetId po = nl.outputs()[i];
    const double worst = std::max({t.rise[po], t.fall[po], 0.0});
    if (worst > t.max_delay) {
      t.max_delay = worst;
      crit_po = i;
      rising = t.rise[po] >= t.fall[po];
    }
  }
  if (t.max_delay > 0.0) {
    NetId net = nl.outputs()[crit_po];
    while (true) {
      const BackPointer& b = rising ? from_rise[net] : from_fall[net];
      if (b.gate == kInvalidGate) break;
      t.path.push_back(
          {b.gate, b.pin, rising, rising ? t.rise[net] : t.fall[net]});
      net = nl.gate(b.gate).fanin[static_cast<std::size_t>(b.pin)];
      rising = b.input_rising;
    }
    std::reverse(t.path.begin(), t.path.end());
  }
  return t;
}

/// The Monte-Carlo sampler's former private longest-path pass: worst input
/// over both edges, then separate rise and fall outputs.
double sampler_reference_delay(const Netlist& nl, const Sta::GateDelays& gd) {
  std::vector<double> rise(nl.num_nets(), kNever);
  std::vector<double> fall(nl.num_nets(), kNever);
  for (const NetId pi : nl.inputs()) {
    rise[pi] = 0.0;
    fall[pi] = 0.0;
  }
  for (const GateId gid : nl.topo_order()) {
    const Gate& g = nl.gate(gid);
    double worst_in = kNever;
    for (int p = 0; p < nl.gate_num_inputs(gid); ++p) {
      const NetId in = g.fanin[static_cast<std::size_t>(p)];
      worst_in = std::max({worst_in, rise[in], fall[in]});
    }
    if (worst_in == kNever) continue;
    rise[g.fanout] = std::max(rise[g.fanout], worst_in + gd.rise[gid]);
    fall[g.fanout] = std::max(fall[g.fanout], worst_in + gd.fall[gid]);
  }
  double worst = 0.0;
  for (const NetId po : nl.outputs()) {
    worst = std::max({worst, rise[po], fall[po]});
  }
  return worst;
}

/// MonteCarloSta's samples recomputed with the reference pass over the
/// same factor draws (one global, then one local factor per gate, per die).
std::vector<double> reference_samples(const Netlist& nl,
                                      const Sta::GateDelays& base,
                                      const VariationParams& params,
                                      int samples) {
  Rng rng(params.seed);
  const auto lognormal = [&](double sigma) {
    return std::exp(sigma * rng.next_normal() - 0.5 * sigma * sigma);
  };
  std::vector<double> out;
  for (int s = 0; s < samples; ++s) {
    const double global = lognormal(params.global_sigma);
    Sta::GateDelays die = base;
    for (std::size_t g = 0; g < base.rise.size(); ++g) {
      const double factor = global * lognormal(params.local_sigma);
      die.rise[g] = base.rise[g] * factor;
      die.fall[g] = base.fall[g] * factor;
    }
    out.push_back(sampler_reference_delay(nl, die));
  }
  std::sort(out.begin(), out.end());
  return out;
}

void expect_matches_split(const Netlist& nl, const StaResult& res,
                          const Sta::GateDelays& gd, const std::string& what) {
  const SplitTiming ref = split_propagation(nl, gd);
  EXPECT_EQ(res.max_delay, ref.max_delay) << what;
  ASSERT_EQ(res.arrival.size(), nl.num_nets()) << what;
  std::size_t wrong = 0;
  for (std::size_t n = 0; n < nl.num_nets(); ++n) {
    if (res.arrival[n] != std::max(ref.rise[n], ref.fall[n])) ++wrong;
  }
  EXPECT_EQ(wrong, 0u) << what << ": nets whose worst arrival differs";
  const std::vector<PathStep> path = critical_path(nl, gd, res.arrival);
  ASSERT_EQ(path.size(), ref.path.size()) << what;
  for (std::size_t i = 0; i < ref.path.size(); ++i) {
    const PathStep& got = path[i];
    const PathStep& want = ref.path[i];
    EXPECT_EQ(got.gate, want.gate) << what << " step " << i;
    EXPECT_EQ(got.input_pin, want.input_pin) << what << " step " << i;
    EXPECT_EQ(got.output_rising, want.output_rising) << what << " step " << i;
    EXPECT_EQ(got.arrival, want.arrival) << what << " step " << i;
  }
}

class StaOracleTest : public ::testing::Test {
 protected:
  CellLibrary lib_ = make_nangate45_like();
};

TEST_F(StaOracleTest, EveryGeneratorFreshAndAgedMatchesSplitPropagation) {
  const AgingModel bti_model;
  AgingParams hci_params;
  hci_params.mechanisms = {MechanismKind::bti, MechanismKind::hci};
  const AgingModel hci_model(hci_params);
  const DegradationAwareLibrary bti_lib(lib_, bti_model, 10.0);
  const DegradationAwareLibrary hci_lib(lib_, hci_model, 10.0);

  for (const ComponentKind kind :
       {ComponentKind::adder, ComponentKind::multiplier, ComponentKind::mac,
        ComponentKind::clamp}) {
    for (const AdderArch adder :
         {AdderArch::ripple, AdderArch::cla4, AdderArch::kogge_stone}) {
      for (const MultArch mult : {MultArch::array, MultArch::wallace}) {
        for (const int width : {10, 16}) {
          for (const int truncated : {0, 3}) {
            const Netlist nl =
                make_component(lib_, {kind, width, truncated, adder, mult});
            const std::size_t n = nl.num_gates();
            Rng rng(n);
            std::vector<double> duty(n);
            for (double& d : duty) d = rng.next_double();
            const StressProfile worst =
                StressProfile::uniform(StressMode::worst, n);
            const StressProfile balanced =
                StressProfile::uniform(StressMode::balanced, n);
            const StressProfile measured = StressProfile::measured(duty);

            const Sta sta(nl);
            const std::string what = to_string(kind) + " " +
                                     to_string(adder) + "/" + to_string(mult) +
                                     " w" + std::to_string(width) + " t" +
                                     std::to_string(truncated);
            expect_matches_split(nl, sta.run_fresh(),
                                 sta.gate_delays(nullptr, nullptr),
                                 what + " fresh");
            for (const DegradationAwareLibrary* aged : {&bti_lib, &hci_lib}) {
              for (const StressProfile* stress :
                   {&worst, &balanced, &measured}) {
                expect_matches_split(nl, sta.run_aged(*aged, *stress),
                                     sta.gate_delays(aged, stress),
                                     what + " aged");
              }
            }
          }
        }
      }
    }
  }
}

/// The library with every arc's fall table replaced by its rise table: each
/// gate's rise and fall delays are equal, so both edges of every net arrive
/// together and every step of the walk-back meets an edge tie.
CellLibrary rise_equals_fall(const CellLibrary& lib) {
  CellLibrary flat;
  for (Cell cell : lib.cells()) {
    for (TimingArc& arc : cell.arcs) arc.fall_delay = arc.rise_delay;
    flat.add(std::move(cell));
  }
  flat.set_dff(lib.dff());
  return flat;
}

TEST_F(StaOracleTest, TiesAndConstantsFollowTheFirstLaterArrivalRule) {
  // Equal-delay reconvergent paths, a net read on both pins of one gate, a
  // gate fed only by constants and a gate mixing it with a live net: every
  // tie in the walk-back must resolve to the same pin and edge as the split
  // propagation's first strictly later arrival.
  CellLibrary flat = rise_equals_fall(lib_);
  for (const CellLibrary* lib : {&lib_, &flat}) {
    Netlist nl(*lib);
    const NetId a = nl.add_input("a");
    const NetId b = nl.add_input("b");
    const NetId na = nl.mk(LogicFn::kInv, a);
    const NetId nb = nl.mk(LogicFn::kInv, b);
    const NetId both = nl.mk(LogicFn::kNand2, na, nb);
    const NetId same = nl.mk(LogicFn::kXor2, both, both);
    const NetId dead = nl.mk(LogicFn::kAnd2, nl.const0(), nl.const1());
    const NetId mixed = nl.mk(LogicFn::kOr2, dead, same);
    nl.mark_output(mixed, "y");
    nl.mark_output(nl.mk(LogicFn::kNand2, nb, na), "z");
    nl.mark_output(dead, "k");

    const Sta sta(nl);
    const StaResult res = sta.run_fresh();
    expect_matches_split(nl, res, sta.gate_delays(nullptr, nullptr), "small");
    EXPECT_EQ(res.arrival[dead], kNever);
  }

  // Every generator with rise == fall: edge ties all along every path.
  for (const ComponentKind kind :
       {ComponentKind::adder, ComponentKind::multiplier, ComponentKind::mac,
        ComponentKind::clamp}) {
    for (const AdderArch adder :
         {AdderArch::ripple, AdderArch::cla4, AdderArch::kogge_stone}) {
      for (const MultArch mult : {MultArch::array, MultArch::wallace}) {
        const Netlist nl = make_component(flat, {kind, 10, 0, adder, mult});
        const Sta sta(nl);
        expect_matches_split(nl, sta.run_fresh(),
                             sta.gate_delays(nullptr, nullptr),
                             to_string(kind) + " " + to_string(adder) + "/" +
                                 to_string(mult) + " rise == fall");
      }
    }
  }
}

TEST_F(StaOracleTest, MonteCarloSamplesMatchTheReferencePass) {
  const AgingModel model;
  const DegradationAwareLibrary aged(lib_, model, 10.0);
  VariationParams params;
  params.seed = 7;
  constexpr int kSamples = 70;  // more than one 64-die block
  for (const ComponentKind kind :
       {ComponentKind::adder, ComponentKind::multiplier, ComponentKind::mac,
        ComponentKind::clamp}) {
    for (const MultArch mult : {MultArch::array, MultArch::wallace}) {
      const Netlist nl =
          make_component(lib_, {kind, 10, 0, AdderArch::cla4, mult});
      const StressProfile stress =
          StressProfile::uniform(StressMode::worst, nl.num_gates());
      const Sta sta(nl);
      const MonteCarloSta mc(nl, params);
      const std::string what = to_string(kind) + " " + to_string(mult);
      EXPECT_EQ(mc.run_fresh(kSamples).samples,
                reference_samples(nl, sta.gate_delays(nullptr, nullptr),
                                  params, kSamples))
          << what << " fresh";
      EXPECT_EQ(mc.run_aged(aged, stress, kSamples).samples,
                reference_samples(nl, sta.gate_delays(&aged, &stress), params,
                                  kSamples))
          << what << " aged";
    }
  }
}

}  // namespace
}  // namespace aapx
