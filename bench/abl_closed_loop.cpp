// Extension — closed-loop degradation runtime vs. the open-loop schedule,
// measured where it matters: delivered image quality over the lifetime.
//
// Both loops run the same faulted plant (ΔVth acceleration, a mid-life
// thermal excursion, a biased noisy aging sensor). The open loop walks the
// precomputed schedule by wall-clock age and keeps sampling wrong sums to
// end of life; the closed loop sees only its monitor, sensor, and
// verification bursts, steps down early on the canary warning, and holds
// PSNR at the truncation-limited value with zero timing errors.
#include <cstdio>
#include <iostream>
#include <memory>

#include "common.hpp"
#include "image/synthetic.hpp"
#include "runtime/runtime.hpp"

using namespace aapx;
using namespace aapx::bench;

namespace {

/// Exact multiplier + gate-accurate timed adder: the campaign plant dropped
/// into the IDCT accumulator, so truncation loss AND sampled timing errors
/// both land in the decoded image.
class TimedAdderBackend final : public ArithBackend {
 public:
  TimedAdderBackend(const Netlist& adder, Sta::GateDelays delays, int width,
                    double t_clock_ps, DelayModel model)
      : exact_(width, 0, 0),
        sim_(adder, std::move(delays), model),
        a_pis_(sim_.resolve_stage(adder.input_bus("a"))),
        b_pis_(sim_.resolve_stage(adder.input_bus("b"))),
        y_nets_(&adder.output_bus("y")),
        width_(width),
        t_clock_(t_clock_ps) {}

  std::int64_t multiply(std::int64_t a, std::int64_t b) override {
    return exact_.multiply(a, b);
  }

  std::int64_t add(std::int64_t a, std::int64_t b) override {
    const std::uint64_t mask = (std::uint64_t{1} << width_) - 1;
    sim_.stage_resolved(a_pis_, static_cast<std::uint64_t>(a) & mask);
    sim_.stage_resolved(b_pis_, static_cast<std::uint64_t>(b) & mask);
    if (sim_.step_staged(t_clock_)) ++errors_;
    return wrap_signed(static_cast<std::int64_t>(sim_.sampled_word(*y_nets_)),
                       width_);
  }

  int width() const override { return width_; }
  std::uint64_t errors() const noexcept { return errors_; }
  std::uint64_t sim_events() const noexcept { return sim_.events_processed(); }

 private:
  ExactBackend exact_;
  TimedSim sim_;
  const std::vector<NetId> a_pis_;
  const std::vector<NetId> b_pis_;
  const std::vector<NetId>* y_nets_;
  int width_;
  double t_clock_;
  std::uint64_t errors_ = 0;
};

struct EpochDecode {
  double psnr_db = 0.0;
  std::uint64_t sim_events = 0;
};

/// Decodes the reference frame through the epoch's plant state.
EpochDecode epoch_psnr(const Config& cfg, const ClosedLoopRuntime& runtime,
                       const FaultInjector& faults, const EpochReport& epoch,
                       double t_clock, const Image& img,
                       const QuantizedImage& coded) {
  const Netlist& adder = runtime.netlist_for(epoch.precision);
  TimedAdderBackend be(
      adder,
      faults.true_delays(adder, runtime.options().stress, epoch.years,
                         runtime.options().sta),
      cfg.codec().width, t_clock, runtime.options().delay_model);
  FixedPointIdct idct(cfg.codec(), be);
  const double db = psnr(img, idct.decode(coded));
  return {db, be.sim_events()};
}

}  // namespace

namespace {

int run(int argc, char** argv) {
  print_banner("Extension — closed-loop runtime vs. open-loop schedule",
               "Fault-injection campaign: PSNR over lifetime when reality "
               "deviates from the calibrated aging model.");
  BenchJson bench_json("abl_closed_loop", argc, argv);
  Config cfg;
  const bool fast = fast_mode(argc, argv);
  const int frame = arg_int(argc, argv, "--size", fast ? 16 : 32);

  RuntimeOptions ropt;
  ropt.component = {ComponentKind::adder, 32, 0, AdderArch::ripple,
                    MultArch::array};
  ropt.min_precision = 22;
  const ClosedLoopRuntime runtime(bench_context(), cfg.lib, cfg.model, ropt);

  FaultScenario fault;
  fault.aging_acceleration = 1.5;
  fault.sensor_gain = 0.6;
  fault.sensor_noise_sigma_years = 0.2;
  fault.temp_step_kelvin = 20.0;
  fault.temp_step_from_years = 5.0;
  const FaultInjector faults(bench_context(), cfg.lib, cfg.model, fault);

  CampaignOptions copt;
  copt.epochs = fast ? 8 : 16;
  copt.vectors_per_epoch = 96;
  copt.verify_vectors = 48;
  copt.monitor.window = copt.vectors_per_epoch;
  copt.monitor.canary_margin = 0.97;
  copt.monitor.canary_trip = 2;

  CampaignOptions open_opt = copt;
  open_opt.closed_loop = false;
  // The open- and closed-loop campaigns share the runtime's (mutexed) caches
  // but are otherwise independent plants — run the pair concurrently.
  CampaignResult campaigns[2];
  bench_context().parallel_for(2, [&](std::size_t i) {
    campaigns[i] = runtime.run(faults, i == 0 ? open_opt : copt);
  });
  const CampaignResult& open = campaigns[0];
  const CampaignResult& closed = campaigns[1];

  const Image img = make_video_trace_frame("foreman", frame, frame);
  const QuantizedImage coded = encode_and_quantize(img, cfg.codec());
  {
    ExactBackend be(cfg.codec().width, 0, 0);
    FixedPointIdct idct(cfg.codec(), be);
    std::printf("plant: %s, constraint %.1f ps, fresh exact decode %.1f dB; "
                "faults: dVth x%.1f, +%.0f K from %.0f y, sensor gain %.1f\n\n",
                ropt.component.name().c_str(), closed.timing_constraint,
                psnr(img, idct.decode(coded)), fault.aging_acceleration,
                fault.temp_step_kelvin, fault.temp_step_from_years,
                fault.sensor_gain);
  }

  // Per-epoch image decodes are independent: each owns its TimedSim plant,
  // so the 2 x epochs PSNR grid fans out over the pool into indexed slots.
  const std::size_t n_epochs = open.epochs.size();
  std::vector<EpochDecode> decodes(2 * n_epochs);
  bench_context().parallel_for(2 * n_epochs, [&](std::size_t i) {
    const bool is_open = i < n_epochs;
    const CampaignResult& campaign = is_open ? open : closed;
    decodes[i] = epoch_psnr(cfg, runtime, faults,
                            campaign.epochs[is_open ? i : i - n_epochs],
                            campaign.timing_constraint, img, coded);
  });

  TextTable table({"age [y]", "open K", "open errs", "open PSNR [dB]",
                   "closed K", "closed errs", "closed PSNR [dB]"});
  std::uint64_t decode_events = 0;
  for (const EpochDecode& d : decodes) decode_events += d.sim_events;
  for (std::size_t i = 0; i < n_epochs; ++i) {
    const EpochReport& eo = open.epochs[i];
    const EpochReport& ec = closed.epochs[i];
    table.add_row(
        {TextTable::num(eo.years, 2), std::to_string(eo.precision),
         std::to_string(eo.errors), TextTable::num(decodes[i].psnr_db, 1),
         std::to_string(ec.precision), std::to_string(ec.errors),
         TextTable::num(decodes[n_epochs + i].psnr_db, 1)});
  }
  table.print(std::cout);

  std::printf("\ncontroller log:\n");
  for (const ControlEvent& e : closed.events) {
    std::printf("  %s\n", to_string(e).c_str());
  }
  std::printf(
      "\nopen loop: %llu timing errors over life, still failing at end of "
      "life; closed loop: %llu errors (only in the epochs where a fault "
      "first landed), %zu committed reconfigurations, converged %s at "
      "precision %d.\n",
      static_cast<unsigned long long>(open.total_errors),
      static_cast<unsigned long long>(closed.total_errors),
      closed.reconfigurations,
      closed.converged_clean() ? "clean" : "DIRTY", closed.final_precision);

  bench_json.add_events(decode_events);
  bench_json.metric("campaign_vectors", static_cast<double>(
                                            open.total_vectors +
                                            closed.total_vectors));
  bench_json.metric("open_errors", static_cast<double>(open.total_errors));
  bench_json.metric("closed_errors", static_cast<double>(closed.total_errors));
  bench_json.metric("final_precision",
                    static_cast<double>(closed.final_precision));
  return closed.converged_clean() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return aapx::bench::guarded_main(argc, argv,
                                   [&] { return run(argc, argv); });
}
