// Fault-injection campaign: the acceptance scenario for the closed-loop
// degradation runtime.
//
// Plant faults: the die accumulates 1.5x the modeled ΔVth (process outlier /
// workload dependency), suffers a +20 K thermal excursion from mid-life on,
// and its aging sensor under-reports by 40% with noisy readings. The
// open-loop plan — walk the precomputed schedule by wall-clock age — samples
// wrong results both early (the planned first step is already infeasible on
// this die) and at end of life (the thermal excursion erodes the remaining
// margin). The closed loop, seeing only the monitor, the biased sensor, and
// its own verification bursts, converges to a verified precision step and
// samples zero timing errors after the first adaptation.
#include "runtime/runtime.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "cell/library.hpp"
#include "engine/context.hpp"
#include "obs/metrics.hpp"

namespace aapx {
namespace {

class ClosedLoopCampaignTest : public ::testing::Test {
 protected:
  ClosedLoopCampaignTest() : lib_(make_nangate45_like()) {
    options_.component = {ComponentKind::adder, 16, 0, AdderArch::ripple,
                          MultArch::array};
    options_.min_precision = 6;
    options_.schedule_grid = {0.5, 1.0, 2.0, 5.0, 10.0};
    runtime_ =
        std::make_unique<ClosedLoopRuntime>(ctx_, lib_, AgingModel{}, options_);

    campaign_.lifetime_years = 10.0;
    campaign_.epochs = 16;
    campaign_.vectors_per_epoch = 96;
    campaign_.verify_vectors = 48;
    // The monitor sees a whole epoch; the canary samples 3% early and two
    // guard-zone settles raise the warning.
    campaign_.monitor.window = 96;
    campaign_.monitor.canary_margin = 0.97;
    campaign_.monitor.canary_trip = 2;
  }

  static FaultScenario acceptance_scenario() {
    FaultScenario f;
    f.aging_acceleration = 1.5;
    f.sensor_gain = 0.6;
    f.sensor_noise_sigma_years = 0.2;
    f.temp_step_kelvin = 20.0;
    f.temp_step_from_years = 5.0;
    return f;
  }

  const Context ctx_;
  CellLibrary lib_;
  RuntimeOptions options_;
  CampaignOptions campaign_;
  std::unique_ptr<ClosedLoopRuntime> runtime_;
};

TEST_F(ClosedLoopCampaignTest, NominalLifeIsCleanForBothLoops) {
  const FaultInjector nominal(ctx_, lib_, AgingModel{},
                              FaultScenario::nominal());

  CampaignOptions open = campaign_;
  open.closed_loop = false;
  const CampaignResult r_open = runtime_->run(nominal, open);
  EXPECT_EQ(r_open.total_errors, 0u);
  EXPECT_TRUE(r_open.converged_clean());

  const CampaignResult r_closed = runtime_->run(nominal, campaign_);
  EXPECT_EQ(r_closed.total_errors, 0u);
  EXPECT_TRUE(r_closed.converged_clean());
  // The loop may take a defensive canary step (the planner runs segments at
  // >99% clock utilization), but it must stay within one step of the plan.
  EXPECT_GE(r_closed.final_precision,
            runtime_->schedule().steps.back().precision - 1);
  EXPECT_LE(r_closed.reconfigurations, r_open.reconfigurations + 1);
}

TEST_F(ClosedLoopCampaignTest, OpenLoopCollapsesUnderAcceptanceScenario) {
  const FaultInjector faults(ctx_, lib_, AgingModel{}, acceptance_scenario());
  CampaignOptions open = campaign_;
  open.closed_loop = false;
  const CampaignResult r = runtime_->run(faults, open);

  // The fixed schedule samples wrong results on this die...
  EXPECT_GT(r.total_errors, 0u);
  // ...and is still failing at end of life (the thermal excursion erodes the
  // last planned step's margin — this is not a transient).
  EXPECT_GT(r.epochs.back().errors, 0u);
  EXPECT_FALSE(r.converged_clean());
}

TEST_F(ClosedLoopCampaignTest, ClosedLoopConvergesUnderAcceptanceScenario) {
  const FaultInjector faults(ctx_, lib_, AgingModel{}, acceptance_scenario());
  const CampaignResult closed = runtime_->run(faults, campaign_);

  CampaignOptions open_opt = campaign_;
  open_opt.closed_loop = false;
  const CampaignResult open = runtime_->run(faults, open_opt);

  // Converged: zero sampled timing errors once the first adaptation landed.
  EXPECT_TRUE(closed.converged_clean());
  for (std::size_t i = 1; i < closed.epochs.size(); ++i) {
    EXPECT_EQ(closed.epochs[i].errors, 0u)
        << "epoch " << closed.epochs[i].epoch << " not clean";
  }
  // Bounded adaptation: a handful of committed reconfigurations, not a hunt.
  EXPECT_GE(closed.reconfigurations, 1u);
  EXPECT_LE(closed.reconfigurations, 4u);
  EXPECT_GE(closed.final_precision, options_.min_precision);

  // Strictly better than the open loop on the same die.
  EXPECT_LT(closed.total_errors, open.total_errors);

  // The canary fired while outputs were still correct: some committed
  // step-down was triggered by the early warning with a zero error rate in
  // the window.
  const bool canary_led = std::any_of(
      closed.events.begin(), closed.events.end(), [](const ControlEvent& e) {
        return e.trigger == ControlTrigger::canary_warning &&
               e.outcome == ControlOutcome::committed &&
               e.window_error_rate == 0.0;
      });
  EXPECT_TRUE(canary_led);

  // Every committed step was verified against the constraint model-side.
  for (const ControlEvent& e : closed.events) {
    if (e.outcome == ControlOutcome::committed) {
      EXPECT_LE(e.verified_sta_delay, closed.timing_constraint + 1e-9);
    }
  }
}

TEST_F(ClosedLoopCampaignTest, SensorScheduleAloneHandlesPureAcceleration) {
  // Without the thermal excursion the sensor-indexed schedule is enough:
  // the controller lands on the end-of-life precision early and stays clean.
  FaultScenario f;
  f.aging_acceleration = 1.5;
  f.sensor_gain = 0.6;
  f.sensor_noise_sigma_years = 0.2;
  const FaultInjector faults(ctx_, lib_, AgingModel{}, f);

  const CampaignResult closed = runtime_->run(faults, campaign_);
  EXPECT_TRUE(closed.converged_clean());
  EXPECT_EQ(closed.errors_in_last(closed.epochs.size() - 1), 0u);
}

TEST_F(ClosedLoopCampaignTest, HazardCrossingFailsOverToTheSpare) {
  // Wear-out (EM/TDDB) is the consequence class precision fallback cannot
  // absorb: with an aggressive electromigration scale the cumulative hazard
  // crosses the configured threshold mid-campaign and the loop hands the
  // datapath to the spare instead of hunting for a lower precision.
  AgingParams params;
  params.mechanisms = {MechanismKind::bti, MechanismKind::em,
                       MechanismKind::tddb};
  params.em.eta_ref_years = 3.0;
  const AgingModel model(params);
  ClosedLoopRuntime runtime(ctx_, lib_, model, options_);
  CampaignOptions campaign = campaign_;
  campaign.controller.hazard_failover_threshold = 0.5;
  const FaultInjector nominal(ctx_, lib_, model, FaultScenario::nominal());
  const CampaignResult r = runtime.run(nominal, campaign);

  EXPECT_TRUE(r.failed_over);
  EXPECT_GT(r.failover_epoch, 0);
  // The campaign stops at the crossing — no epochs run on a dead part.
  EXPECT_EQ(r.epochs.size(), static_cast<std::size_t>(r.failover_epoch));
  ASSERT_FALSE(r.events.empty());
  EXPECT_EQ(r.events.back().trigger, ControlTrigger::hazard_crossing);
  EXPECT_EQ(r.events.back().outcome, ControlOutcome::failover);

  // The same threshold under the default drift-only model never fails over:
  // BTI/HCI drift stays on the precision-fallback path.
  CampaignOptions armed = campaign_;
  armed.controller.hazard_failover_threshold = 0.5;
  const FaultInjector drift_only(ctx_, lib_, AgingModel{},
                                 FaultScenario::nominal());
  const CampaignResult r2 = runtime_->run(drift_only, armed);
  EXPECT_FALSE(r2.failed_over);
  EXPECT_EQ(r2.epochs.size(), static_cast<std::size_t>(campaign_.epochs));
}

TEST_F(ClosedLoopCampaignTest, FailoverIsCountedInTheRuntimesContext) {
  // A runtime on a Context with a private registry counts its failover
  // decisions there, not in the process registry.
  AgingParams params;
  params.mechanisms = {MechanismKind::bti, MechanismKind::em,
                       MechanismKind::tddb};
  params.em.eta_ref_years = 3.0;
  const AgingModel model(params);
  const ClosedLoopRuntime runtime(ctx_, lib_, model, options_);
  CampaignOptions campaign = campaign_;
  campaign.controller.hazard_failover_threshold = 0.5;
  const FaultInjector nominal(ctx_, lib_, model, FaultScenario::nominal());
  const char* name = "aging.controller.failover_decisions";
  const std::uint64_t process_before = obs::metrics().counter(name).value();

  const CampaignResult r = runtime.run(nominal, campaign);

  ASSERT_TRUE(r.failed_over);
  EXPECT_EQ(ctx_.metrics().counter(name).value(), 1u);
  EXPECT_EQ(obs::metrics().counter(name).value(), process_before);
}

TEST_F(ClosedLoopCampaignTest, ValidatesCampaignOptions) {
  const FaultInjector nominal(ctx_, lib_, AgingModel{},
                              FaultScenario::nominal());
  CampaignOptions bad = campaign_;
  bad.epochs = 0;
  EXPECT_THROW(runtime_->run(nominal, bad), std::invalid_argument);
  bad = campaign_;
  bad.lifetime_years = -1.0;
  EXPECT_THROW(runtime_->run(nominal, bad), std::invalid_argument);
  bad = campaign_;
  bad.vectors_per_epoch = 0;
  EXPECT_THROW(runtime_->run(nominal, bad), std::invalid_argument);
}

TEST_F(ClosedLoopCampaignTest, ValidatesRuntimeOptions) {
  RuntimeOptions bad = options_;
  bad.component.truncated_bits = 2;
  EXPECT_THROW(ClosedLoopRuntime(ctx_, lib_, AgingModel{}, bad),
               std::invalid_argument);
  bad = options_;
  bad.min_precision = 0;
  EXPECT_THROW(ClosedLoopRuntime(ctx_, lib_, AgingModel{}, bad),
               std::invalid_argument);
  bad = options_;
  bad.stress = StressMode::measured;
  EXPECT_THROW(ClosedLoopRuntime(ctx_, lib_, AgingModel{}, bad),
               std::invalid_argument);
}

}  // namespace
}  // namespace aapx
