// Ablation (DESIGN.md) — lifetime impact of aging-induced approximation.
//
// The paper argues precision fallback buys timing slack that absorbs aging
// drift. This bench quantifies the claim as MTTF: a Monte-Carlo over a
// workload phase trace (idle / nominal / burst / thermal-soak) under the
// full multi-mechanism model (BTI + HCI drift, EM + TDDB wear-out), run
// twice with tolerable delay factors derived from a real characterization
// surface —
//
//   * without approximation: the die fails when drift consumes the base
//     speed-bin guardband at full precision, and
//   * with approximation: the guardband is widened by the measured fresh
//     full-vs-truncated delay ratio at the Eq.-2 required precision (the
//     slack the precision step actually buys on this component).
//
// Hard failures (EM/TDDB) are competing risks that no precision step can
// absorb, so they bound the achievable MTTF gain — the honest version of
// the claim. The MC is deterministic at any thread count (see
// aging/lifetime.hpp), so dies/phases/failure splits and the checksum are
// CI-regression fields; the MTTF means are informational.
#include <cstdio>
#include <iostream>

#include "aging/lifetime.hpp"
#include "common.hpp"
#include "core/characterizer.hpp"

using namespace aapx;
using namespace aapx::bench;

namespace {

std::string hex64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

int run(int argc, char** argv) {
  print_banner("Ablation — lifetime (MTTF) with vs without aging-induced "
               "approximation",
               "Monte-Carlo over a workload phase trace under the "
               "BTI+HCI+EM+TDDB model; the approximation run widens the "
               "drift guardband by the measured truncation slack.");
  BenchJson bench_json("abl_lifetime", argc, argv);
  Config cfg;

  AgingParams params;
  params.mechanisms = {MechanismKind::bti, MechanismKind::hci,
                       MechanismKind::em, MechanismKind::tddb};
  const AgingModel model(params);

  // Slack bought by approximation: characterize the paper's 32-bit adder,
  // find the Eq.-2 required precision for 10Y worst-case, and take the fresh
  // full-vs-truncated delay ratio at that precision.
  const ComponentCharacterizer characterizer(bench_context(), cfg.lib, model,
                                             {});
  const auto adder =
      characterizer.characterize(cfg.adder32(), {{StressMode::worst, 10.0}});
  int k = adder.required_precision(0);
  if (k < 0) k = adder.points.back().precision;
  const double slack_ratio =
      adder.full_fresh_delay() / adder.at_precision(k).fresh_delay;

  // Base speed-bin guardband at full precision (fraction of the fresh clock
  // the binning leaves for degradation).
  const double guardband = arg_double(argc, argv, "--guardband", 0.06);

  // A service-life trace: mostly nominal operation, bracketed by an idle
  // burn-in, a high-activity burst span (HCI/EM heavy) and a hot low-toggle
  // soak span (TDDB heavy).
  const std::vector<WorkloadPhase> trace = {
      {2.0, 0.15, 0.05, 328.15},   // idle burn-in: cool, little switching
      {10.0, 0.50, 0.45, 358.15},  // nominal
      {5.0, 0.75, 0.90, 368.15},   // burst: hot and toggle-heavy
      {3.0, 0.50, 0.25, 388.15},   // thermal soak: hottest, field stress
  };

  LifetimeOptions opts;
  opts.dies = arg_int(argc, argv, "--dies", fast_mode(argc, argv) ? 64 : 256);
  opts.seed = 1;
  opts.threads = bench_context().num_threads();

  opts.tolerable_delay_factor = 1.0 + guardband;
  const LifetimeResult noapprox = simulate_lifetime(model, trace, opts);

  opts.tolerable_delay_factor = (1.0 + guardband) * slack_ratio;
  const LifetimeResult approx = simulate_lifetime(model, trace, opts);

  std::printf("adder32 required precision (10Y WC): %d bits, truncation "
              "slack ratio %.4f\n\n",
              k, slack_ratio);

  TextTable table({"run", "tolerable factor", "MTTF [y]", "drift", "hard",
                   "censored"});
  table.add_row({"no approximation",
                 TextTable::num(1.0 + guardband, 4),
                 TextTable::num(noapprox.mttf_years, 2),
                 std::to_string(noapprox.drift_failures),
                 std::to_string(noapprox.hard_failures),
                 std::to_string(noapprox.censored)});
  table.add_row({"aging-induced approx",
                 TextTable::num((1.0 + guardband) * slack_ratio, 4),
                 TextTable::num(approx.mttf_years, 2),
                 std::to_string(approx.drift_failures),
                 std::to_string(approx.hard_failures),
                 std::to_string(approx.censored)});
  table.print(std::cout);
  std::printf("\n(%d dies over a %.0f-year 4-phase trace; MTTF censored at "
              "the horizon, so hard wear-out bounds the approximation gain)\n",
              noapprox.dies, noapprox.horizon_years);

  bench_json.metric("dies", static_cast<double>(noapprox.dies));
  bench_json.metric("phases", static_cast<double>(noapprox.phases));
  bench_json.metric("required_precision", static_cast<double>(k));
  bench_json.metric("slack_ratio", slack_ratio);
  bench_json.metric("mttf_noapprox_years", noapprox.mttf_years);
  bench_json.metric("mttf_approx_years", approx.mttf_years);
  bench_json.metric("drift_failures_noapprox",
                    static_cast<double>(noapprox.drift_failures));
  bench_json.metric("hard_failures_noapprox",
                    static_cast<double>(noapprox.hard_failures));
  bench_json.metric("drift_failures_approx",
                    static_cast<double>(approx.drift_failures));
  bench_json.metric("hard_failures_approx",
                    static_cast<double>(approx.hard_failures));
  bench_json.metric("mttf_checksum",
                    hex64(noapprox.checksum) + ":" + hex64(approx.checksum));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return aapx::bench::guarded_main(argc, argv,
                                   [&] { return run(argc, argv); });
}
