// aapx — command-line front end to the aging-induced-approximation flow.
//
//   aapx characterize --kind adder --width 32 --arch cla4 --years 1,10
//   aapx flow --width 32 --years 10 --mode worst
//   aapx schedule --kind multiplier --width 32 --grid 0.5,1,2,5,10
//   aapx export-liberty [--years 10 --stress worst] --out lib.lib
//   aapx export-verilog --kind adder --width 16 --trunc 4 --out adder.v
//   aapx export-sdf --kind adder --width 16 [--years 10] --out adder.sdf
//   aapx faultsim --width 16 --arch ripple --accel 1.5 --sensor-gain 0.6
//   aapx faultsim ... --log run.jsonl --trace run.trace --metrics run.json
//   aapx report --log run.jsonl --trace run.trace --metrics run.json
//   aapx serve --listen tcp:7471 --store lib.aapx --snapshot-interval 30
//   aapx client --connect tcp:7471 --op characterize --width 16
//   aapx servesim --scenario all
//
// Every subcommand builds the generated NanGate-45-like library and the
// calibrated BTI model; see `aapx help` for the full option list.
//
// Signal discipline: SIGINT/SIGTERM trip a process-wide CancelToken that
// long-running flows (characterize sweeps, faultsim epochs) check
// cooperatively. The interrupted run saves its warmed --store snapshot,
// prints a one-line diagnostic and exits 128+signum — never a lost store,
// never a torn file (snapshots are temp+rename). `aapx serve` instead
// drains gracefully and exits 0: shutdown is its normal lifecycle.
//
// Global instrumentation options (any subcommand):
//   --trace <file>    Chrome trace-event JSON (load in Perfetto)
//   --metrics <file>  metrics-registry snapshot as JSON
//   --log <file>      structured JSONL run log (manifest + flow records)
#include <signal.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "aging/aging_model.hpp"
#include "cell/liberty.hpp"
#include "core/adaptive.hpp"
#include "engine/binio.hpp"
#include "engine/context.hpp"
#include "engine/design_store.hpp"
#include "engine/persist.hpp"
#include "core/microarch.hpp"
#include "netlist/stats.hpp"
#include "netlist/verilog.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/runlog.hpp"
#include "obs/trace.hpp"
#include "runtime/runtime.hpp"
#include "service/chaos.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "sta/sdf.hpp"
#include "util/parallel.hpp"
#include "util/table.hpp"

namespace {

using namespace aapx;

/// The process-wide cancellation token SIGINT/SIGTERM trip. Long-running
/// flows observe it through the root Context; `aapx serve`
/// additionally gets its graceful-drain request. The handler body is two
/// atomic stores — strictly async-signal-safe.
CancelToken g_cancel;                              // NOLINT
std::atomic<service::Server*> g_server{nullptr};   // NOLINT
std::atomic<int> g_signal{0};                      // NOLINT

extern "C" void handle_shutdown_signal(int signum) {
  g_signal.store(signum, std::memory_order_relaxed);
  g_cancel.cancel();
  if (service::Server* server = g_server.load(std::memory_order_relaxed)) {
    server->request_stop();
  }
}

void install_signal_handlers() {
  struct sigaction sa = {};
  sa.sa_handler = handle_shutdown_signal;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
}

/// Strict numeric conversion: the whole string must be consumed, so
/// "--width banana" and "--years 1x" are one-line errors, not zeros.
int to_int_strict(const std::string& text, const std::string& what) {
  std::size_t used = 0;
  int value = 0;
  try {
    value = std::stoi(text, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used == 0 || used != text.size()) {
    throw std::runtime_error("bad " + what + " value '" + text + "'");
  }
  return value;
}

double to_double_strict(const std::string& text, const std::string& what) {
  std::size_t used = 0;
  double value = 0.0;
  try {
    value = std::stod(text, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used == 0 || used != text.size()) {
    throw std::runtime_error("bad " + what + " value '" + text + "'");
  }
  return value;
}

struct Args {
  std::string command;
  std::string action;  ///< positional sub-action ("library build" etc.)
  std::map<std::string, std::string> options;
  /// argv index where each option appeared, for parser-style diagnostics
  /// ("argv[3]: unknown option '--foo'" mirrors "verilog:12: ...").
  std::map<std::string, int> arg_index;

  bool has(const std::string& key) const {
    return options.find(key) != options.end();
  }
  std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = options.find(key);
    return it == options.end() ? fallback : it->second;
  }
  int get_int(const std::string& key, int fallback) const {
    const auto it = options.find(key);
    return it == options.end() ? fallback
                               : to_int_strict(it->second, "--" + key);
  }
  double get_double(const std::string& key, double fallback) const {
    const auto it = options.find(key);
    return it == options.end() ? fallback
                               : to_double_strict(it->second, "--" + key);
  }
  /// Like get_double but additionally rejects negative values.
  double get_years(const std::string& key, double fallback) const {
    const double y = get_double(key, fallback);
    if (y < 0.0) {
      throw std::runtime_error("--" + key + " must be non-negative, got " +
                               get(key, ""));
    }
    return y;
  }
};

Args parse_args(int argc, char** argv) {
  Args args;
  if (argc < 2) return args;
  args.command = argv[1];
  int i = 2;
  // `library` takes one positional action before options.
  if (args.command == "library" && i < argc &&
      std::strncmp(argv[i], "--", 2) != 0) {
    args.action = argv[i++];
  }
  for (; i < argc; ++i) {
    std::string key = argv[i];
    if (key == "-j") key = "--threads";  // make-style worker-count shorthand
    if (key.rfind("--", 0) != 0) {
      throw std::runtime_error("argv[" + std::to_string(i) +
                               "]: expected --option, got '" + key + "'");
    }
    key = key.substr(2);
    args.arg_index[key] = i;
    if (key == "diff" && args.command == "report") {
      // `report --diff A B` (or `--diff A,B`) compares two artifacts, so
      // this one option consumes up to two values, joined comma-style.
      std::string joined;
      while (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
        if (!joined.empty()) joined += ',';
        joined += argv[++i];
      }
      args.options[key] = joined;
      continue;
    }
    if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      args.options[key] = argv[++i];
    } else {
      args.options[key] = "";
    }
  }
  return args;
}

std::uint64_t to_u64_strict(const std::string& text, const std::string& what) {
  std::size_t used = 0;
  std::uint64_t value = 0;
  try {
    value = std::stoull(text, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used == 0 || used != text.size()) {
    throw std::runtime_error("bad " + what + " value '" + text + "'");
  }
  return value;
}

/// Rejects options the selected command does not understand — silently
/// ignored flags hide typos ("--mim-precision") until the results look
/// wrong. Diagnostics carry the argv position, like the liberty/verilog
/// parsers carry line numbers. Unknown *commands* fall through: dispatch()
/// reports those.
void reject_unknown_options(const Args& args) {
  static const std::set<std::string> kGlobal = {"threads", "trace", "metrics",
                                               "log", "store"};
  static const std::map<std::string, std::set<std::string>> kByCommand = {
      {"characterize",
       {"kind", "width", "trunc", "arch", "mult-arch", "min-precision", "mode",
        "years", "save", "mechanisms", "hci-a", "hci-exp", "em-eta", "em-beta",
        "tddb-eta", "tddb-beta"}},
      {"flow",
       {"width", "years", "mode", "min-precision", "mechanisms", "hci-a",
        "hci-exp", "em-eta", "em-beta", "tddb-eta", "tddb-beta"}},
      {"schedule",
       {"kind", "width", "trunc", "arch", "mult-arch", "min-precision", "mode",
        "grid", "mechanisms", "hci-a", "hci-exp", "em-eta", "em-beta",
        "tddb-eta", "tddb-beta"}},
      {"export-liberty", {"out", "years", "stress"}},
      {"export-verilog", {"kind", "width", "trunc", "arch", "mult-arch",
                          "out"}},
      {"export-sdf", {"kind", "width", "trunc", "arch", "mult-arch", "years",
                      "stress", "out"}},
      {"faultsim",
       {"kind", "width", "trunc", "arch", "mult-arch", "min-precision", "grid",
        "accel", "temp-step", "temp-from", "outlier-frac", "outlier-factor",
        "sensor-gain", "sensor-offset", "sensor-noise", "seed", "years",
        "epochs", "vectors", "verify-vectors", "open-loop", "canary-margin",
        "canary-trip", "mechanisms", "hci-a", "hci-exp", "em-eta", "em-beta",
        "tddb-eta", "tddb-beta", "hazard-failover"}},
      {"report",
       {"trace", "log", "metrics", "check", "top", "diff", "log-dir"}},
      {"serve",
       {"listen", "workers", "sweep-threads", "queue", "retry-hint-ms",
        "snapshot-interval", "log-dir", "admin", "request-trace",
        "request-trace-rotate-kb", "slow-ring"}},
      {"client",
       {"connect", "op", "kind", "width", "trunc", "arch", "mult-arch",
        "min-precision", "step", "mode", "years", "deadline-ms", "attempts",
        "trace-id"}},
      {"top", {"connect", "interval", "once", "attempts"}},
      {"servesim", {"scenario", "work-dir", "self-exe", "verbose"}},
      {"help", {}},
  };
  static const std::map<std::string, std::set<std::string>> kLibraryActions = {
      {"build", {"out", "kinds", "widths", "arch", "mult-arch",
                 "min-precision", "mode", "years", "mechanisms", "hci-a",
                 "hci-exp", "em-eta", "em-beta", "tddb-eta", "tddb-beta"}},
      {"query", {"kind", "width"}},
      {"info", {}},
      {"merge", {"out", "inputs"}},
  };
  const std::set<std::string>* allowed = nullptr;
  std::string label = args.command;
  if (args.command == "library") {
    const auto it = kLibraryActions.find(args.action);
    if (it == kLibraryActions.end()) return;  // cmd_library reports it
    allowed = &it->second;
    label += " " + args.action;
  } else {
    const auto it = kByCommand.find(args.command);
    if (it == kByCommand.end()) return;  // dispatch reports it
    allowed = &it->second;
  }
  // Report the *first* offending token on the command line, not map order.
  const std::string* worst_key = nullptr;
  int worst_index = 0;
  for (const auto& [key, index] : args.arg_index) {
    if (kGlobal.count(key) != 0 || allowed->count(key) != 0) continue;
    if (worst_key == nullptr || index < worst_index) {
      worst_key = &key;
      worst_index = index;
    }
  }
  if (worst_key != nullptr) {
    throw std::runtime_error("argv[" + std::to_string(worst_index) +
                             "]: unknown option '--" + *worst_key + "' for '" +
                             label + "' (try 'aapx help')");
  }
}

std::vector<double> parse_list(const std::string& csv, const std::string& what) {
  std::vector<double> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(to_double_strict(item, what));
  }
  if (out.empty()) {
    throw std::runtime_error(what + " list is empty");
  }
  return out;
}

ComponentKind parse_kind(const std::string& s) {
  if (s == "adder") return ComponentKind::adder;
  if (s == "multiplier" || s == "mult") return ComponentKind::multiplier;
  if (s == "mac") return ComponentKind::mac;
  if (s == "clamp") return ComponentKind::clamp;
  throw std::runtime_error("unknown --kind " + s);
}

AdderArch parse_adder_arch(const std::string& s) {
  if (s == "ripple") return AdderArch::ripple;
  if (s == "cla4") return AdderArch::cla4;
  if (s == "kogge-stone" || s == "kogge_stone") return AdderArch::kogge_stone;
  throw std::runtime_error("unknown --arch " + s);
}

StressMode parse_mode(const std::string& s) {
  if (s == "worst") return StressMode::worst;
  if (s == "balanced") return StressMode::balanced;
  throw std::runtime_error("unknown --mode " + s + " (worst|balanced)");
}

/// Builds the aging model a command runs under: `--mechanisms bti,hci,em,tddb`
/// selects the mechanism set (default BTI only), and per-mechanism knobs
/// override the calibrated defaults. Errors surface as one-line parse
/// diagnostics.
AgingModel model_from(const Args& args) {
  AgingParams params;
  if (args.has("mechanisms")) {
    params.mechanisms.clear();
    std::stringstream ss(args.get("mechanisms", "bti"));
    std::string item;
    while (std::getline(ss, item, ',')) {
      if (item.empty()) continue;
      try {
        params.mechanisms.push_back(mechanism_from_string(item));
      } catch (const std::invalid_argument& e) {
        throw std::runtime_error("--mechanisms: " + std::string(e.what()));
      }
    }
  }
  params.hci.a_hci = args.get_double("hci-a", params.hci.a_hci);
  params.hci.activity_exponent =
      args.get_double("hci-exp", params.hci.activity_exponent);
  params.em.eta_ref_years = args.get_double("em-eta", params.em.eta_ref_years);
  params.em.beta = args.get_double("em-beta", params.em.beta);
  params.tddb.eta_ref_years =
      args.get_double("tddb-eta", params.tddb.eta_ref_years);
  params.tddb.beta = args.get_double("tddb-beta", params.tddb.beta);
  try {
    return AgingModel(params);
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error("--mechanisms: " + std::string(e.what()));
  }
}

/// Parse-time guard for the drift power laws' validity horizon: past the age
/// where dVth reaches the full gate overdrive (vdd - vth0) the delay model
/// has no solution, and the failure used to surface as a std::domain_error
/// from deep inside degradation-grid construction or STA. Reject the horizon
/// up front with the actionable limit instead. BTI is checked at full duty
/// stress; HCI (when enabled) at activity 1, scaled by the library's most
/// aging-sensitive cell, because STA applies it per gate with that scaling.
void validate_aging_horizon(const CellLibrary& lib, const AgingModel& model,
                            double years) {
  const AgingParams& p = model.params();
  const double overdrive = p.bti.vdd - p.bti.vth0;
  double max_sensitivity = 0.0;
  for (const Cell& cell : lib.cells()) {
    max_sensitivity = std::max(max_sensitivity, cell.aging_sensitivity);
  }
  struct DriftLaw {
    double at_years;  // dVth at the requested horizon
    double at_ref;    // dVth at t_ref, for inverting the power law
    double t_ref;
    double exponent;  // time exponent n
    const char* where;
  };
  const DriftLaw laws[] = {
      {model.delta_vth(TransistorType::pMos, 1.0, years),
       model.delta_vth(TransistorType::pMos, 1.0, p.bti.t_ref_years),
       p.bti.t_ref_years, p.bti.time_exponent, "under worst-case stress"},
      {model.delta_vth(TransistorType::nMos, 1.0, years),
       model.delta_vth(TransistorType::nMos, 1.0, p.bti.t_ref_years),
       p.bti.t_ref_years, p.bti.time_exponent, "under worst-case stress"},
      {model.hci_delta_vth(1.0, years) * max_sensitivity,
       model.hci_delta_vth(1.0, p.hci.t_ref_years) * max_sensitivity,
       p.hci.t_ref_years, p.hci.time_exponent,
       "under HCI drift at activity 1"},
  };
  for (const DriftLaw& law : laws) {
    if (law.at_years < overdrive) continue;
    const double limit =
        law.at_ref > 0.0
            ? law.t_ref * std::pow(overdrive / law.at_ref, 1.0 / law.exponent)
            : 0.0;
    std::ostringstream os;
    os << "--years " << years
       << " is beyond the aging model's validity: dVth consumes the full "
          "gate overdrive (vdd - vth0 = "
       << overdrive << " V) at roughly " << limit << " years " << law.where;
    throw std::runtime_error(os.str());
  }
}

ComponentSpec spec_from(const Args& args) {
  ComponentSpec spec;
  spec.kind = parse_kind(args.get("kind", "adder"));
  spec.width = args.get_int("width", 32);
  spec.truncated_bits = args.get_int("trunc", 0);
  spec.adder_arch = parse_adder_arch(args.get("arch", "cla4"));
  spec.mult_arch =
      args.get("mult-arch", "array") == "wallace" ? MultArch::wallace
                                                  : MultArch::array;
  return spec;
}

std::ofstream open_out(const Args& args) {
  const std::string path = args.get("out", "");
  if (path.empty()) throw std::runtime_error("--out <file> is required");
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot open " + path);
  return os;
}

int cmd_characterize(const Context& ctx, const Args& args) {
  const CellLibrary lib = make_nangate45_like();
  const ComponentSpec spec = spec_from(args);
  CharacterizerOptions copt;
  copt.min_precision =
      args.get_int("min-precision", std::max(1, spec.width - 10));
  const AgingModel model = model_from(args);
  const ComponentCharacterizer ch(ctx, lib, model, copt);
  const StressMode mode = parse_mode(args.get("mode", "worst"));
  std::vector<AgingScenario> scenarios;
  for (const double y : parse_list(args.get("years", "1,10"), "--years")) {
    if (y < 0.0) {
      throw std::runtime_error("--years entries must be non-negative");
    }
    validate_aging_horizon(lib, model, y);
    scenarios.push_back({mode, y});
  }
  const ComponentCharacterization c = ch.characterize(spec, scenarios);

  std::vector<std::string> header = {"precision", "fresh [ps]", "area [um^2]"};
  for (const AgingScenario& s : scenarios) header.push_back(s.label() + " [ps]");
  TextTable table(header);
  for (const PrecisionPoint& p : c.points) {
    std::vector<std::string> row = {std::to_string(p.precision),
                                    TextTable::num(p.fresh_delay, 1),
                                    TextTable::num(p.area, 1)};
    for (const double d : p.aged_delay) row.push_back(TextTable::num(d, 1));
    table.add_row(std::move(row));
  }
  table.print(std::cout);
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const int k = c.required_precision(i);
    std::printf("%s: guardband-free precision = %s\n",
                scenarios[i].label().c_str(),
                k > 0 ? std::to_string(k).c_str() : "unreachable");
  }
  const std::string save = args.get("save", "");
  if (!save.empty()) {
    ApproximationLibrary out;
    out.add(c);
    std::ofstream os(save);
    if (!os) throw std::runtime_error("cannot open " + save);
    out.save(os);
    std::printf("approximation library written to %s\n", save.c_str());
  }
  return 0;
}

int cmd_flow(const Context& ctx, const Args& args) {
  const CellLibrary lib = make_nangate45_like();
  const int width = args.get_int("width", 32);
  CharacterizerOptions copt;
  copt.min_precision = args.get_int("min-precision", std::max(1, width - 8));
  const AgingModel model = model_from(args);
  MicroarchApproximator flow(ctx, lib, model, copt);
  MicroarchSpec design;
  design.name = "idct";
  design.blocks = {
      {"mult", {ComponentKind::multiplier, width, 0, AdderArch::cla4,
                MultArch::array}, false},
      {"acc", {ComponentKind::adder, width, 0, AdderArch::cla4, MultArch::array},
       false},
  };
  FlowOptions fopt;
  fopt.scenario = {parse_mode(args.get("mode", "worst")),
                   args.get_years("years", 10.0)};
  validate_aging_horizon(lib, model, fopt.scenario.years);
  const FlowResult plan = flow.run(design, fopt);
  std::printf("constraint t_CP(noAging) = %.1f ps, timing %s\n",
              plan.timing_constraint, plan.timing_met ? "met" : "NOT met");
  TextTable table({"block", "fresh [ps]", "aged [ps]", "rel. slack",
                   "precision", "meets"});
  for (const BlockPlan& b : plan.blocks) {
    table.add_row({b.spec.name, TextTable::num(b.fresh_delay, 1),
                   TextTable::num(b.aged_delay_full, 1),
                   TextTable::pct(b.rel_slack),
                   std::to_string(b.chosen_precision), b.meets ? "yes" : "NO"});
  }
  table.print(std::cout);
  return plan.timing_met ? 0 : 1;
}

int cmd_schedule(const Context& ctx, const Args& args) {
  const CellLibrary lib = make_nangate45_like();
  const ComponentSpec spec = spec_from(args);
  CharacterizerOptions copt;
  copt.min_precision =
      args.get_int("min-precision", std::max(1, spec.width - 10));
  const AgingModel model = model_from(args);
  const ComponentCharacterizer ch(ctx, lib, model, copt);
  const AdaptiveScheduler scheduler(ch);
  const std::vector<double> grid =
      parse_list(args.get("grid", "1,2,5,10"), "--grid");
  for (const double y : grid) validate_aging_horizon(lib, model, y);
  const AdaptiveSchedule plan = scheduler.plan(
      spec, parse_mode(args.get("mode", "worst")), grid);
  std::printf("%s, constraint %.1f ps, schedule %s\n", spec.name().c_str(),
              plan.timing_constraint, plan.feasible ? "feasible" : "INFEASIBLE");
  TextTable table({"from [y]", "precision", "aged delay [ps]",
                   "guardband avoided [ps]"});
  for (const ScheduleStep& step : plan.steps) {
    table.add_row({TextTable::num(step.from_years, 1),
                   std::to_string(step.precision),
                   TextTable::num(step.aged_delay, 1),
                   TextTable::num(step.guardband_if_unapproximated, 1)});
  }
  table.print(std::cout);
  return plan.feasible ? 0 : 1;
}

int cmd_export_liberty(const Args& args) {
  const CellLibrary lib = make_nangate45_like();
  std::ofstream os = open_out(args);
  const double years = args.get_years("years", 0.0);
  if (years > 0.0) {
    const AgingModel model;
    validate_aging_horizon(lib, model, years);
    const DegradationAwareLibrary aged(lib, model, years);
    const StressMode mode = parse_mode(args.get("stress", "worst"));
    const StressPair stress =
        mode == StressMode::worst ? kWorstCaseStress : kBalancedStress;
    write_aged_liberty(aged, stress, os);
    std::printf("aged liberty (%g years, %s stress) written to %s\n", years,
                to_string(mode).c_str(), args.get("out", "").c_str());
  } else {
    write_liberty(lib, os);
    std::printf("fresh liberty written to %s\n", args.get("out", "").c_str());
  }
  return 0;
}

int cmd_export_verilog(const Context& ctx, const Args& args) {
  const CellLibrary lib = make_nangate45_like();
  const ComponentSpec spec = spec_from(args);
  const Netlist nl = make_component(ctx, lib, spec);
  std::ofstream os = open_out(args);
  write_verilog(nl, os, spec.name());
  std::printf("%s: %zu gates, %.1f um^2 -> %s\n", spec.name().c_str(),
              nl.num_gates(), compute_stats(nl).cell_area,
              args.get("out", "").c_str());
  return 0;
}

int cmd_export_sdf(const Context& ctx, const Args& args) {
  const CellLibrary lib = make_nangate45_like();
  const ComponentSpec spec = spec_from(args);
  const Netlist nl = make_component(ctx, lib, spec);
  std::ofstream os = open_out(args);
  SdfWriteOptions sopt;
  sopt.design_name = spec.name();
  const double years = args.get_years("years", 0.0);
  if (years > 0.0) {
    const AgingModel model;
    validate_aging_horizon(lib, model, years);
    const DegradationAwareLibrary aged(lib, model, years);
    const StressProfile stress = StressProfile::uniform(
        parse_mode(args.get("stress", "worst")), nl.num_gates());
    write_aged_sdf(nl, aged, stress, os, sopt);
  } else {
    write_sdf(nl, os, sopt);
  }
  std::printf("SDF for %s (%s) written to %s\n", spec.name().c_str(),
              years > 0.0 ? "aged" : "fresh", args.get("out", "").c_str());
  return 0;
}

int cmd_faultsim(const Context& ctx, const Args& args) {
  const CellLibrary lib = make_nangate45_like();

  RuntimeOptions ropt;
  ropt.component = spec_from(args);
  if (!args.has("arch")) ropt.component.adder_arch = AdderArch::ripple;
  if (!args.has("width")) ropt.component.width = 16;
  ropt.min_precision =
      args.get_int("min-precision", std::max(1, ropt.component.width - 10));
  ropt.schedule_grid = parse_list(args.get("grid", "0.5,1,2,5,10"), "--grid");
  const AgingModel model = model_from(args);
  const ClosedLoopRuntime runtime(ctx, lib, model, ropt);

  FaultScenario fault;
  fault.aging_acceleration = args.get_double("accel", 1.0);
  fault.temp_step_kelvin = args.get_double("temp-step", 0.0);
  fault.temp_step_from_years = args.get_years("temp-from", 0.0);
  fault.gate_outlier_fraction = args.get_double("outlier-frac", 0.0);
  fault.gate_outlier_factor = args.get_double("outlier-factor", 1.0);
  fault.sensor_gain = args.get_double("sensor-gain", 1.0);
  fault.sensor_offset_years = args.get_double("sensor-offset", 0.0);
  fault.sensor_noise_sigma_years = args.get_double("sensor-noise", 0.0);
  fault.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const FaultInjector faults(ctx, lib, model, fault);

  CampaignOptions copt;
  copt.lifetime_years = args.get_years("years", 10.0);
  copt.epochs = args.get_int("epochs", 16);
  copt.vectors_per_epoch =
      static_cast<std::size_t>(args.get_int("vectors", 96));
  copt.verify_vectors =
      static_cast<std::size_t>(args.get_int("verify-vectors", 48));
  copt.closed_loop = !args.has("open-loop");
  copt.monitor.window = copt.vectors_per_epoch;
  copt.monitor.canary_margin = args.get_double("canary-margin", 0.97);
  copt.monitor.canary_trip =
      static_cast<std::size_t>(args.get_int("canary-trip", 2));
  copt.controller.hazard_failover_threshold =
      args.get_double("hazard-failover", 0.0);

  // The campaign's ground truth runs on the *faulted* model, so the horizon
  // guard must hold for it too (an acceleration of r moves the domain edge
  // r^(1/n) years closer).
  AgingParams faulted = model.params();
  faulted.bti.a_pmos *= fault.aging_acceleration;
  faulted.bti.a_nmos *= fault.aging_acceleration;
  faulted.bti.temp_kelvin += fault.temp_step_kelvin;
  validate_aging_horizon(lib, AgingModel(faulted), copt.lifetime_years);

  const CampaignResult r = runtime.run(faults, copt);

  std::printf("%s, constraint %.1f ps, %s campaign, %d epochs / %.1f years\n",
              ropt.component.name().c_str(), r.timing_constraint,
              copt.closed_loop ? "closed-loop" : "open-loop", copt.epochs,
              copt.lifetime_years);
  TextTable table({"epoch", "age [y]", "sensor [y]", "precision", "errors",
                   "canary", "max settle [ps]"});
  for (const EpochReport& e : r.epochs) {
    table.add_row({std::to_string(e.epoch), TextTable::num(e.years, 2),
                   TextTable::num(e.sensor_years, 2),
                   std::to_string(e.precision), std::to_string(e.errors),
                   std::to_string(e.canary_hits),
                   TextTable::num(e.max_settle_ps, 1)});
  }
  table.print(std::cout);
  for (const ControlEvent& e : r.events) {
    std::printf("  %s\n", to_string(e).c_str());
  }
  std::printf(
      "total %llu errors / %llu vectors, %zu reconfigurations, "
      "final precision %d, %s\n",
      static_cast<unsigned long long>(r.total_errors),
      static_cast<unsigned long long>(r.total_vectors), r.reconfigurations,
      r.final_precision,
      r.converged_clean() ? "converged clean" : "NOT converged");
  if (r.failed_over) {
    std::printf("hard-failure hazard crossed at epoch %d: failed over to the "
                "spare\n",
                r.failover_epoch);
  }
  return r.converged_clean() ? 0 : 1;
}

std::string read_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot open " + path);
  std::stringstream buf;
  buf << is.rdbuf();
  return buf.str();
}

std::vector<std::string> split_csv(const std::string& csv);

/// `aapx report --diff A B`: per-metric comparison of two JSON artifacts
/// (metrics snapshots or BENCH_*.json files) — absolute and relative deltas,
/// with metrics present on only one side called out.
int cmd_report_diff(const std::string& spec) {
  const std::vector<std::string> paths = split_csv(spec);
  if (paths.size() != 2) {
    throw std::runtime_error("report: --diff needs exactly two files, got " +
                             std::to_string(paths.size()));
  }
  std::vector<obs::JsonValue> docs;
  for (const std::string& path : paths) {
    std::string err;
    auto doc = obs::json_parse(read_file(path), &err);
    if (!doc) {
      throw std::runtime_error("report: " + path + ": " + err);
    }
    docs.push_back(std::move(*doc));
  }
  const std::vector<obs::MetricDelta> deltas =
      obs::diff_numeric(docs[0], docs[1]);
  std::printf("diff: A = %s, B = %s\n", paths[0].c_str(), paths[1].c_str());
  TextTable table({"metric", "A", "B", "delta", "%"});
  std::size_t changed = 0;
  for (const obs::MetricDelta& d : deltas) {
    if (!d.in_a) {
      table.add_row({d.name, "-", TextTable::num(d.b, 6), "(new in B)", "-"});
      ++changed;
    } else if (!d.in_b) {
      table.add_row({d.name, TextTable::num(d.a, 6), "-", "(gone in B)", "-"});
      ++changed;
    } else {
      if (d.delta() != 0.0) ++changed;
      table.add_row({d.name, TextTable::num(d.a, 6), TextTable::num(d.b, 6),
                     TextTable::num(d.delta(), 6),
                     d.a != 0.0 ? TextTable::num(d.pct(), 2)
                                : std::string("-")});
    }
  }
  table.print(std::cout);
  std::printf("%zu of %zu metric(s) differ\n", changed, deltas.size());
  return 0;
}

/// `aapx report --log-dir DIR`: aggregate the per-request run logs a server
/// wrote (`aapx serve --log-dir`) into op/outcome tallies, validating every
/// record on the way. Returns the validation-failure count.
std::size_t report_log_dir(const std::string& dir) {
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.rfind("req_", 0) == 0 &&
        name.size() > 6 && name.compare(name.size() - 6, 6, ".jsonl") == 0) {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  std::size_t failures = 0;
  std::vector<obs::JsonValue> records;
  for (const std::string& file : files) {
    std::ifstream is(file);
    if (!is) {
      std::printf("log-dir %s: cannot open\n", file.c_str());
      ++failures;
      continue;
    }
    std::vector<std::string> errors;
    std::vector<obs::JsonValue> recs = obs::parse_jsonl(is, &errors);
    for (std::size_t i = 0; i < recs.size(); ++i) {
      for (const std::string& e : obs::validate_log_record(recs[i])) {
        errors.push_back("record " + std::to_string(i + 1) + ": " + e);
      }
    }
    for (const std::string& e : errors) {
      std::printf("log-dir %s: %s\n", file.c_str(), e.c_str());
    }
    failures += errors.size();
    for (obs::JsonValue& r : recs) records.push_back(std::move(r));
  }
  const obs::ServiceLogSummary s = obs::summarize_service_log(records);
  std::printf("service logs: %zu file(s), %llu request(s), %llu cancelled\n",
              files.size(), static_cast<unsigned long long>(s.requests),
              static_cast<unsigned long long>(s.cancelled));
  if (!s.ops.empty()) {
    TextTable ops({"op", "requests"});
    for (const auto& [op, count] : s.ops) {
      ops.add_row({op, std::to_string(count)});
    }
    ops.print(std::cout);
  }
  if (!s.outcomes.empty()) {
    TextTable outcomes({"outcome", "count"});
    for (const auto& [outcome, count] : s.outcomes) {
      outcomes.add_row({outcome, std::to_string(count)});
    }
    outcomes.print(std::cout);
  }
  return failures;
}

int cmd_report(const Args& args) {
  if (args.has("diff")) return cmd_report_diff(args.get("diff", ""));
  const std::string trace_path = args.get("trace", "");
  const std::string log_path = args.get("log", "");
  const std::string metrics_path = args.get("metrics", "");
  const std::string log_dir = args.get("log-dir", "");
  if (trace_path.empty() && log_path.empty() && metrics_path.empty() &&
      log_dir.empty()) {
    throw std::runtime_error(
        "report: pass at least one of --trace, --log, --metrics, --log-dir, "
        "--diff");
  }
  const bool check = args.has("check");
  const int top = args.get_int("top", 15);
  if (top < 1) throw std::runtime_error("--top must be >= 1");
  std::size_t failures = 0;

  if (!trace_path.empty()) {
    std::string err;
    const auto doc = obs::json_parse(read_file(trace_path), &err);
    if (!doc) {
      std::printf("trace %s: JSON parse error: %s\n", trace_path.c_str(),
                  err.c_str());
      ++failures;
    } else {
      const std::vector<std::string> errors = obs::validate_trace(*doc);
      for (const std::string& e : errors) {
        std::printf("trace %s: %s\n", trace_path.c_str(), e.c_str());
      }
      failures += errors.size();
      const obs::TraceSummary s = obs::summarize_trace(*doc);
      std::printf("trace: %zu span events on %zu threads, %.3f ms wall\n",
                  s.events, s.threads, s.wall_us / 1000.0);
      std::printf("top spans by inclusive time:\n");
      TextTable table({"span", "count", "incl [ms]", "max [ms]"});
      for (std::size_t i = 0;
           i < s.spans.size() && i < static_cast<std::size_t>(top); ++i) {
        const obs::SpanStat& sp = s.spans[i];
        table.add_row({sp.name, std::to_string(sp.count),
                       TextTable::num(sp.incl_us / 1000.0, 3),
                       TextTable::num(sp.max_us / 1000.0, 3)});
      }
      table.print(std::cout);
    }
  }

  if (!log_path.empty()) {
    std::ifstream is(log_path);
    if (!is) throw std::runtime_error("cannot open " + log_path);
    std::vector<std::string> errors;
    const std::vector<obs::JsonValue> records = obs::parse_jsonl(is, &errors);
    for (std::size_t i = 0; i < records.size(); ++i) {
      for (const std::string& e : obs::validate_log_record(records[i])) {
        errors.push_back("record " + std::to_string(i + 1) + ": " + e);
      }
    }
    for (const std::string& e : errors) {
      std::printf("log %s: %s\n", log_path.c_str(), e.c_str());
    }
    failures += errors.size();
    const obs::LogSummary ls = obs::summarize_log(records);
    std::printf("run log: %zu records\n", records.size());
    TextTable types({"record type", "count"});
    for (const auto& [type, count] : ls.type_counts) {
      types.add_row({type, std::to_string(count)});
    }
    types.print(std::cout);
    if (!ls.decisions.empty()) {
      std::printf("controller decision timeline:\n");
      TextTable t({"epoch", "age [y]", "sensor [y]", "trigger", "outcome",
                   "precision", "sta [ps]"});
      for (const obs::DecisionRow& d : ls.decisions) {
        t.add_row({std::to_string(d.epoch), TextTable::num(d.years, 2),
                   TextTable::num(d.sensor_years, 2), d.trigger, d.outcome,
                   std::to_string(d.from_precision) + " -> " +
                       std::to_string(d.to_precision),
                   d.sta_delay_ps > 0.0 ? TextTable::num(d.sta_delay_ps, 1)
                                        : std::string("-")});
      }
      t.print(std::cout);
    }
  }

  if (!metrics_path.empty()) {
    std::string err;
    const auto doc = obs::json_parse(read_file(metrics_path), &err);
    if (!doc) {
      std::printf("metrics %s: JSON parse error: %s\n", metrics_path.c_str(),
                  err.c_str());
      ++failures;
    } else {
      const std::vector<obs::CacheRate> rates =
          obs::cache_rates_from_metrics(*doc);
      std::printf("cache hit rates:\n");
      TextTable t({"cache", "hits", "misses", "hit rate"});
      for (const obs::CacheRate& r : rates) {
        t.add_row({r.name, std::to_string(r.hits), std::to_string(r.misses),
                   TextTable::pct(r.rate())});
      }
      t.print(std::cout);
      const std::vector<obs::AgingCounterRow> aging =
          obs::aging_counters_from_metrics(*doc);
      if (!aging.empty()) {
        std::printf("aging mechanisms (drift/hazard evaluations, lifetime "
                    "MC dies, failover decisions):\n");
        TextTable at({"counter", "count"});
        for (const obs::AgingCounterRow& row : aging) {
          at.add_row({row.name, std::to_string(row.value)});
        }
        at.print(std::cout);
      }
      const std::vector<obs::HistogramRow> hists =
          obs::histograms_from_metrics(*doc);
      if (!hists.empty()) {
        std::printf("histograms (exact count/sum/min/max, "
                    "bucket-interpolated quantiles):\n");
        TextTable ht({"histogram", "count", "mean", "min", "max", "p50",
                      "p95", "p99"});
        for (const obs::HistogramRow& h : hists) {
          ht.add_row({h.name, std::to_string(h.count),
                      TextTable::num(h.mean(), 1), TextTable::num(h.min, 1),
                      TextTable::num(h.max, 1), TextTable::num(h.p50, 1),
                      TextTable::num(h.p95, 1), TextTable::num(h.p99, 1)});
        }
        ht.print(std::cout);
      }
    }
  }

  if (!log_dir.empty()) failures += report_log_dir(log_dir);

  if (check) {
    if (failures == 0) {
      std::printf("report: all artifacts valid\n");
      return 0;
    }
    std::printf("report: %zu validation failure(s)\n", failures);
    return 1;
  }
  return 0;
}

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

/// Prints one persisted characterization surface as the same table
/// `aapx characterize` prints — but straight from the file, no synthesis.
void print_surface(const engine::SurfacePayload& p) {
  const ComponentCharacterization& c = p.surface;
  std::printf("%s (min precision %d, step %d)\n", c.base.name().c_str(),
              p.min_precision, p.precision_step);
  std::vector<std::string> header = {"precision", "fresh [ps]", "area [um^2]"};
  for (const AgingScenario& s : c.scenarios) {
    header.push_back(s.label() + " [ps]");
  }
  TextTable table(header);
  for (const PrecisionPoint& pt : c.points) {
    std::vector<std::string> row = {std::to_string(pt.precision),
                                    TextTable::num(pt.fresh_delay, 1),
                                    TextTable::num(pt.area, 1)};
    for (const double d : pt.aged_delay) row.push_back(TextTable::num(d, 1));
    table.add_row(std::move(row));
  }
  table.print(std::cout);
}

/// `aapx library build`: characterize a cross-product of components into the
/// Context's DesignStore and save it as one distributable store file — the
/// materialized form of the paper's aging-induced approximation library.
int cmd_library_build(const Context& ctx, const Args& args) {
  const std::string out = args.get("out", "");
  if (out.empty()) throw std::runtime_error("--out <file> is required");
  const CellLibrary lib = make_nangate45_like();
  const StressMode mode = parse_mode(args.get("mode", "worst"));
  const AgingModel model = model_from(args);
  std::vector<AgingScenario> scenarios;
  for (const double y : parse_list(args.get("years", "1,10"), "--years")) {
    if (y < 0.0) {
      throw std::runtime_error("--years entries must be non-negative");
    }
    validate_aging_horizon(lib, model, y);
    scenarios.push_back({mode, y});
  }
  std::vector<ComponentKind> kinds;
  for (const std::string& k : split_csv(args.get("kinds", "adder"))) {
    kinds.push_back(parse_kind(k));
  }
  if (kinds.empty()) throw std::runtime_error("--kinds list is empty");
  std::vector<int> widths;
  for (const double w : parse_list(args.get("widths", "8"), "--widths")) {
    widths.push_back(static_cast<int>(w));
  }

  std::size_t surfaces = 0;
  for (const ComponentKind kind : kinds) {
    for (const int width : widths) {
      ComponentSpec spec;
      spec.kind = kind;
      spec.width = width;
      spec.adder_arch = parse_adder_arch(args.get("arch", "cla4"));
      spec.mult_arch = args.get("mult-arch", "array") == "wallace"
                           ? MultArch::wallace
                           : MultArch::array;
      CharacterizerOptions copt;
      copt.min_precision =
          args.get_int("min-precision", std::max(1, width - 10));
      const ComponentCharacterizer ch(ctx, lib, model, copt);
      (void)ch.characterize(spec, scenarios);
      ++surfaces;
      std::printf("characterized %s\n", spec.name().c_str());
    }
  }
  if (!ctx.store().save(out)) {
    throw std::runtime_error("cannot write store file " + out);
  }
  std::printf("library with %zu surface(s) (%zu store entries) -> %s\n",
              surfaces, ctx.store().entries(), out.c_str());
  return 0;
}

/// `aapx library query`: print surfaces straight out of a store file.
int cmd_library_query(const Args& args) {
  const std::string path = args.get("store", "");
  if (path.empty()) throw std::runtime_error("--store <file> is required");
  engine::StoreFileData data = engine::load_store_file(path);
  if (!data.file_found) throw std::runtime_error("cannot open " + path);
  for (const std::string& w : data.warnings) {
    std::fprintf(stderr, "aapx store: %s\n", w.c_str());
  }
  const bool filter_kind = args.has("kind");
  const ComponentKind kind =
      filter_kind ? parse_kind(args.get("kind", "")) : ComponentKind::adder;
  const int width = args.get_int("width", 0);

  std::size_t shown = 0;
  for (const engine::RawRecord& rec : data.records) {
    if (rec.kind != engine::RecordKind::surface) continue;
    engine::SurfacePayload p;
    try {
      p = engine::decode_surface_payload(rec.payload);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "aapx store: skipping surface record: %s\n",
                   e.what());
      continue;
    }
    if (filter_kind && p.surface.base.kind != kind) continue;
    if (width > 0 && p.surface.base.width != width) continue;
    print_surface(p);
    ++shown;
  }
  std::printf("%zu surface(s) matched in %s\n", shown, path.c_str());
  return shown > 0 ? 0 : 1;
}

/// `aapx library info`: header + per-kind record census. The header is
/// decoded by hand so a file from a *different* build still reports itself.
int cmd_library_info(const Args& args) {
  const std::string path = args.get("store", "");
  if (path.empty()) throw std::runtime_error("--store <file> is required");
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("cannot open " + path);
  std::ostringstream buf;
  buf << is.rdbuf();
  const std::string bytes = buf.str();
  if (bytes.size() < engine::kHeaderSize ||
      std::memcmp(bytes.data(), engine::kStoreMagic, 8) != 0) {
    throw std::runtime_error(path + " is not an aapx store file");
  }
  engine::BinReader r(std::string_view(bytes).substr(8));  // past the magic
  const std::uint32_t version = r.u32();
  const std::uint64_t build_fp = r.u64();
  const std::uint64_t count = r.u64();
  std::printf("store file:     %s (%zu bytes)\n", path.c_str(), bytes.size());
  std::printf("format version: %u (this binary: %u)\n", version,
              engine::kStoreFormatVersion);
  std::printf("build:          %016llx (this binary: %016llx)%s\n",
              static_cast<unsigned long long>(build_fp),
              static_cast<unsigned long long>(engine::build_fingerprint()),
              build_fp == engine::build_fingerprint()
                  ? ""
                  : "  [foreign build: records unusable here]");
  std::printf("records:        %llu\n",
              static_cast<unsigned long long>(count));

  engine::StoreFileData data = engine::load_store_file(path);
  for (const std::string& w : data.warnings) {
    std::fprintf(stderr, "aapx store: %s\n", w.c_str());
  }
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> census;
  for (const engine::RawRecord& rec : data.records) {
    auto& [n, payload_bytes] = census[engine::to_string(rec.kind)];
    ++n;
    payload_bytes += rec.payload.size();
  }
  TextTable table({"kind", "records", "payload bytes"});
  for (const auto& [name, stat] : census) {
    table.add_row({name, std::to_string(stat.first),
                   std::to_string(stat.second)});
  }
  table.print(std::cout);
  if (data.records_dropped > 0) {
    std::printf("%llu record(s) dropped as damaged\n",
                static_cast<unsigned long long>(data.records_dropped));
  }
  return 0;
}

/// `aapx library merge`: union several store files into one, first-wins on
/// conflicting payloads for the same key.
int cmd_library_merge(const Args& args) {
  const std::string out = args.get("out", "");
  if (out.empty()) throw std::runtime_error("--out <file> is required");
  const std::vector<std::string> inputs = split_csv(args.get("inputs", ""));
  if (inputs.empty()) {
    throw std::runtime_error("--inputs <a.aapx,b.aapx,...> is required");
  }
  std::map<std::pair<std::uint32_t, std::uint64_t>, std::string> merged;
  std::size_t conflicts = 0;
  for (const std::string& input : inputs) {
    engine::StoreFileData data = engine::load_store_file(input);
    if (!data.file_found) throw std::runtime_error("cannot open " + input);
    for (const std::string& w : data.warnings) {
      std::fprintf(stderr, "aapx store: %s\n", w.c_str());
    }
    for (engine::RawRecord& rec : data.records) {
      const std::pair<std::uint32_t, std::uint64_t> key = {
          static_cast<std::uint32_t>(rec.kind), rec.key};
      const auto it = merged.find(key);
      if (it == merged.end()) {
        merged.emplace(key, std::move(rec.payload));
      } else if (it->second != rec.payload) {
        std::fprintf(stderr,
                     "aapx store: %s: conflicting %s record %016llx "
                     "(keeping first)\n",
                     input.c_str(), engine::to_string(rec.kind),
                     static_cast<unsigned long long>(rec.key));
        ++conflicts;
      }
    }
  }
  std::vector<engine::RawRecord> records;
  records.reserve(merged.size());
  for (auto& [key, payload] : merged) {
    records.push_back({static_cast<engine::RecordKind>(key.first), key.second,
                       std::move(payload)});
  }
  // std::map iterates (kind, key)-sorted already — write is deterministic.
  if (engine::write_store_file(out, records) == 0) {
    throw std::runtime_error("cannot write store file " + out);
  }
  std::printf("%zu record(s) from %zu file(s) -> %s (%zu conflict(s))\n",
              records.size(), inputs.size(), out.c_str(), conflicts);
  return 0;
}

int cmd_library(const Context& ctx, const Args& args) {
  if (args.action == "build") return cmd_library_build(ctx, args);
  if (args.action == "query") return cmd_library_query(args);
  if (args.action == "info") return cmd_library_info(args);
  if (args.action == "merge") return cmd_library_merge(args);
  throw std::runtime_error("library: unknown action '" + args.action +
                           "' (build|query|info|merge)");
}

/// `aapx serve`: long-running characterization service over the Context's
/// DesignStore. Shutdown is SIGINT/SIGTERM → graceful drain → snapshot →
/// exit 128+signal, the same convention as every other interrupted
/// subcommand (see src/service/server.hpp for the robustness contract).
int cmd_serve(const Context& ctx, const Args& args,
              const std::string& store_path) {
  service::ServerOptions sopts;
  sopts.listen = args.get("listen", "tcp:0");
  sopts.workers = args.get_int("workers", 2);
  if (sopts.workers < 1) throw std::runtime_error("--workers must be >= 1");
  sopts.sweep_threads = args.get_int("sweep-threads", 1);
  const int queue = args.get_int("queue", 64);
  if (queue < 1) throw std::runtime_error("--queue must be >= 1");
  sopts.queue_capacity = static_cast<std::size_t>(queue);
  sopts.retry_hint_ms =
      static_cast<std::uint32_t>(args.get_int("retry-hint-ms", 50));
  sopts.snapshot_interval_s = args.get_double("snapshot-interval", 0.0);
  sopts.store_path = store_path;
  sopts.log_dir = args.get("log-dir", "");
  sopts.admin = args.get("admin", "");
  sopts.request_trace_path = args.get("request-trace", "");
  if (args.has("request-trace-rotate-kb")) {
    const int kb = args.get_int("request-trace-rotate-kb", 0);
    if (kb < 1) {
      throw std::runtime_error("--request-trace-rotate-kb must be >= 1");
    }
    sopts.request_trace_rotate_bytes = static_cast<std::size_t>(kb) * 1024;
  }
  const int slow_ring = args.get_int("slow-ring", 16);
  if (slow_ring < 0) throw std::runtime_error("--slow-ring must be >= 0");
  sopts.slow_ring = static_cast<std::size_t>(slow_ring);

  service::Server server(ctx, sopts);
  std::string err;
  if (!server.start(&err)) throw std::runtime_error("serve: " + err);
  g_server.store(&server);
  std::printf("aapx serve: listening on %s (%d workers, queue %d%s)\n",
              server.endpoint().c_str(), sopts.workers, queue,
              store_path.empty() ? "" : (", store " + store_path).c_str());
  if (!server.admin_endpoint().empty()) {
    std::printf("aapx serve: admin on %s (GET /metrics, GET /healthz)\n",
                server.admin_endpoint().c_str());
  }
  if (!sopts.request_trace_path.empty()) {
    std::printf("aapx serve: request traces -> %s\n",
                sopts.request_trace_path.c_str());
  }
  std::fflush(stdout);
  server.serve_forever();
  g_server.store(nullptr);

  const service::Server::Stats s = server.stats();
  std::printf(
      "aapx serve: drained after signal %d — %llu connection(s), "
      "%llu request(s): %llu ok, %llu shed, %llu deduped, %llu cancelled, "
      "%llu protocol error(s), %llu snapshot(s)\n",
      g_signal.load(), static_cast<unsigned long long>(s.connections),
      static_cast<unsigned long long>(s.requests),
      static_cast<unsigned long long>(s.completed),
      static_cast<unsigned long long>(s.shed),
      static_cast<unsigned long long>(s.deduped),
      static_cast<unsigned long long>(s.cancelled),
      static_cast<unsigned long long>(s.protocol_errors),
      static_cast<unsigned long long>(s.snapshots));
  const int signum = g_signal.load();
  return signum > 0 ? 128 + signum : 0;
}

/// Renders one StatsResponse as the operator-facing dashboard `aapx top`
/// refreshes and `aapx client --op stats` prints once. `qps` < 0 = unknown
/// (first poll has no delta to rate from).
void print_stats(const service::StatsResponse& s, const std::string& endpoint,
                 double qps) {
  std::printf("aapx serve @ %s — up %.1f s", endpoint.c_str(), s.uptime_s);
  if (qps >= 0.0) std::printf(" — %.1f done/s", qps);
  std::printf("\n");
  const std::string snap_note =
      s.snapshot_age_s >= 0.0
          ? "   snapshot " + TextTable::num(s.snapshot_age_s, 1) + " s ago"
          : std::string();
  std::printf(
      "connections %llu (%llu live)   queue %llu   inflight %llu%s\n",
      static_cast<unsigned long long>(s.connections),
      static_cast<unsigned long long>(s.live_connections),
      static_cast<unsigned long long>(s.queue_depth),
      static_cast<unsigned long long>(s.inflight), snap_note.c_str());
  std::printf(
      "requests %llu   completed %llu   shed %llu   deduped %llu   "
      "cancelled %llu   protocol errors %llu   snapshots %llu\n",
      static_cast<unsigned long long>(s.requests),
      static_cast<unsigned long long>(s.completed),
      static_cast<unsigned long long>(s.shed),
      static_cast<unsigned long long>(s.deduped),
      static_cast<unsigned long long>(s.cancelled),
      static_cast<unsigned long long>(s.protocol_errors),
      static_cast<unsigned long long>(s.snapshots));
  if (!s.ops.empty()) {
    TextTable lat({"op", "count", "mean [ms]", "p50 [ms]", "p95 [ms]",
                   "p99 [ms]", "min [ms]", "max [ms]"});
    for (const service::StatsResponse::OpLatency& op : s.ops) {
      obs::HistogramSample sample;
      sample.count = op.count;
      sample.sum = op.sum_us;
      sample.min = op.min_us;
      sample.max = op.max_us;
      for (const auto& [index, n] : op.buckets) {
        sample.buckets.emplace_back(index, n);
      }
      const double mean =
          op.count == 0 ? 0.0 : op.sum_us / static_cast<double>(op.count);
      lat.add_row(
          {to_string(static_cast<service::MsgType>(op.op)),
           std::to_string(op.count), TextTable::num(mean / 1000.0, 2),
           TextTable::num(obs::histogram_quantile(sample, 0.50) / 1000.0, 2),
           TextTable::num(obs::histogram_quantile(sample, 0.95) / 1000.0, 2),
           TextTable::num(obs::histogram_quantile(sample, 0.99) / 1000.0, 2),
           TextTable::num(op.min_us / 1000.0, 2),
           TextTable::num(op.max_us / 1000.0, 2)});
    }
    lat.print(std::cout);
  }
  if (!s.slow.empty()) {
    std::printf("slowest requests:\n");
    TextTable slow({"seq", "op", "trace", "latency [ms]"});
    for (const service::StatsResponse::SlowRequest& r : s.slow) {
      char trace[24];
      std::snprintf(trace, sizeof(trace), "%016llx",
                    static_cast<unsigned long long>(r.trace_id));
      slow.add_row({std::to_string(r.seq),
                    to_string(static_cast<service::MsgType>(r.op)),
                    r.trace_id == 0 ? "-" : trace,
                    TextTable::num(r.latency_us / 1000.0, 2)});
    }
    slow.print(std::cout);
  }
}

/// `aapx client`: one request against a running `aapx serve`, with the
/// ServiceClient's full retry/backoff behavior.
int cmd_client(const Args& args) {
  const std::string endpoint = args.get("connect", "");
  if (endpoint.empty()) {
    throw std::runtime_error("--connect unix:<path>|tcp:<port> is required");
  }
  service::ClientOptions copt;
  copt.max_attempts = args.get_int("attempts", 8);
  service::ServiceClient client(endpoint, copt);
  if (args.has("trace-id")) {
    client.set_trace_id(to_u64_strict(args.get("trace-id", ""), "--trace-id"));
  }
  const std::string op = args.get("op", "ping");
  std::string err;

  if (op == "stats") {
    const auto stats = client.stats(&err);
    if (!stats.has_value()) throw std::runtime_error("stats: " + err);
    print_stats(*stats, endpoint, -1.0);
    return 0;
  }
  if (op == "ping") {
    if (!client.ping(&err)) throw std::runtime_error("ping: " + err);
    std::printf("pong from %s\n", endpoint.c_str());
    return 0;
  }
  if (op == "characterize") {
    service::CharacterizeRequest req;
    req.spec = spec_from(args);
    req.min_precision =
        args.get_int("min-precision", std::max(1, req.spec.width - 10));
    req.precision_step = args.get_int("step", 1);
    const StressMode mode = parse_mode(args.get("mode", "worst"));
    for (const double y : parse_list(args.get("years", "1,10"), "--years")) {
      if (y < 0.0) {
        throw std::runtime_error("--years entries must be non-negative");
      }
      req.scenarios.push_back({mode, y});
    }
    req.deadline_ms =
        static_cast<std::uint32_t>(args.get_int("deadline-ms", 0));
    const auto surface = client.characterize(req, &err);
    if (!surface.has_value()) throw std::runtime_error("characterize: " + err);
    print_surface(*surface);
    if (client.retries() > 0) {
      std::fprintf(stderr, "aapx client: %llu retry attempt(s)\n",
                   static_cast<unsigned long long>(client.retries()));
    }
    return 0;
  }
  if (op == "aged-delay") {
    service::AgedDelayRequest req;
    req.spec = spec_from(args);
    req.mode = parse_mode(args.get("mode", "worst"));
    req.years = args.get_years("years", 10.0);
    req.deadline_ms =
        static_cast<std::uint32_t>(args.get_int("deadline-ms", 0));
    const auto delay = client.aged_delay(req, &err);
    if (!delay.has_value()) throw std::runtime_error("aged-delay: " + err);
    std::printf("%s @ %s/%.3gy: %.3f ps\n", req.spec.name().c_str(),
                to_string(req.mode).c_str(), req.years, *delay);
    return 0;
  }
  if (op == "query") {
    service::LibraryQueryRequest req;
    if (args.has("kind")) {
      req.kind = static_cast<std::int32_t>(parse_kind(args.get("kind", "")));
    }
    req.width = args.get_int("width", 0);
    const auto surfaces = client.library_query(req, &err);
    if (!surfaces.has_value()) throw std::runtime_error("query: " + err);
    for (const engine::SurfacePayload& p : *surfaces) print_surface(p);
    std::printf("%zu surface(s) on %s\n", surfaces->size(), endpoint.c_str());
    return 0;
  }
  throw std::runtime_error("unknown --op " + op +
                           " (ping|characterize|aged-delay|query|stats)");
}

/// `aapx top`: a refreshing operational dashboard over the in-band stats
/// op — poll, render, sleep, repeat until SIGINT/SIGTERM (or once with
/// --once). Rates are completed-count deltas between polls.
int cmd_top(const Args& args) {
  const std::string endpoint = args.get("connect", "");
  if (endpoint.empty()) {
    throw std::runtime_error("--connect unix:<path>|tcp:<port> is required");
  }
  const double interval_s = args.get_double("interval", 2.0);
  if (interval_s <= 0.0) throw std::runtime_error("--interval must be > 0");
  const bool once = args.has("once");
  service::ClientOptions copt;
  copt.max_attempts = args.get_int("attempts", 8);
  service::ServiceClient client(endpoint, copt);

  std::uint64_t prev_completed = 0;
  auto prev_time = std::chrono::steady_clock::now();
  bool have_prev = false;
  while (true) {
    std::string err;
    const auto stats = client.stats(&err);
    if (!stats.has_value()) throw std::runtime_error("top: " + err);
    const auto now = std::chrono::steady_clock::now();
    double qps = -1.0;
    if (have_prev) {
      const double dt = std::chrono::duration<double>(now - prev_time).count();
      qps = dt > 0.0 ? static_cast<double>(stats->completed - prev_completed) /
                           dt
                     : 0.0;
    }
    if (!once) std::printf("\033[H\033[2J");  // home + clear, like top(1)
    print_stats(*stats, endpoint, qps);
    std::fflush(stdout);
    if (once) return 0;
    prev_completed = stats->completed;
    prev_time = now;
    have_prev = true;
    // Sleep in short slices so a shutdown signal ends the loop promptly.
    const auto wake = now + std::chrono::duration<double>(interval_s);
    while (std::chrono::steady_clock::now() < wake) {
      if (g_signal.load() != 0) {
        std::printf("\n");
        return 0;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    if (g_signal.load() != 0) return 0;
  }
}

/// `aapx servesim`: the chaos harness (src/service/chaos.hpp).
int cmd_servesim(const Args& args) {
  service::ChaosOptions copt;
  copt.work_dir = args.get("work-dir", ".");
  copt.self_exe = args.get("self-exe", "/proc/self/exe");
  copt.verbose = args.has("verbose");
  const std::string scenario = args.get("scenario", "all");
  if (scenario != "all") return service::run_chaos_scenario(scenario, copt);
  int rc = 0;
  for (const std::string& name : service::chaos_scenarios()) {
    rc |= service::run_chaos_scenario(name, copt);
  }
  return rc;
}

int cmd_help() {
  std::printf(R"(aapx — aging-induced approximations toolkit

commands:
  characterize    delay-vs-precision-vs-aging surface of one component
      --kind adder|multiplier|mac|clamp  --width N  --arch ripple|cla4|kogge-stone
      --mult-arch array|wallace  --min-precision K  --mode worst|balanced
      --years 1,10  [--save lib.txt]
      --mechanisms bti,hci,em,tddb     aging mechanism set (default bti)
      --hci-a A --hci-exp M            HCI drift prefactor / activity exponent
      --em-eta Y --em-beta B           EM Weibull scale [years] / shape
      --tddb-eta Y --tddb-beta B       TDDB Weibull scale [years] / shape
  flow            run the microarchitecture flow on an IDCT-shaped design
      --width N  --years Y  --mode worst|balanced  [--min-precision K]
  schedule        adaptive lifetime precision schedule
      --kind ... --width N  --grid 0.5,1,2,5,10  --mode worst|balanced
  export-liberty  write the cell library as Liberty
      --out f.lib  [--years Y --stress worst|balanced]
  export-verilog  write a synthesized component as structural Verilog
      --kind ... --width N  [--trunc K]  --out f.v
  export-sdf      write per-gate delays as SDF
      --kind ... --width N  [--years Y --stress ...]  --out f.sdf
  faultsim        fault-injection campaign on the closed-loop runtime
      --kind ... --width N  --arch ...  --grid 0.5,1,2,5,10  --years Y
      --epochs N  --vectors N  --verify-vectors N  [--open-loop]
      --accel R  --temp-step K --temp-from Y  --outlier-frac F --outlier-factor R
      --sensor-gain G --sensor-offset Y --sensor-noise SIGMA  --seed S
      --canary-margin M --canary-trip N
      --mechanisms bti,hci,em,tddb  [--hazard-failover H]  fail over to a
                                    spare when cumulative EM/TDDB hazard
                                    crosses H (0 = disabled)
  library         build / inspect / merge persistent store files
      build  --out lib.aapx  --kinds adder,multiplier  --widths 8,16
             --arch ... --mult-arch ... --mode worst|balanced --years 1,10
             [--min-precision K]
      query  --store lib.aapx  [--kind adder --width 8]
      info   --store lib.aapx
      merge  --out all.aapx  --inputs a.aapx,b.aapx
  report          summarize instrumentation artifacts from a previous run
      --trace f.trace     top spans by inclusive time, thread/wall stats
      --log f.jsonl       record-type counts + controller decision timeline
      --metrics f.json    cache hit rates, histogram quantiles (exact
                          count/sum/min/max) from the metrics snapshot
      --log-dir DIR       aggregate a server's per-request run logs
      --diff A B          per-metric delta/percent between two artifacts
                          (metrics snapshots or BENCH_*.json files)
      [--top N]           span rows to print (default 15)
      [--check]           exit nonzero if any artifact fails validation
  serve           characterization-as-a-service daemon (SIGTERM = drain)
      --listen unix:<path>|tcp:<port>   (tcp:0 = ephemeral, printed at start)
      --workers N  --sweep-threads N  --queue N  --retry-hint-ms MS
      --snapshot-interval SECONDS      periodic atomic --store snapshots
      --log-dir DIR                    per-request JSONL run logs
      --admin unix:<path>|tcp:<port>   HTTP plane: GET /metrics (Prometheus
                                       text), GET /healthz
      --request-trace FILE             stream per-request span trees (Chrome
                                       trace) with rotation
      --request-trace-rotate-kb KB     rotation threshold (default 8192)
      --slow-ring N                    slowest-requests ring size (default 16)
  client          one request against a running server (retry + backoff)
      --connect unix:<path>|tcp:<port>
      --op ping|characterize|aged-delay|query|stats
      --kind ... --width N --arch ...  --years 1,10  --mode worst|balanced
      --min-precision K --step S  --deadline-ms MS  --attempts N
      --trace-id ID       stamp a fixed trace id for request correlation
  top             live dashboard over a running server's stats op
      --connect unix:<path>|tcp:<port>
      --interval SECONDS  poll/refresh period (default 2)
      --once              print one snapshot and exit
  servesim        chaos harness for the service layer
      --scenario all|drop|slowloris|malformed|storm|kill|scrape
      --work-dir DIR  --self-exe PATH  --verbose
  help            this text

global options:
  --threads N | -j N   worker threads for parallel sweeps (default: all
                       cores)
  --store <file>       persistent DesignStore: warm this run from the file
                       if it exists, save the warmed store back on exit
                       (default: the AAPX_STORE environment variable)
  --trace <file>       write a Chrome trace-event JSON of this run
                       (chrome://tracing or Perfetto)
  --metrics <file>     write the metrics-registry snapshot as JSON
  --log <file>         write the structured JSONL run log (manifest,
                       campaign/epoch/control_event/sweep/sta records)
)");
  return 0;
}

}  // namespace

namespace {

int dispatch(const Context& ctx, const Args& args,
             const std::string& store_path) {
  if (args.command == "characterize") return cmd_characterize(ctx, args);
  if (args.command == "flow") return cmd_flow(ctx, args);
  if (args.command == "schedule") return cmd_schedule(ctx, args);
  if (args.command == "export-liberty") return cmd_export_liberty(args);
  if (args.command == "export-verilog") return cmd_export_verilog(ctx, args);
  if (args.command == "export-sdf") return cmd_export_sdf(ctx, args);
  if (args.command == "faultsim") return cmd_faultsim(ctx, args);
  if (args.command == "library") return cmd_library(ctx, args);
  if (args.command == "report") return cmd_report(args);
  if (args.command == "serve") return cmd_serve(ctx, args, store_path);
  if (args.command == "client") return cmd_client(args);
  if (args.command == "top") return cmd_top(args);
  if (args.command == "servesim") return cmd_servesim(args);
  if (args.command.empty() || args.command == "help" ||
      args.command == "--help") {
    return cmd_help();
  }
  std::fprintf(stderr, "aapx: unknown command '%s' (try 'aapx help')\n",
               args.command.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    reject_unknown_options(args);
    // The CLI is a single-tenant process with one root Context. Its
    // registry is the process one, so the --metrics snapshot also carries
    // what layers without a Context count (gatesim, the thread pool).
    Context::Options root;
    root.metrics = &obs::metrics();
    if (args.has("threads")) {
      root.threads = args.get_int("threads", 0);
      if (root.threads < 1) throw std::runtime_error("--threads must be >= 1");
    }
    // SIGINT/SIGTERM become cooperative cancellation: sweeps and campaign
    // epochs observe the token and unwind cleanly instead of the process
    // dying with an unsaved store. `report` keeps default signal behavior
    // (it only reads artifacts; instant death loses nothing).
    if (args.command != "report") {
      install_signal_handlers();
      root.cancel = &g_cancel;
    }
    const Context ctx(root);
    const std::string trace_path = args.get("trace", "");
    const std::string metrics_path = args.get("metrics", "");
    const std::string log_path = args.get("log", "");
    // `report` reads these paths as inputs; every other command writes them.
    const bool instrumented = args.command != "report";
    if (instrumented && !log_path.empty()) {
      if (!ctx.runlog().open(log_path)) {
        throw std::runtime_error("cannot open --log file " + log_path);
      }
      std::string argline = args.command;
      for (int i = 2; i < argc; ++i) {
        argline += ' ';
        argline += argv[i];
      }
      obs::JsonWriter mf;
      mf.field("command", args.command)
          .field("argv", argline)
          .field("threads", ctx.num_threads());
      obs::emit_manifest(ctx.runlog(), mf);
    }
    if (instrumented && !trace_path.empty()) obs::Tracer::instance().start();

    // Persistent store (`--store` / AAPX_STORE): warm the Context's
    // DesignStore before dispatch and save the warmed store back after, so
    // a second identical invocation is served from disk. Opened *after* the
    // run log so the store_load record lands in it — identically whether
    // the file exists yet or not. `report` only reads artifacts and
    // `library` manages store files explicitly; neither attaches one.
    std::string store_path = args.get("store", "");
    if (store_path.empty()) {
      if (const char* env = std::getenv("AAPX_STORE")) store_path = env;
    }
    static const std::set<std::string> kStoreCommands = {
        "characterize", "flow",       "schedule", "export-liberty",
        "export-verilog", "export-sdf", "faultsim", "serve"};
    const bool uses_store =
        !store_path.empty() && kStoreCommands.count(args.command) != 0;
    if (uses_store) ctx.store().open(store_path);

    int rc = 0;
    try {
      rc = dispatch(ctx, args, uses_store ? store_path : std::string());
    } catch (const CancelledError& e) {
      // A shutdown signal unwound the flow mid-sweep/mid-epoch. The store
      // holds only fully-built artifacts (insertions are transactional),
      // so snapshotting the partial progress is always safe — the next
      // run warm-starts from whatever completed.
      const int signum = g_signal.load();
      const bool saved = uses_store && ctx.store().save(store_path);
      std::fprintf(stderr,
                   "aapx: interrupted by signal %d (%s)%s\n", signum,
                   e.what(),
                   saved ? (", warm store snapshot saved to " + store_path)
                               .c_str()
                         : "");
      return signum > 0 ? 128 + signum : 1;
    }

    if (uses_store && !ctx.store().save(store_path)) {
      return rc != 0 ? rc : 1;
    }

    if (instrumented && !trace_path.empty()) {
      if (obs::Tracer::instance().stop_and_write_file(trace_path)) {
        std::fprintf(stderr, "aapx: trace written to %s\n", trace_path.c_str());
      } else {
        std::fprintf(stderr, "aapx: cannot write --trace file %s\n",
                     trace_path.c_str());
        return 1;
      }
    }
    if (instrumented && !metrics_path.empty()) {
      std::ofstream os(metrics_path);
      if (!os) {
        std::fprintf(stderr, "aapx: cannot write --metrics file %s\n",
                     metrics_path.c_str());
        return 1;
      }
      ctx.metrics().write_json(os);
      std::fprintf(stderr, "aapx: metrics written to %s\n",
                   metrics_path.c_str());
    }
    if (instrumented && !log_path.empty()) {
      ctx.runlog().close();
      std::fprintf(stderr, "aapx: run log written to %s\n", log_path.c_str());
    }
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "aapx: %s\n", e.what());
    return 1;
  }
}
