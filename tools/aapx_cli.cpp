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
//   aapx library build --out lib.aapx --kinds adder,multiplier --widths 8,16
//   aapx serve --listen tcp:7471 --store lib.aapx --snapshot-interval 30
//   aapx client --connect tcp:7471 --op characterize --width 16
//
// One table, kCommands near the end of this file, declares every subcommand
// and `library` action: its handler, whether main attaches --store around
// it, whether it writes --trace/--metrics/--log, and every option it takes
// with the option's value shape and help line. Parsing, the argv-indexed
// diagnostics, `aapx help` and dispatch all read that table, so an option
// is accepted exactly where it is declared and its value is checked before
// any work starts. The computing subcommands build the generated
// NanGate-45-like library and the calibrated aging model.
//
// Signal discipline: SIGINT/SIGTERM trip a process-wide CancelToken that
// long-running flows (characterize sweeps, faultsim epochs) check
// cooperatively. The interrupted run saves its warmed --store snapshot,
// prints a one-line diagnostic and exits 128+signum — never a lost store,
// never a torn file (snapshots are temp+rename). `aapx serve` instead
// drains gracefully and exits 0: shutdown is its normal lifecycle.
#include <signal.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "aging/aging_model.hpp"
#include "cell/liberty.hpp"
#include "core/adaptive.hpp"
#include "engine/context.hpp"
#include "engine/design_store.hpp"
#include "engine/persist.hpp"
#include "core/microarch.hpp"
#include "netlist/stats.hpp"
#include "netlist/verilog.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/runlog.hpp"
#include "runtime/runtime.hpp"
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

/// What an option's value looks like. Every shape but `flag` and `diff`
/// consumes the next argv token (or "" when the next token is an option).
enum class Shape {
  flag,     ///< presence only; a token after it is a parse error
  integer,  ///< int >= Opt::min
  real,     ///< finite double
  years,    ///< finite double >= 0
  u64,      ///< unsigned 64-bit integer
  text,     ///< any string (paths, endpoints)
  choice,   ///< one of Opt::choices
  diff,     ///< every token up to the next option, joined comma-style
};

struct Choice {
  const char* text;
  int value;  ///< the enum value it selects
};

struct Opt {
  const char* name;
  Shape shape;
  const char* meta;  ///< value placeholder in `aapx help`
  const char* help;
  int min = 0;        ///< integer: smallest accepted value
  bool list = false;  ///< a comma-separated list of `shape` values
  std::span<const Choice> choices = {};
};

using Opts = std::vector<Opt>;

Opts operator+(Opts a, const Opts& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

// Table shorthands: name, [min,] value placeholder for `aapx help`, help.
using Text = const char*;
template <Shape kShape>
Opt plain(Text name, Text meta, Text help) {
  return {name, kShape, meta, help};
}
constexpr auto real = plain<Shape::real>, years = plain<Shape::years>,
               u64 = plain<Shape::u64>, str = plain<Shape::text>;
Opt flag(Text name, Text help) { return {name, Shape::flag, "", help}; }
Opt integer(Text name, int min, Text meta, Text help) {
  return {name, Shape::integer, meta, help, min};
}
Opt choice(Text name, std::span<const Choice> choices, Text help) {
  return {name, Shape::choice, "", help, 0, false, choices};
}
Opt csv(Opt item) {
  item.list = true;
  return item;
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

/// "a|b|c"; an alias (same value as the entry before it) is left out.
std::string choice_names(const Opt& opt) {
  std::string out;
  for (std::size_t i = 0; i < opt.choices.size(); ++i) {
    if (i > 0 && opt.choices[i].value == opt.choices[i - 1].value) continue;
    if (!out.empty()) out += '|';
    out += opt.choices[i].text;
  }
  return out;
}

int choice_value(const Opt& opt, const std::string& text) {
  for (const Choice& c : opt.choices) {
    if (text == c.text) return c.value;
  }
  throw std::runtime_error("unknown --" + std::string(opt.name) + " " + text +
                           " (" + choice_names(opt) + ")");
}

/// The one strict conversion of an option value: the whole token must be a
/// T, so "--width banana", "--years 1x", "--seed -1" and "--years nan" are
/// one-line errors, not zeros, wrapped counts or NaN lifetimes.
template <class T>
T convert(const Opt& opt, const std::string& text) {
  if constexpr (std::is_same_v<T, std::string>) {
    return text;
  } else if constexpr (std::is_enum_v<T>) {
    return static_cast<T>(choice_value(opt, text));
  } else {
    const std::string flag = std::string("--") + opt.name;
    T value{};
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    bool ok = !text.empty() && ec == std::errc() && ptr == end;
    if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(value);
    if (!ok) throw std::runtime_error("bad " + flag + " value '" + text + "'");
    if constexpr (std::is_same_v<T, int>) {
      if (value < opt.min) {
        throw std::runtime_error(flag + " must be >= " +
                                 std::to_string(opt.min));
      }
    }
    if constexpr (std::is_floating_point_v<T>) {
      if (opt.shape == Shape::years && value < 0.0) {
        throw std::runtime_error(flag + " must be non-negative, got " + text);
      }
    }
    return value;
  }
}

/// Parse-time check of one argv value against its option's shape.
void check_value(const Opt& opt, const std::string& value) {
  const auto check_item = [&opt](const std::string& item) {
    switch (opt.shape) {
      case Shape::integer: (void)convert<int>(opt, item); break;
      case Shape::real:
      case Shape::years: (void)convert<double>(opt, item); break;
      case Shape::u64: (void)convert<std::uint64_t>(opt, item); break;
      case Shape::choice: (void)choice_value(opt, item); break;
      case Shape::flag:
      case Shape::text:
      case Shape::diff: break;
    }
  };
  if (!opt.list) return check_item(value);
  const std::vector<std::string> items = split_csv(value);
  if (items.empty()) {
    throw std::runtime_error("--" + std::string(opt.name) + " list is empty");
  }
  for (const std::string& item : items) check_item(item);
}

/// Accepted by every command.
const Opts kGlobalOptions = {
    integer("threads", 1, "N", "worker threads (default: all cores); -j N"),
    str("store", "FILE", "persistent DesignStore (default: $AAPX_STORE)")};

/// Outputs every command but `report` writes (report reads them instead).
const Opts kInstrumentOptions = {
    str("trace", "FILE", "write a Chrome trace-event JSON (Perfetto)"),
    str("metrics", "FILE", "write the metrics-registry snapshot as JSON"),
    str("log", "FILE", "write the structured JSONL run log")};

struct Args;

struct Command {
  const char* name;     ///< "characterize", ..., "library build", ...
  const char* summary;  ///< one line in `aapx help`
  int (*run)(const Context& ctx, const Args& args);
  bool store;         ///< main warms --store before the run, saves it after
  bool instrumented;  ///< writes --trace/--metrics/--log; SIGINT cancels it
  Opts options;       ///< its own options, in help order

  const Opt* find(const std::string& option) const {
    for (const Opts* group : {&options, &kGlobalOptions, &kInstrumentOptions}) {
      if (group == &kInstrumentOptions && !instrumented) continue;
      for (const Opt& opt : *group) {
        if (option == opt.name) return &opt;
      }
    }
    return nullptr;
  }
};

/// One parsed command line. Values were checked against their option's
/// shape at parse time, so the getters' conversions cannot fail.
struct Args {
  std::string command;           ///< argv[1] as typed (the manifest's)
  const Command* cmd = nullptr;  ///< nullptr: unknown command
  std::map<std::string, std::string> values;
  std::string store;  ///< the store file main attached ("" = none)

  bool has(const std::string& name) const { return values.count(name) != 0; }
  std::string text(const std::string& name) const {
    const auto it = values.find(name);
    return it == values.end() ? std::string() : it->second;
  }
  template <class T>
  T get(const std::string& name, T fallback) const {
    const auto it = values.find(name);
    return it == values.end() ? fallback
                              : convert<T>(*cmd->find(name), it->second);
  }
  template <class T>
  std::vector<T> list(const std::string& name, std::vector<T> fallback) const {
    const auto it = values.find(name);
    if (it == values.end()) return fallback;
    std::vector<T> out;
    for (const std::string& item : split_csv(it->second)) {
      out.push_back(convert<T>(*cmd->find(name), item));
    }
    return out;
  }
};

constexpr Choice kKinds[] = {
    {"adder", static_cast<int>(ComponentKind::adder)},
    {"multiplier", static_cast<int>(ComponentKind::multiplier)},
    {"mult", static_cast<int>(ComponentKind::multiplier)},
    {"mac", static_cast<int>(ComponentKind::mac)},
    {"clamp", static_cast<int>(ComponentKind::clamp)}};
constexpr Choice kAdderArchs[] = {
    {"ripple", static_cast<int>(AdderArch::ripple)},
    {"cla4", static_cast<int>(AdderArch::cla4)},
    {"kogge-stone", static_cast<int>(AdderArch::kogge_stone)},
    {"kogge_stone", static_cast<int>(AdderArch::kogge_stone)}};
constexpr Choice kMultArchs[] = {
    {"array", static_cast<int>(MultArch::array)},
    {"wallace", static_cast<int>(MultArch::wallace)}};
constexpr Choice kModes[] = {
    {"worst", static_cast<int>(StressMode::worst)},
    {"balanced", static_cast<int>(StressMode::balanced)}};

const Opt kWidth = integer("width", 0, "N", "operand width in bits");
const Opt kArch = choice("arch", kAdderArchs, "adder architecture");
const Opt kMultArch = choice("mult-arch", kMultArchs, "multiplier arch");
const Opt kMinPrecision = integer("min-precision", 1, "K", "lowest precision");
const Opt kMode = choice("mode", kModes, "stress mode (default worst)");
const Opt kYearsList = csv(years("years", "1,10", "aging horizons in years"));
const Opt kGrid = csv(real("grid", "0.5,1,2,5,10", "schedule grid in years"));
const Opt kOut = str("out", "FILE", "output file (required)");

const Opts kComponent = {
    choice("kind", kKinds, "component kind (default adder)"), kWidth,
    integer("trunc", 0, "K", "truncated low bits"), kArch, kMultArch};

const Opts kAging = {
    csv(str("mechanisms", "bti,hci,em,tddb", "aging mechanisms (default bti)")),
    real("hci-a", "A", "HCI drift prefactor"),
    real("hci-exp", "M", "HCI activity exponent"),
    real("em-eta", "Y", "EM Weibull scale [years]"),
    real("em-beta", "B", "EM Weibull shape"),
    real("tddb-eta", "Y", "TDDB Weibull scale [years]"),
    real("tddb-beta", "B", "TDDB Weibull shape")};

/// Builds the aging model a command runs under: `--mechanisms bti,hci,em,tddb`
/// selects the mechanism set (default BTI only), and per-mechanism knobs
/// override the calibrated defaults. Errors surface as one-line parse
/// diagnostics.
AgingModel model_from(const Args& args) {
  AgingParams params;
  if (args.has("mechanisms")) {
    params.mechanisms.clear();
    for (const std::string& item : args.list<std::string>("mechanisms", {})) {
      try {
        params.mechanisms.push_back(mechanism_from_string(item));
      } catch (const std::invalid_argument& e) {
        throw std::runtime_error("--mechanisms: " + std::string(e.what()));
      }
    }
  }
  params.hci.a_hci = args.get("hci-a", params.hci.a_hci);
  params.hci.activity_exponent =
      args.get("hci-exp", params.hci.activity_exponent);
  params.em.eta_ref_years = args.get("em-eta", params.em.eta_ref_years);
  params.em.beta = args.get("em-beta", params.em.beta);
  params.tddb.eta_ref_years = args.get("tddb-eta", params.tddb.eta_ref_years);
  params.tddb.beta = args.get("tddb-beta", params.tddb.beta);
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

ComponentSpec spec_from(const Args& args, int width = 32,
                        AdderArch arch = AdderArch::cla4) {
  ComponentSpec spec;
  spec.kind = args.get("kind", ComponentKind::adder);
  spec.width = args.get("width", width);
  spec.truncated_bits = args.get("trunc", 0);
  spec.adder_arch = args.get("arch", arch);
  spec.mult_arch = args.get("mult-arch", MultArch::array);
  return spec;
}

/// The `--mode` x `--years` scenarios of a characterization sweep.
std::vector<AgingScenario> scenarios_from(const Args& args) {
  const StressMode mode = args.get("mode", StressMode::worst);
  std::vector<AgingScenario> scenarios;
  for (const double y : args.list<double>("years", {1.0, 10.0})) {
    scenarios.push_back({mode, y});
  }
  return scenarios;
}

std::ofstream open_out(const Args& args) {
  const std::string path = args.text("out");
  if (path.empty()) throw std::runtime_error("--out <file> is required");
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot open " + path);
  return os;
}

/// The delay-vs-precision table of one characterization surface.
void print_surface_table(const ComponentCharacterization& c) {
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

/// Prints one persisted or served surface: its spec line, then the same
/// table `aapx characterize` prints.
void print_surface(const engine::SurfacePayload& p) {
  std::printf("%s (min precision %d, step %d)\n",
              p.surface.base.name().c_str(), p.min_precision,
              p.precision_step);
  print_surface_table(p.surface);
}

int cmd_characterize(const Context& ctx, const Args& args) {
  const CellLibrary lib = make_nangate45_like();
  const ComponentSpec spec = spec_from(args);
  CharacterizerOptions copt;
  copt.min_precision = args.get("min-precision", std::max(1, spec.width - 10));
  const AgingModel model = model_from(args);
  const ComponentCharacterizer ch(ctx, lib, model, copt);
  const std::vector<AgingScenario> scenarios = scenarios_from(args);
  for (const AgingScenario& s : scenarios) {
    validate_aging_horizon(lib, model, s.years);
  }
  const ComponentCharacterization c = ch.characterize(spec, scenarios);
  print_surface_table(c);
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const int k = c.required_precision(i);
    std::printf("%s: guardband-free precision = %s\n",
                scenarios[i].label().c_str(),
                k > 0 ? std::to_string(k).c_str() : "unreachable");
  }
  return 0;
}

int cmd_flow(const Context& ctx, const Args& args) {
  const CellLibrary lib = make_nangate45_like();
  const int width = args.get("width", 32);
  CharacterizerOptions copt;
  copt.min_precision = args.get("min-precision", std::max(1, width - 8));
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
  fopt.scenario = {args.get("mode", StressMode::worst),
                   args.get("years", 10.0)};
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
  copt.min_precision = args.get("min-precision", std::max(1, spec.width - 10));
  const AgingModel model = model_from(args);
  const ComponentCharacterizer ch(ctx, lib, model, copt);
  const AdaptiveScheduler scheduler(ch);
  const std::vector<double> grid = args.list<double>("grid", {1, 2, 5, 10});
  for (const double y : grid) validate_aging_horizon(lib, model, y);
  const AdaptiveSchedule plan =
      scheduler.plan(spec, args.get("mode", StressMode::worst), grid);
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

int cmd_export_liberty(const Context&, const Args& args) {
  const CellLibrary lib = make_nangate45_like();
  std::ofstream os = open_out(args);
  const double years = args.get("years", 0.0);
  if (years > 0.0) {
    const AgingModel model;
    validate_aging_horizon(lib, model, years);
    const DegradationAwareLibrary aged(lib, model, years);
    const StressMode mode = args.get("stress", StressMode::worst);
    const StressPair stress =
        mode == StressMode::worst ? kWorstCaseStress : kBalancedStress;
    write_aged_liberty(aged, stress, os);
    std::printf("aged liberty (%g years, %s stress) written to %s\n", years,
                to_string(mode).c_str(), args.text("out").c_str());
  } else {
    write_liberty(lib, os);
    std::printf("fresh liberty written to %s\n", args.text("out").c_str());
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
              args.text("out").c_str());
  return 0;
}

int cmd_export_sdf(const Context& ctx, const Args& args) {
  const CellLibrary lib = make_nangate45_like();
  const ComponentSpec spec = spec_from(args);
  const Netlist nl = make_component(ctx, lib, spec);
  std::ofstream os = open_out(args);
  const double years = args.get("years", 0.0);
  if (years > 0.0) {
    const AgingModel model;
    validate_aging_horizon(lib, model, years);
    const DegradationAwareLibrary aged(lib, model, years);
    const StressProfile stress = StressProfile::uniform(
        args.get("stress", StressMode::worst), nl.num_gates());
    write_aged_sdf(nl, aged, stress, os, spec.name());
  } else {
    write_sdf(nl, os, spec.name());
  }
  std::printf("SDF for %s (%s) written to %s\n", spec.name().c_str(),
              years > 0.0 ? "aged" : "fresh", args.text("out").c_str());
  return 0;
}

int cmd_faultsim(const Context& ctx, const Args& args) {
  const CellLibrary lib = make_nangate45_like();

  RuntimeOptions ropt;
  ropt.component = spec_from(args, 16, AdderArch::ripple);
  ropt.min_precision =
      args.get("min-precision", std::max(1, ropt.component.width - 10));
  ropt.schedule_grid = args.list<double>("grid", {0.5, 1, 2, 5, 10});
  const AgingModel model = model_from(args);
  const ClosedLoopRuntime runtime(ctx, lib, model, ropt);

  FaultScenario fault;
  fault.aging_acceleration = args.get("accel", 1.0);
  fault.temp_step_kelvin = args.get("temp-step", 0.0);
  fault.temp_step_from_years = args.get("temp-from", 0.0);
  fault.gate_outlier_fraction = args.get("outlier-frac", 0.0);
  fault.gate_outlier_factor = args.get("outlier-factor", 1.0);
  fault.sensor_gain = args.get("sensor-gain", 1.0);
  fault.sensor_offset_years = args.get("sensor-offset", 0.0);
  fault.sensor_noise_sigma_years = args.get("sensor-noise", 0.0);
  fault.seed = args.get("seed", std::uint64_t{1});
  const FaultInjector faults(ctx, lib, model, fault);

  CampaignOptions copt;
  copt.lifetime_years = args.get("years", 10.0);
  copt.epochs = args.get("epochs", 16);
  copt.vectors_per_epoch = args.get("vectors", std::size_t{96});
  copt.verify_vectors = args.get("verify-vectors", std::size_t{48});
  copt.closed_loop = !args.has("open-loop");
  copt.monitor.window = copt.vectors_per_epoch;
  copt.monitor.canary_margin = args.get("canary-margin", 0.97);
  copt.monitor.canary_trip = args.get("canary-trip", std::size_t{2});
  copt.controller.hazard_failover_threshold =
      args.get("hazard-failover", 0.0);

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

/// Parses a JSONL run log and validates every record against the schema;
/// errors name the record they belong to.
std::vector<obs::JsonValue> read_run_log(std::istream& is,
                                         std::vector<std::string>* errors) {
  std::vector<obs::JsonValue> records = obs::parse_jsonl(is, errors);
  for (std::size_t i = 0; i < records.size(); ++i) {
    for (const std::string& e : obs::validate_log_record(records[i])) {
      errors->push_back("record " + std::to_string(i + 1) + ": " + e);
    }
  }
  return records;
}

/// A two-column name/count table.
template <class Rows>
void print_counts(const char* name, const char* count, const Rows& rows) {
  TextTable table({name, count});
  for (const auto& [key, n] : rows) table.add_row({key, std::to_string(n)});
  table.print(std::cout);
}

std::string read_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot open " + path);
  std::stringstream buf;
  buf << is.rdbuf();
  return buf.str();
}

/// Parses one `report` input (none for an empty path); a JSON syntax error
/// counts as a validation failure.
std::optional<obs::JsonValue> read_json(const char* what,
                                        const std::string& path,
                                        std::size_t* failures) {
  if (path.empty()) return std::nullopt;
  std::string err;
  auto doc = obs::json_parse(read_file(path), &err);
  if (!doc) {
    std::printf("%s %s: JSON parse error: %s\n", what, path.c_str(),
                err.c_str());
    ++*failures;
  }
  return doc;
}

/// `aapx report --diff A B`: per-metric comparison of two JSON artifacts
/// (metrics snapshots or BENCH_*.json files) — absolute and relative deltas,
/// with metrics present on only one side called out.
int cmd_report_diff(const std::vector<std::string>& paths) {
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
    std::vector<obs::JsonValue> recs = read_run_log(is, &errors);
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
  if (!s.ops.empty()) print_counts("op", "requests", s.ops);
  if (!s.outcomes.empty()) print_counts("outcome", "count", s.outcomes);
  return failures;
}

int cmd_report(const Context&, const Args& args) {
  if (args.has("diff")) return cmd_report_diff(split_csv(args.text("diff")));
  const std::string trace_path = args.text("trace");
  const std::string log_path = args.text("log");
  const std::string metrics_path = args.text("metrics");
  const std::string log_dir = args.text("log-dir");
  if (trace_path.empty() && log_path.empty() && metrics_path.empty() &&
      log_dir.empty()) {
    throw std::runtime_error(
        "report: pass at least one of --trace, --log, --metrics, --log-dir, "
        "--diff");
  }
  const bool check = args.has("check");
  const int top = args.get("top", 15);
  std::size_t failures = 0;

  if (const auto doc = read_json("trace", trace_path, &failures)) {
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

  if (!log_path.empty()) {
    std::ifstream is(log_path);
    if (!is) throw std::runtime_error("cannot open " + log_path);
    std::vector<std::string> errors;
    const std::vector<obs::JsonValue> records = read_run_log(is, &errors);
    for (const std::string& e : errors) {
      std::printf("log %s: %s\n", log_path.c_str(), e.c_str());
    }
    failures += errors.size();
    const obs::LogSummary ls = obs::summarize_log(records);
    std::printf("run log: %zu records\n", records.size());
    print_counts("record type", "count", ls.type_counts);
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

  if (const auto doc = read_json("metrics", metrics_path, &failures)) {
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
      print_counts("counter", "count", aging);
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

/// `aapx library build`: characterize a cross-product of components into the
/// Context's DesignStore and save it as one distributable store file — the
/// materialized form of the paper's aging-induced approximation library.
int cmd_library_build(const Context& ctx, const Args& args) {
  const std::string out = args.text("out");
  if (out.empty()) throw std::runtime_error("--out <file> is required");
  const CellLibrary lib = make_nangate45_like();
  const AgingModel model = model_from(args);
  const std::vector<AgingScenario> scenarios = scenarios_from(args);
  for (const AgingScenario& s : scenarios) {
    validate_aging_horizon(lib, model, s.years);
  }

  std::size_t surfaces = 0;
  for (const ComponentKind kind :
       args.list<ComponentKind>("kinds", {ComponentKind::adder})) {
    for (const int width : args.list<int>("widths", {8})) {
      ComponentSpec spec = spec_from(args, width);
      spec.kind = kind;
      CharacterizerOptions copt;
      copt.min_precision =
          args.get("min-precision", std::max(1, width - 10));
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

/// Reads a whole store file for the `library` tools, reporting its
/// warnings (damaged records, foreign format) on stderr.
engine::StoreFileData load_store(const std::string& path) {
  engine::StoreFileData data = engine::load_store_file(path);
  if (!data.file_found) throw std::runtime_error("cannot open " + path);
  for (const std::string& w : data.warnings) {
    std::fprintf(stderr, "aapx store: %s\n", w.c_str());
  }
  return data;
}

/// `aapx library query`: print surfaces straight out of a store file.
int cmd_library_query(const Context&, const Args& args) {
  const std::string path = args.text("store");
  if (path.empty()) throw std::runtime_error("--store <file> is required");
  const engine::StoreFileData data = load_store(path);
  const bool filter_kind = args.has("kind");
  const ComponentKind kind = args.get("kind", ComponentKind::adder);
  const int width = args.get("width", 0);

  std::size_t shown = 0;
  // load_store_file keeps surface records only (engine/persist.hpp).
  for (const engine::RawRecord& rec : data.records) {
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

/// `aapx library info`: header + per-kind record census. The header fields
/// are decoded before the compatibility checks, so a file from a
/// *different* build or format version still reports itself.
int cmd_library_info(const Context&, const Args& args) {
  const std::string path = args.text("store");
  if (path.empty()) throw std::runtime_error("--store <file> is required");
  const engine::StoreFileData data = load_store(path);
  if (!data.header_read) {
    throw std::runtime_error(path + " is not an aapx store file");
  }
  std::printf("store file:     %s (%llu bytes)\n", path.c_str(),
              static_cast<unsigned long long>(data.bytes_read));
  std::printf("format version: %u (this binary: %u)\n", data.format_version,
              engine::kStoreFormatVersion);
  std::printf("build:          %016llx (this binary: %016llx)%s\n",
              static_cast<unsigned long long>(data.build_fp),
              static_cast<unsigned long long>(engine::build_fingerprint()),
              data.build_fp == engine::build_fingerprint()
                  ? ""
                  : "  [foreign build: records unusable here]");
  std::printf("records:        %llu\n",
              static_cast<unsigned long long>(data.record_count));

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
int cmd_library_merge(const Context&, const Args& args) {
  const std::string out = args.text("out");
  if (out.empty()) throw std::runtime_error("--out <file> is required");
  const std::vector<std::string> inputs = args.list<std::string>("inputs", {});
  if (inputs.empty()) {
    throw std::runtime_error("--inputs <a.aapx,b.aapx,...> is required");
  }
  // Every loaded record is a surface, so the record key alone identifies it.
  std::map<std::uint64_t, std::string> merged;
  std::size_t conflicts = 0;
  for (const std::string& input : inputs) {
    engine::StoreFileData data = load_store(input);
    for (engine::RawRecord& rec : data.records) {
      const auto it = merged.find(rec.key);
      if (it == merged.end()) {
        merged.emplace(rec.key, std::move(rec.payload));
      } else if (it->second != rec.payload) {
        std::fprintf(stderr,
                     "aapx store: %s: conflicting surface record %016llx "
                     "(keeping first)\n",
                     input.c_str(), static_cast<unsigned long long>(rec.key));
        ++conflicts;
      }
    }
  }
  std::vector<engine::RawRecord> records;
  records.reserve(merged.size());
  for (auto& [key, payload] : merged) {
    records.push_back({engine::RecordKind::surface, key, std::move(payload)});
  }
  // std::map iterates key-sorted already — write is deterministic.
  if (engine::write_store_file(out, records) == 0) {
    throw std::runtime_error("cannot write store file " + out);
  }
  std::printf("%zu record(s) from %zu file(s) -> %s (%zu conflict(s))\n",
              records.size(), inputs.size(), out.c_str(), conflicts);
  return 0;
}

/// `aapx serve`: long-running characterization service over the Context's
/// DesignStore. Shutdown is SIGINT/SIGTERM → graceful drain → snapshot →
/// exit 128+signal, the same convention as every other interrupted
/// subcommand (see src/service/server.hpp for the robustness contract).
int cmd_serve(const Context& ctx, const Args& args) {
  service::ServerOptions sopts;
  sopts.listen = args.get("listen", sopts.listen);
  sopts.workers = args.get("workers", sopts.workers);
  sopts.sweep_threads = args.get("sweep-threads", sopts.sweep_threads);
  sopts.queue_capacity = args.get("queue", sopts.queue_capacity);
  sopts.retry_hint_ms = args.get("retry-hint-ms", sopts.retry_hint_ms);
  sopts.snapshot_interval_s =
      args.get("snapshot-interval", sopts.snapshot_interval_s);
  sopts.store_path = args.store;
  sopts.log_dir = args.text("log-dir");

  service::Server server(ctx, sopts);
  std::string err;
  if (!server.start(&err)) throw std::runtime_error("serve: " + err);
  g_server.store(&server);
  std::printf("aapx serve: listening on %s (%d workers, queue %zu%s)\n",
              server.endpoint().c_str(), sopts.workers, sopts.queue_capacity,
              args.store.empty() ? "" : (", store " + args.store).c_str());
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

/// Renders one StatsResponse as the operator-facing summary `aapx client
/// --op stats` prints.
void print_stats(const service::StatsResponse& s,
                 const std::string& endpoint) {
  std::printf("aapx serve @ %s — up %.1f s\n", endpoint.c_str(), s.uptime_s);
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
      const obs::HistogramSample sample = op.sample();
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
/// `client --op` values; cmd_client dispatches on the name.
constexpr Choice kClientOps[] = {
    {"ping", 0}, {"characterize", 1}, {"aged-delay", 2}, {"query", 3},
    {"stats", 4}};

int cmd_client(const Context&, const Args& args) {
  const std::string endpoint = args.text("connect");
  if (endpoint.empty()) {
    throw std::runtime_error("--connect unix:<path>|tcp:<port> is required");
  }
  service::ClientOptions copt;
  copt.max_attempts = args.get("attempts", copt.max_attempts);
  service::ServiceClient client(endpoint, copt);
  if (args.has("trace-id")) {
    client.set_trace_id(args.get("trace-id", std::uint64_t{0}));
  }
  const std::string op = args.get("op", std::string("ping"));
  std::string err;

  if (op == "stats") {
    const auto stats = client.stats(&err);
    if (!stats.has_value()) throw std::runtime_error("stats: " + err);
    print_stats(*stats, endpoint);
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
        args.get("min-precision", std::max(1, req.spec.width - 10));
    req.precision_step = args.get("step", 1);
    req.scenarios = scenarios_from(args);
    req.deadline_ms = args.get("deadline-ms", std::uint32_t{0});
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
    req.mode = args.get("mode", StressMode::worst);
    const std::vector<double> years = args.list<double>("years", {10.0});
    if (years.size() != 1) {
      throw std::runtime_error("--op aged-delay takes one --years value");
    }
    req.years = years.front();
    req.deadline_ms = args.get("deadline-ms", std::uint32_t{0});
    const auto delay = client.aged_delay(req, &err);
    if (!delay.has_value()) throw std::runtime_error("aged-delay: " + err);
    std::printf("%s @ %s/%.3gy: %.3f ps\n", req.spec.name().c_str(),
                to_string(req.mode).c_str(), req.years, *delay);
    return 0;
  }
  // --op query
  service::LibraryQueryRequest req;
  if (args.has("kind")) {
    req.kind =
        static_cast<std::int32_t>(args.get("kind", ComponentKind::adder));
  }
  req.width = args.get("width", 0);
  const auto surfaces = client.library_query(req, &err);
  if (!surfaces.has_value()) throw std::runtime_error("query: " + err);
  for (const engine::SurfacePayload& p : *surfaces) print_surface(p);
  std::printf("%zu surface(s) on %s\n", surfaces->size(), endpoint.c_str());
  return 0;
}

int cmd_help(const Context& ctx, const Args& args);

const Opts kExportAged = {
    years("years", "Y", "age the cells by Y years (default 0 = fresh)"),
    choice("stress", kModes, "stress mode of the aged cells")};

// Columns: name, summary, handler, attaches --store, writes
// --trace/--metrics/--log, options.
const std::vector<Command> kCommands = {
    {"characterize", "delay-vs-precision-vs-aging surface of one component",
     cmd_characterize, true, true,
     kComponent + Opts{kMinPrecision, kMode, kYearsList} + kAging},
    {"flow", "microarchitecture flow on an IDCT-shaped design", cmd_flow,
     true, true,
     Opts{kWidth, years("years", "Y", "lifetime (default 10)"), kMode,
          kMinPrecision} +
         kAging},
    {"schedule", "adaptive lifetime precision schedule", cmd_schedule, true,
     true, kComponent + Opts{kMinPrecision, kMode, kGrid} + kAging},
    {"export-liberty", "write the cell library as Liberty", cmd_export_liberty,
     true, true, Opts{kOut} + kExportAged},
    {"export-verilog", "write a synthesized component as structural Verilog",
     cmd_export_verilog, true, true, kComponent + Opts{kOut}},
    {"export-sdf", "write per-gate delays as SDF", cmd_export_sdf, true, true,
     kComponent + kExportAged + Opts{kOut}},
    {"faultsim", "fault-injection campaign on the closed-loop runtime",
     cmd_faultsim, true, true,
     kComponent +
         Opts{kMinPrecision, kGrid,
              real("accel", "R", "aging acceleration (default 1)"),
              real("temp-step", "K", "temperature step in kelvin"),
              years("temp-from", "Y", "age of the temperature step"),
              real("outlier-frac", "F", "fraction of outlier gates"),
              real("outlier-factor", "R", "delay factor of outlier gates"),
              real("sensor-gain", "G", "aging-sensor gain (default 1)"),
              real("sensor-offset", "Y", "aging-sensor offset in years"),
              real("sensor-noise", "SIGMA", "aging-sensor noise in years"),
              u64("seed", "S", "fault-injection seed (default 1)"),
              years("years", "Y", "campaign lifetime (default 10)"),
              integer("epochs", 1, "N", "epochs (default 16)"),
              integer("vectors", 1, "N", "vectors per epoch (default 96)"),
              integer("verify-vectors", 1, "N", "check vectors (default 48)"),
              flag("open-loop", "never reconfigure (the failing baseline)"),
              real("canary-margin", "M", "canary margin (default 0.97)"),
              integer("canary-trip", 0, "N", "canary trip count (default 2)"),
              real("hazard-failover", "H",
                   "fail over to a spare at EM/TDDB hazard H (0 = off)")} +
         kAging},
    {"library build", "characterize components into one store file",
     cmd_library_build, false, true,
     Opts{kOut, csv(choice("kinds", kKinds, "component kinds")),
          csv(integer("widths", 1, "8,16", "operand widths (default 8)")),
          kArch, kMultArch, kMinPrecision, kMode, kYearsList} +
         kAging},
    {"library query", "print the surfaces in the --store file",
     cmd_library_query, false, true,
     {choice("kind", kKinds, "only this kind"),
      integer("width", 0, "N", "only this width (0 = all)")}},
    {"library info", "header and record census of the --store file",
     cmd_library_info, false, true, {}},
    {"library merge", "union store files, first wins on conflicts",
     cmd_library_merge, false, true,
     {kOut, csv(str("inputs", "a.aapx,b.aapx", "store files to merge"))}},
    {"report", "summarize instrumentation artifacts of a previous run",
     cmd_report, false, false,
     {str("trace", "FILE", "top spans by inclusive time"),
      str("log", "FILE", "record counts, controller decision timeline"),
      str("metrics", "FILE", "cache hit rates, histogram quantiles"),
      flag("check", "exit nonzero if any artifact fails validation"),
      integer("top", 1, "N", "span rows to print (default 15)"),
      {"diff", Shape::diff, "A B", "per-metric deltas of two JSON artifacts"},
      str("log-dir", "DIR", "aggregate a server's per-request run logs")}},
    {"serve", "characterization-as-a-service daemon (SIGTERM = drain)",
     cmd_serve, true, true,
     {str("listen", "unix:<path>|tcp:<port>", "endpoint (default tcp:0)"),
      integer("workers", 1, "N", "request workers (default 2)"),
      integer("sweep-threads", 0, "N", "threads per sweep (0 = all)"),
      integer("queue", 1, "N", "admission queue capacity (default 64)"),
      integer("retry-hint-ms", 0, "MS", "retry hint when shedding"),
      real("snapshot-interval", "SECONDS", "periodic --store snapshots"),
      str("log-dir", "DIR", "per-request JSONL run logs")}},
    {"client", "one request against a running server (retry + backoff)",
     cmd_client, false, true,
     Opts{str("connect", "unix:<path>|tcp:<port>", "server"),
          choice("op", kClientOps, "request (default ping)")} +
         kComponent +
         Opts{kMinPrecision, integer("step", 1, "S", "precision step"), kMode,
              kYearsList, integer("deadline-ms", 0, "MS", "0 = none"),
              integer("attempts", 1, "N", "attempts per request"),
              u64("trace-id", "ID", "fixed trace id")}},
    {"help", "this text", cmd_help, false, true, {}},
};

void print_option(const Opt& opt) {
  std::string left = std::string("--") + opt.name;
  const std::string meta =
      opt.shape == Shape::choice
          ? choice_names(opt) + (opt.list ? "[,...]" : "")
          : opt.meta;
  if (!meta.empty()) left += " " + meta;
  std::printf("      %-34s %s\n", left.c_str(), opt.help);
}

int cmd_help(const Context&, const Args&) {
  std::printf("aapx — aging-induced approximations toolkit\n\n"
              "usage: aapx <command> [options]\n\ncommands:\n");
  std::string attach;
  for (const Command& c : kCommands) {
    std::printf("  %-16s %s\n", c.name, c.summary);
    for (const Opt& opt : c.options) print_option(opt);
    if (c.store) {
      attach += ' ';
      attach += c.name;
    }
  }
  std::printf("\nglobal options (every command):\n");
  for (const Opt& opt : kGlobalOptions) print_option(opt);
  std::printf("      (--store is warmed before and saved after:%s)\n",
              attach.c_str());
  std::printf("\noutput options (every command but report, which reads "
              "them):\n");
  for (const Opt& opt : kInstrumentOptions) print_option(opt);
  return 0;
}

bool is_option(const char* token) { return std::strncmp(token, "--", 2) == 0; }

/// Parses argv against kCommands. The first malformed token wins, named by
/// its argv index like the liberty/verilog parsers name lines. An unknown
/// command is left for main to report (args.cmd == nullptr).
Args parse_args(int argc, char** argv) {
  Args args;
  args.command = argc > 1 ? argv[1] : "";
  std::string name =
      args.command.empty() || args.command == "--help" ? "help" : args.command;
  int i = 2;
  // `library` takes one positional action before its options.
  const bool library = name == "library";
  if (library) {
    name += ' ';
    if (i < argc && !is_option(argv[i])) name += argv[i++];
  }
  std::string actions;
  for (const Command& c : kCommands) {
    if (name == c.name) args.cmd = &c;
    if (std::strncmp(c.name, "library ", 8) == 0) {
      actions += (actions.empty() ? "" : "|") + std::string(c.name + 8);
    }
  }
  if (args.cmd == nullptr && library) {
    throw std::runtime_error("library: unknown action '" + name.substr(8) +
                             "' (" + actions + ")");
  }
  if (args.cmd == nullptr) return args;
  for (; i < argc; ++i) {
    // `-j N` is the make-style shorthand for `--threads N`.
    const std::string token =
        std::strcmp(argv[i], "-j") == 0 ? "--threads" : argv[i];
    const std::string where = "argv[" + std::to_string(i) + "]: ";
    if (!is_option(token.c_str())) {
      throw std::runtime_error(where + "expected --option, got '" + token +
                               "'");
    }
    const Opt* opt = args.cmd->find(token.substr(2));
    if (opt == nullptr) {
      throw std::runtime_error(where + "unknown option '" + token + "' for '" +
                               args.cmd->name + "' (try 'aapx help')");
    }
    std::string value;
    if (opt->shape == Shape::diff) {
      while (i + 1 < argc && !is_option(argv[i + 1])) {
        if (!value.empty()) value += ',';
        value += argv[++i];
      }
    } else if (opt->shape != Shape::flag && i + 1 < argc &&
               !is_option(argv[i + 1])) {
      value = argv[++i];
    }
    check_value(*opt, value);
    args.values[opt->name] = value;
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Args args = parse_args(argc, argv);
    if (args.cmd == nullptr) {
      std::fprintf(stderr, "aapx: unknown command '%s' (try 'aapx help')\n",
                   args.command.c_str());
      return 2;
    }
    const Command& cmd = *args.cmd;
    // The CLI is a single-tenant process with one root Context. Its
    // registry is the process one, so the --metrics snapshot also carries
    // what layers without a Context count (gatesim, the thread pool).
    Context::Options root;
    root.metrics = &obs::metrics();
    root.threads = args.get("threads", root.threads);
    // SIGINT/SIGTERM become cooperative cancellation: sweeps and campaign
    // epochs observe the token and unwind cleanly instead of the process
    // dying with an unsaved store. `report` keeps default signal behavior
    // (it only reads artifacts; instant death loses nothing).
    if (cmd.instrumented) {
      install_signal_handlers();
      root.cancel = &g_cancel;
    }
    const Context ctx(root);
    // `report` reads these paths as inputs; every other command writes them.
    const std::string trace_path = cmd.instrumented ? args.text("trace") : "";
    const std::string metrics_path =
        cmd.instrumented ? args.text("metrics") : "";
    const std::string log_path = cmd.instrumented ? args.text("log") : "";
    if (!log_path.empty()) {
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
    if (!trace_path.empty()) ctx.tracer().start();

    // Persistent store (`--store` / AAPX_STORE): warm the Context's
    // DesignStore before the run and save the warmed store back after, so
    // a second identical invocation is served from disk. Opened *after* the
    // run log so the store_load record lands in it — identically whether
    // the file exists yet or not. Commands that only read artifacts or
    // manage store files explicitly (`library`) do not attach one.
    if (cmd.store) {
      args.store = args.text("store");
      if (args.store.empty()) {
        if (const char* env = std::getenv("AAPX_STORE")) args.store = env;
      }
      if (!args.store.empty()) ctx.store().open(args.store);
    }

    int rc = 0;
    try {
      rc = cmd.run(ctx, args);
    } catch (const CancelledError& e) {
      // A shutdown signal unwound the flow mid-sweep/mid-epoch. The store
      // holds only fully-built artifacts (insertions are transactional),
      // so snapshotting the partial progress is always safe — the next
      // run warm-starts from whatever completed.
      const int signum = g_signal.load();
      const bool saved = !args.store.empty() && ctx.store().save(args.store);
      std::fprintf(stderr,
                   "aapx: interrupted by signal %d (%s)%s\n", signum,
                   e.what(),
                   saved ? (", warm store snapshot saved to " + args.store)
                               .c_str()
                         : "");
      return signum > 0 ? 128 + signum : 1;
    }

    if (!args.store.empty() && !ctx.store().save(args.store)) {
      return rc != 0 ? rc : 1;
    }

    if (!trace_path.empty()) {
      if (ctx.tracer().stop_and_write_file(trace_path)) {
        std::fprintf(stderr, "aapx: trace written to %s\n", trace_path.c_str());
      } else {
        std::fprintf(stderr, "aapx: cannot write --trace file %s\n",
                     trace_path.c_str());
        return 1;
      }
    }
    if (!metrics_path.empty()) {
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
    if (!log_path.empty()) {
      ctx.runlog().close();
      std::fprintf(stderr, "aapx: run log written to %s\n", log_path.c_str());
    }
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "aapx: %s\n", e.what());
    return 1;
  }
}
