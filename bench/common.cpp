#include "common.hpp"

#include <signal.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>

#include "engine/cancel.hpp"
#include "engine/context.hpp"
#include "engine/design_store.hpp"
#include "image/synthetic.hpp"
#include "obs/metrics.hpp"

namespace aapx::bench {

namespace {

CancelToken g_bench_cancel;          // NOLINT
std::atomic<int> g_bench_signal{0};  // NOLINT

// guarded_main's root Context, valid while its body runs.
const Context* g_bench_root = nullptr;  // NOLINT

// Every flag a lookup asked for; guarded_main rejects the rest of argv's.
std::mutex g_read_flags_mutex;      // NOLINT
std::set<std::string> g_read_flags;  // NOLINT

void note_read(const std::string& flag) {
  const std::lock_guard<std::mutex> lock(g_read_flags_mutex);
  g_read_flags.insert(flag);
}

/// The first "--X" argument no lookup read, or "" if every one was read.
std::string first_unread_flag(int argc, char** argv) {
  const std::lock_guard<std::mutex> lock(g_read_flags_mutex);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) == 0 &&
        g_read_flags.count(argv[i]) == 0) {
      return argv[i];
    }
  }
  return "";
}

extern "C" void bench_shutdown_signal(int signum) {
  g_bench_signal.store(signum, std::memory_order_relaxed);
  g_bench_cancel.cancel();
}

/// Value of "<flag> <number>" or fallback; the number must be the whole
/// argument, else the flag is reported by name.
template <typename T>
T arg_number(int argc, char** argv, const std::string& flag, T fallback) {
  note_read(flag);
  for (int i = 1; i + 1 < argc; ++i) {
    if (flag != argv[i]) continue;
    const char* text = argv[i + 1];
    const char* end = text + std::strlen(text);
    T value{};
    const auto [stop, error] = std::from_chars(text, end, value);
    if (error != std::errc() || stop != end) {
      throw std::invalid_argument("bad " + flag + " value '" + text + "'");
    }
    return value;
  }
  return fallback;
}

}  // namespace

const Context& bench_context() { return *g_bench_root; }

int guarded_main(int argc, char** argv, const std::function<int()>& body) {
  try {
    Context::Options options;
    options.threads =
        arg_int(argc, argv, "--threads", arg_int(argc, argv, "-j", 0));
    if (options.threads < 0) {
      throw std::invalid_argument("--threads must be >= 0");
    }
    // The process registry, so the --metrics snapshot and the BENCH json's
    // metrics_registry block also carry what layers without a Context count.
    options.metrics = &obs::metrics();
    options.cancel = &g_bench_cancel;
    const Context root(options);
    g_bench_root = &root;
    struct sigaction sa = {};
    sa.sa_handler = bench_shutdown_signal;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGINT, &sa, nullptr);
    sigaction(SIGTERM, &sa, nullptr);
    const int status = body();
    // Checked after the body, whose lookups decide which flags exist: a
    // mistyped or deleted flag must not pass for a default run.
    const std::string unread = first_unread_flag(argc, argv);
    if (!unread.empty()) {
      throw std::invalid_argument("unknown option " + unread);
    }
    return status;
  } catch (const CancelledError& e) {
    // The exception already unwound the bench scope, so a BenchJson that
    // was live in `body` has written its telemetry and saved the --store
    // snapshot — only fully-built artifacts, insertions are transactional.
    const int signum = g_bench_signal.load();
    std::fprintf(stderr, "bench: interrupted by signal %d (%s)\n", signum,
                 e.what());
    return signum > 0 ? 128 + signum : 1;
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "bench: %s\n", e.what());
    return 2;
  }
}

bool fast_mode(int argc, char** argv) {
  note_read("--fast");
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--fast") == 0) return true;
  }
  return false;
}

int arg_int(int argc, char** argv, const std::string& flag, int fallback) {
  return arg_number(argc, argv, flag, fallback);
}

double arg_double(int argc, char** argv, const std::string& flag,
                  double fallback) {
  return arg_number(argc, argv, flag, fallback);
}

std::string arg_str(int argc, char** argv, const std::string& flag,
                    const std::string& fallback) {
  note_read(flag);
  for (int i = 1; i + 1 < argc; ++i) {
    if (flag == argv[i]) return argv[i + 1];
  }
  return fallback;
}

std::string out_path(int argc, char** argv, const std::string& filename) {
  const std::string dir = arg_str(argc, argv, "--outdir", "");
  if (dir.empty()) return filename;
  std::filesystem::create_directories(dir);
  return (std::filesystem::path(dir) / filename).string();
}

namespace {

std::string json_num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

BenchJson::BenchJson(std::string name, int argc, char** argv)
    : name_(std::move(name)) {
  trace_path_ = arg_str(argc, argv, "--trace", "");
  metrics_path_ = arg_str(argc, argv, "--metrics", "");
  store_path_ = arg_str(argc, argv, "--store", "");
  if (store_path_.empty()) {
    if (const char* env = std::getenv("AAPX_STORE")) store_path_ = env;
  }
  // Warm-start from the snapshot before the timer starts: load cost is not
  // part of the bench, only the hits it produces are.
  if (!store_path_.empty()) bench_context().store().open(store_path_);
  if (!trace_path_.empty()) bench_context().tracer().start();
  start_ = std::chrono::steady_clock::now();
}

void BenchJson::metric(const std::string& key, double value) {
  metrics_.emplace_back(key, json_num(value));
}

void BenchJson::metric(const std::string& key, const std::string& value) {
  metrics_.emplace_back(key, "\"" + value + "\"");
}

BenchJson::~BenchJson() {
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
  if (!trace_path_.empty()) {
    if (!bench_context().tracer().stop_and_write_file(trace_path_)) {
      std::fprintf(stderr, "bench: cannot write --trace file %s\n",
                   trace_path_.c_str());
    }
  }
  // Save before the registry snapshots below so the persist counters the
  // save bumps are part of both the --metrics file and the BENCH json.
  if (!store_path_.empty() &&
      !bench_context().store().save(store_path_)) {
    std::fprintf(stderr, "bench: cannot write --store file %s\n",
                 store_path_.c_str());
  }
  if (!metrics_path_.empty()) {
    std::ofstream os(metrics_path_);
    if (os) {
      obs::metrics().write_json(os);
    } else {
      std::fprintf(stderr, "bench: cannot write --metrics file %s\n",
                   metrics_path_.c_str());
    }
  }
  std::ofstream out("BENCH_" + name_ + ".json");
  if (!out) return;
  out << "{\n";
  out << "  \"name\": \"" << name_ << "\",\n";
  out << "  \"threads\": " << bench_context().num_threads() << ",\n";
  out << "  \"wall_s\": " << json_num(wall_s);
  if (events_ > 0) {
    out << ",\n  \"events\": " << events_;
    out << ",\n  \"events_per_sec\": "
        << json_num(static_cast<double>(events_) / std::max(wall_s, 1e-12));
  }
  for (const auto& [key, value] : metrics_) {
    out << ",\n  \"" << key << "\": " << value;
  }
  // Snapshot of the process metrics registry (cache hit/miss counters, sim
  // statistics, pool utilization) so each BENCH file is self-describing.
  out << ",\n  \"metrics_registry\": " << obs::metrics().to_json();
  out << "\n}\n";
}

Sta::GateDelays scenario_delays(const Config& cfg, const Netlist& nl,
                                const AgingScenario& scenario) {
  const Sta sta(nl);
  if (scenario.is_fresh()) return sta.gate_delays(nullptr, nullptr);
  const DegradationAwareLibrary aged(cfg.lib, cfg.model, scenario.years);
  const StressProfile stress =
      StressProfile::uniform(scenario.mode, nl.num_gates());
  return sta.gate_delays(&aged, &stress);
}

double bin_fresh_clock(const Config& cfg, const Netlist& nl,
                       const StimulusSet& stimulus, DelayModel model) {
  const std::vector<TimedOutcome> outcomes = replay_timed(
      bench_context(), nl, scenario_delays(cfg, nl, AgingScenario::fresh()),
      model, stimulus, 1e12);
  double t_clock = 0.0;
  for (const TimedOutcome& out : outcomes) {
    t_clock = std::max(t_clock, out.output_settle_ps);
  }
  return t_clock;
}

double measure_error_rate(const Config& cfg, const Netlist& nl,
                          const StimulusSet& stimulus,
                          const AgingScenario& scenario, double t_clock,
                          DelayModel model) {
  const std::vector<TimedOutcome> outcomes =
      replay_timed(bench_context(), nl, scenario_delays(cfg, nl, scenario),
                   model, stimulus, t_clock);
  std::size_t errors = 0;
  for (const TimedOutcome& out : outcomes) errors += out.error ? 1 : 0;
  return static_cast<double>(errors) /
         static_cast<double>(stimulus.vectors.size());
}

StimulusSet record_idct_mult_stimulus(const Config& cfg,
                                      const std::string& sequence, int size,
                                      std::size_t max_ops) {
  const CodecConfig codec = cfg.codec();
  ExactBackend exact(codec.width, 0, 0);
  RecordingBackend recorder(exact);
  FixedPointIdct idct(codec, recorder);
  const Image frame = make_video_trace_frame(sequence, size, size);
  (void)idct.decode(encode_and_quantize(frame, codec));
  return stimulus_from_operand_pairs(recorder.mult_ops(), codec.width, max_ops);
}

void print_banner(const std::string& figure, const std::string& summary) {
  std::printf("=== %s ===\n%s\n\n", figure.c_str(), summary.c_str());
}

}  // namespace aapx::bench
