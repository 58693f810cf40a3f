// Benchmark program: runs one workload of the aging-induced approximation
// toolkit through the public API of src/ and prints one JSON line with its
// timings, its deterministic outputs ("checks") and its work counts.
//
//   aapx_perfbench --workload W --seed N --seconds S [--threads T]
//                  [--trace 0|1] [--workdir DIR] [--trace-out FILE]
//                  [--corrupt-expected 0|1]
//
// Workloads (see README.md for why each exists):
//   gate_chain   gate-level timed DCT->IDCT chain (paper Fig. 2)
//   closed_loop  open- vs closed-loop aging campaigns (inertial timed adder)
//   approx_flow  characterize -> store -> microarchitecture flow -> RTL decode
//   serve_mix    in-process characterization service under a closed loop
//
// Every run builds its own aapx::Context; nothing is shared with an earlier
// run. The set-up of a workload (frames, netlists, a warmed service hot set)
// is repeated eleven times and timed apart from the measured window. With
// --trace 1 the workload runs once untraced, then once more, cold again,
// with a span around every call it makes into a layer, and then
// once more untraced, the baseline of the tracing overhead.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <deque>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cell/library.hpp"
#include "core/characterizer.hpp"
#include "core/microarch.hpp"
#include "core/stimulus.hpp"
#include "engine/context.hpp"
#include "engine/design_store.hpp"
#include "engine/key.hpp"
#include "engine/persist.hpp"
#include "image/image.hpp"
#include "image/synthetic.hpp"
#include "obs/metrics.hpp"
#include "rtl/backend.hpp"
#include "rtl/codec.hpp"
#include "runtime/fault.hpp"
#include "runtime/runtime.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "sta/sta.hpp"
#include "synth/components.hpp"
#include "trace.hpp"
#include "util/hash.hpp"
#include "util/parallel.hpp"

namespace pb = perfbench;
using namespace aapx;

namespace {

// ---------------------------------------------------------------- options --

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int threads = 0;
  bool trace = false;
  std::string workdir = ".";
  std::string trace_out;
  /// Offsets one locally computed serve_mix expectation, so a self-test can
  /// see that the in-program answer check fails.
  bool corrupt_expected = false;
};

/// Each run is a sequence of work units; unit u of seed s uses input
/// variant (s + u) mod kVariants, and reference values are stored per
/// variant, so any seed and any run length is checkable.
constexpr std::uint64_t kVariants = 8;

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Work units per run: `per_10s` units fill about ten seconds on 4 cores.
int units_for(const Options& o, double per_10s) {
  return std::max(1, static_cast<int>(std::lround(o.seconds * per_10s / 10.0)));
}

std::uint64_t variant_of(const Options& o, int unit) {
  return (o.seed + static_cast<std::uint64_t>(unit)) % kVariants;
}

// ----------------------------------------------------------------- output --

std::string fmt(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

template <typename Map, typename Fn>
std::string json_object(const Map& map, Fn value) {
  std::string out = "{";
  for (const auto& [key, v] : map) {
    if (out.size() > 1) out += ", ";
    out += quote(key) + ": " + value(v);
  }
  return out + "}";
}

/// What one run of a workload produced.
struct Result {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  /// Deterministic simulated outputs, "v<variant>.<name>" -> the exact text
  /// of every unit of that variant, in unit order.
  std::map<std::string, std::vector<std::string>> checks;
  /// Deterministic work counts: identical on every run of one seed.
  std::map<std::string, double> counts;
  /// Counts that depend on timing (dedup, shedding); reported, not compared.
  std::map<std::string, double> measured;
  /// The workload's own end-to-end metrics (throughputs, latencies).
  std::map<std::string, double> metrics;
  /// Requests the program checked itself (serve_mix); `checks` values are
  /// compared with the stored references by run.py.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< of those, mismatched or errored
};

void check(Result& r, std::uint64_t variant, const std::string& name,
           const std::string& value) {
  r.checks["v" + std::to_string(variant) + "." + name].push_back(value);
}

void add_count(Result& r, const std::string& name, double v) {
  r.counts[name] += v;
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Wall and process CPU time of the measured window.
class Window {
 public:
  Window() : wall_(pb::now_ns()), cpu_(process_cpu_s()) {}
  void close(Result& r) const {
    r.wall_s = 1e-9 * static_cast<double>(pb::now_ns() - wall_);
    r.cpu_s = process_cpu_s() - cpu_;
  }

 private:
  std::int64_t wall_;
  double cpu_;
};

std::uint64_t registry_counter(const char* name) {
  return obs::metrics().counter(name).value();
}

/// parallel_for whose bodies run as children of the caller's open span.
void parallel(std::size_t n, int threads,
              const std::function<void(std::size_t)>& fn) {
  const pb::ThreadContext caller = pb::thread_context();
  aapx::parallel_for(
      n,
      [&](std::size_t i) {
        pb::ThreadContext& tc = pb::thread_context();
        const pb::ThreadContext saved = tc;
        tc = caller;
        tc.op = static_cast<std::uint32_t>(i);
        fn(i);
        tc = saved;
      },
      threads);
}

/// Runs fn(i) for every i in [0, n) on `threads` workers that each take the
/// next index when done, so long tasks of equal size end together (the
/// chunks parallel_for hands out would leave workers idle at the end).
/// Bodies are children of the caller's open span, and a parallel_for inside
/// a body runs serially on its worker. Rethrows the first exception.
void each_task(std::size_t n, int threads, const std::function<void(std::size_t)>& fn) {
  std::atomic<std::size_t> next{0};
  std::mutex mutex;
  std::exception_ptr error;
  const pb::ThreadContext caller = pb::thread_context();
  const auto worker = [&] {
    pb::thread_context() = caller;
    const aapx::OffSpineGuard serial_inside;
    for (std::size_t i = next++; i < n; i = next++) {
      pb::thread_context().op = static_cast<std::uint32_t>(i);
      try {
        fn(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(mutex);
        if (!error) error = std::current_exception();
        next = n;
      }
    }
  };
  std::vector<std::thread> workers;
  for (int t = 0; t < std::max(1, threads); ++t) workers.emplace_back(worker);
  for (std::thread& t : workers) t.join();
  if (error) std::rethrow_exception(error);
}

std::unique_ptr<Context> make_context(const Options& o) {
  Context::Options co;
  co.threads = o.threads;
  co.seed = o.seed;
  return std::make_unique<Context>(co);
}

CodecConfig codec_config() {
  CodecConfig cfg;
  cfg.frac_bits = 7;  // the paper's ~45 dB fresh chain (Q7, 32-bit)
  return cfg;
}

const ComponentSpec kMult32{ComponentKind::multiplier, 32, 0, AdderArch::cla4,
                            MultArch::array};
const ComponentSpec kAdder32{ComponentKind::adder, 32, 0, AdderArch::cla4,
                             MultArch::array};
const ComponentSpec kClamp32{ComponentKind::clamp, 32, 0, AdderArch::cla4,
                             MultArch::array};

Image crop(const Image& frame, int x0, int y0, int w, int h) {
  Image out(w, h);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) out.set(x, y, frame.at(x0 + x, y0 + y));
  }
  return out;
}

std::uint64_t surface_digest(const ComponentCharacterization& c) {
  Hasher h;
  for (const PrecisionPoint& p : c.points) {
    h.i32(p.precision).f64(p.fresh_delay).f64(p.area).u64(p.gates);
    for (const double d : p.aged_delay) h.f64(d);
  }
  return h.digest();
}

/// Store and STA counters of one Context, added into `into`.
void store_counts(std::map<std::string, double>& into, const Context& ctx) {
  const engine::DesignStore::Stats s = ctx.store().stats();
  into["engine.store.netlist_hits"] += s.netlist_hits;
  into["engine.store.netlist_misses"] += s.netlist_misses;
  into["engine.store.library_hits"] += s.library_hits;
  into["engine.store.library_misses"] += s.library_misses;
  into["engine.store.delay_hits"] += s.delay_hits;
  into["engine.store.delay_misses"] += s.delay_misses;
  into["engine.store.surface_hits"] += s.surface_hits;
  into["engine.store.surface_misses"] += s.surface_misses;
  into["engine.persist.hits"] += s.persist_hits;
  obs::MetricsRegistry& m = ctx.metrics();
  for (const char* name : {"sta.aged_runs", "sta.fresh_runs"}) {
    into[name] += m.counter(name).value();
  }
  for (const char* name : {"bytes_written", "bytes_read", "records_loaded", "records_dropped"}) {
    into[std::string("engine.persist.") + name] +=
        m.counter(std::string("engine.store.persist.") + name).value();
  }
}

/// Synthesizes (or fetches) a netlist as one `synth` call and counts it.
const Netlist& netlist(Result& r, const Context& ctx, const CellLibrary& lib,
                       const ComponentSpec& spec) {
  const std::uint64_t misses = ctx.store().stats().netlist_misses;
  const Netlist& nl =
      pb::traced(pb::kSynth, [&]() -> const Netlist& {
        return ctx.store().netlist(lib, spec);
      });
  if (ctx.store().stats().netlist_misses != misses) {
    add_count(r, "synth.netlists", 1);
    add_count(r, "synth.gates", static_cast<double>(nl.num_gates()));
  }
  return nl;
}

const DegradationAwareLibrary& aged_library(Result& r, const Context& ctx,
                                            const CellLibrary& lib,
                                            const AgingModel& model,
                                            double years) {
  const std::uint64_t misses = ctx.store().stats().library_misses;
  const DegradationAwareLibrary& aged =
      pb::traced(pb::kCell, [&]() -> const DegradationAwareLibrary& {
        return ctx.store().aged_library(lib, model, years);
      });
  if (ctx.store().stats().library_misses != misses) {
    add_count(r, "cell.aged_libraries", 1);
  }
  return aged;
}

/// Per-gate delays of `nl` under uniform `mode` stress at `years`.
Sta::GateDelays gate_delays(Result& r, const Context& ctx,
                            const CellLibrary& lib, const AgingModel& model,
                            const Netlist& nl, StressMode mode, double years) {
  const DegradationAwareLibrary* aged =
      years > 0.0 ? &aged_library(r, ctx, lib, model, years) : nullptr;
  return pb::traced(pb::kSta, [&] {
    const Sta sta(nl, {}, &ctx);
    if (aged == nullptr) return sta.gate_delays(nullptr, nullptr);
    const StressProfile stress = StressProfile::uniform(mode, nl.num_gates());
    return sta.gate_delays(aged, &stress);
  });
}

/// Backend wrapper that times every arithmetic call as a `gatesim.timed`
/// leaf span (a load and a branch when the run is untraced).
class TracedBackend final : public ArithBackend {
 public:
  explicit TracedBackend(ArithBackend& inner) : inner_(&inner) {}
  std::int64_t multiply(std::int64_t a, std::int64_t b) override {
    pb::LeafSpan span(pb::kTimed);
    return inner_->multiply(a, b);
  }
  std::int64_t add(std::int64_t a, std::int64_t b) override {
    pb::LeafSpan span(pb::kTimed);
    return inner_->add(a, b);
  }
  int width() const override { return inner_->width(); }

 private:
  ArithBackend* inner_;
};

/// Counts the operations a codec performs (traced run only).
class CountingBackend final : public ArithBackend {
 public:
  explicit CountingBackend(ArithBackend& inner) : inner_(&inner) {}
  std::int64_t multiply(std::int64_t a, std::int64_t b) override {
    ++mults;
    return inner_->multiply(a, b);
  }
  std::int64_t add(std::int64_t a, std::int64_t b) override {
    ++adds;
    return inner_->add(a, b);
  }
  int width() const override { return inner_->width(); }
  std::uint64_t mults = 0;
  std::uint64_t adds = 0;

 private:
  ArithBackend* inner_;
};

/// A codec pass through `backend`: DCT encode then IDCT decode, both as
/// `rtl` spans, with every arithmetic call a `gatesim.timed` leaf.
Image dct_idct(ArithBackend& backend, const Image& img) {
  const CodecConfig codec = codec_config();
  TracedBackend be(backend);
  const FixedPointDct dct(codec, be);
  const FixedPointIdct idct(codec, be);
  const QuantizedImage q =
      pb::traced(pb::kRtl, [&] { return dct.encode(img); });
  return pb::traced(pb::kRtl, [&] { return idct.decode(q); });
}

double image_psnr(const Image& a, const Image& b) {
  return pb::traced(pb::kImage, [&] { return psnr(a, b); });
}

Image frame(const std::string& name, int w, int h) {
  return pb::traced(pb::kImage,
                    [&] { return make_video_trace_frame(name, w, h); });
}

/// Runs the tile task graph on `threads` workers: task i < tiles is tile
/// i's clock-binning pass; tasks tiles + 2i and tiles + 2i + 1 are its aged
/// passes, ready once the binning pass is done. Aged passes go first, so a
/// tile finishes before the next one starts; all workers stay busy as long
/// as there is ready work. Rethrows the first exception a task throws.
void run_tile_graph(std::size_t tiles, int threads,
                    const std::function<void(std::size_t)>& fn) {
  std::mutex mutex;
  std::condition_variable cv;
  std::deque<std::size_t> ready;
  for (std::size_t i = 0; i < tiles; ++i) ready.push_back(i);
  std::size_t done = 0;
  std::exception_ptr error;
  const pb::ThreadContext caller = pb::thread_context();
  const auto worker = [&] {
    pb::thread_context() = caller;
    std::unique_lock<std::mutex> lock(mutex);
    for (;;) {
      cv.wait(lock, [&] { return !ready.empty() || done == 3 * tiles || error; });
      if (ready.empty() || error) return;
      const std::size_t task = ready.front();
      ready.pop_front();
      lock.unlock();
      pb::thread_context().op = static_cast<std::uint32_t>(task);
      try {
        fn(task);
      } catch (...) {
        lock.lock();
        if (!error) error = std::current_exception();
        cv.notify_all();
        return;
      }
      lock.lock();
      ++done;
      if (task < tiles) {
        ready.push_front(tiles + 2 * task + 1);
        ready.push_front(tiles + 2 * task);
      }
      cv.notify_all();
    }
  };
  std::vector<std::thread> workers;
  for (int t = 0; t < std::max(1, threads); ++t) workers.emplace_back(worker);
  for (std::thread& t : workers) t.join();
  if (error) std::rethrow_exception(error);
}

// ------------------------------------------------------------- gate_chain --
// Paper Fig. 2: each 8x8 tile runs DCT->IDCT through the gate-level timed
// 32-bit array multiplier and cla4 adder (transport delays). A fresh pass
// bins the clock at the latest settle of the consumed product bits; 1 y and
// 10 y balanced-aging passes then sample at that clock. One unit is one
// smooth (akiyo) and one textured (mobile) tile; tile content moves the
// event count by about 10 %, so a run takes several units.

struct GateChain {
  std::unique_ptr<Context> ctx;
  /// Heap-held: netlists and the store keep pointers to the library.
  std::unique_ptr<CellLibrary> lib;
  AgingModel model;
  const Netlist* mult = nullptr;
  const Netlist* adder = nullptr;
  /// [0] fresh, [1] 1 y balanced, [2] 10 y balanced.
  Sta::GateDelays mult_delays[3];
  Sta::GateDelays adder_delays[3];
  struct Tile {
    std::uint64_t variant = 0;
    std::string name;
    Image img;
  };
  std::vector<Tile> tiles;
};

constexpr double kAgedYears[3] = {0.0, 1.0, 10.0};
constexpr double kTileUnitsPer10s = 1.5;

GateChain gate_chain_setup(const Options& o, Result& r) {
  GateChain g;
  g.ctx = make_context(o);
  g.lib = std::make_unique<CellLibrary>(make_nangate45_like());
  g.mult = &netlist(r, *g.ctx, *g.lib, kMult32);
  g.adder = &netlist(r, *g.ctx, *g.lib, kAdder32);
  for (int i = 0; i < 3; ++i) {
    g.mult_delays[i] = gate_delays(r, *g.ctx, *g.lib, g.model, *g.mult,
                                   StressMode::balanced, kAgedYears[i]);
    g.adder_delays[i] = gate_delays(r, *g.ctx, *g.lib, g.model, *g.adder,
                                    StressMode::balanced, kAgedYears[i]);
  }
  const Image smooth = frame("akiyo", 176, 144);
  const Image textured = frame("mobile", 176, 144);
  for (int u = 0; u < units_for(o, kTileUnitsPer10s); ++u) {
    const std::uint64_t v = variant_of(o, u);
    const std::uint64_t pick = splitmix(v + 0x6a7e);
    for (int f = 0; f < 2; ++f) {
      const std::uint64_t bits = pick >> (f * 16);
      const int tx = static_cast<int>(bits % 22) * 8;
      const int ty = static_cast<int>((bits >> 8) % 18) * 8;
      const std::string name = f == 0 ? "akiyo" : "mobile";
      g.tiles.push_back({v, name + "@" + std::to_string(tx) + "," + std::to_string(ty),
                         crop(f == 0 ? smooth : textured, tx, ty, 8, 8)});
    }
  }
  return g;
}

Result gate_chain_run(const Options& o, GateChain& g, Result r) {
  const CodecConfig codec = codec_config();
  const ObservedWindow window{codec.frac_bits, codec.width};
  const std::uint64_t events0 = registry_counter("timedsim.events");
  const std::uint64_t steps0 = registry_counter("timedsim.steps");
  struct Pass {
    double psnr = 0.0;
    double t_clock = 0.0;
    std::uint64_t mult_errors = 0, add_errors = 0, mult_ops = 0, add_ops = 0;
    std::size_t max_depth = 0;
  };
  const auto run_pass = [&](const Image& img, int scenario, double t_clock) {
    TimedNetlistBackend be(*g.mult, g.mult_delays[scenario], *g.adder,
                           g.adder_delays[scenario], codec.width, t_clock,
                           DelayModel::transport, window);
    const Image out = dct_idct(be, img);
    Pass p;
    p.psnr = image_psnr(img, out);
    p.t_clock = std::max(be.max_mult_settle(), be.max_add_settle());
    p.mult_errors = be.mult_errors();
    p.add_errors = be.add_errors();
    p.mult_ops = be.mult_ops();
    p.add_ops = be.add_ops();
    p.max_depth = std::max(be.mult_sim().max_queue_depth(),
                           be.adder_sim().max_queue_depth());
    return p;
  };

  const std::size_t n = g.tiles.size();
  std::vector<Pass> binning(n);
  std::vector<Pass> aged(2 * n);
  Window w;
  {
    pb::Span phase(pb::kBench);
    run_tile_graph(n, o.threads, [&](std::size_t task) {
      if (task < n) {
        binning[task] = run_pass(g.tiles[task].img, 0, 1e12);
      } else {
        const std::size_t i = task - n;  // tile i / 2, scenario 1 + i % 2
        aged[i] = run_pass(g.tiles[i / 2].img, 1 + static_cast<int>(i % 2),
                           binning[i / 2].t_clock);
      }
    });
  }
  w.close(r);

  std::uint64_t mult_ops = 0, add_ops = 0;
  std::uint64_t error_steps = 0;
  std::size_t depth = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const GateChain::Tile& t = g.tiles[i];
    const std::string tag = t.name + ".";
    check(r, t.variant, tag + "fresh.psnr", fmt(binning[i].psnr));
    check(r, t.variant, tag + "t_clock_ps", fmt(binning[i].t_clock));
    mult_ops += binning[i].mult_ops;
    add_ops += binning[i].add_ops;
    depth = std::max(depth, binning[i].max_depth);
    for (int s = 0; s < 2; ++s) {
      const Pass& p = aged[2 * i + static_cast<std::size_t>(s)];
      const std::string sc = tag + (s == 0 ? "1y." : "10y.");
      check(r, t.variant, sc + "psnr", fmt(p.psnr));
      check(r, t.variant, sc + "mult_errors", std::to_string(p.mult_errors));
      check(r, t.variant, sc + "add_errors", std::to_string(p.add_errors));
      mult_ops += p.mult_ops;
      add_ops += p.add_ops;
      error_steps += p.mult_errors + p.add_errors;
      depth = std::max(depth, p.max_depth);
    }
  }
  const double steps = static_cast<double>(registry_counter("timedsim.steps") - steps0);
  add_count(r, "gatesim.timed.steps", steps);
  add_count(r, "gatesim.timed.events",
            static_cast<double>(registry_counter("timedsim.events") - events0));
  add_count(r, "gatesim.timed.error_steps", static_cast<double>(error_steps));
  add_count(r, "gatesim.timed.max_queue_depth", static_cast<double>(depth));
  add_count(r, "rtl.mult_ops", static_cast<double>(mult_ops));
  add_count(r, "rtl.add_ops", static_cast<double>(add_ops));
  add_count(r, "rtl.pixels", static_cast<double>(3 * 64 * n));
  r.metrics["timed_ops_per_s"] = steps / r.wall_s;
  store_counts(r.counts, *g.ctx);
  return r;
}

// ------------------------------------------------------------ closed_loop --
// The faultsim campaign: a 32-bit ripple adder whose true aging runs ahead
// of the model (dVth x1.5, +20 K from 5 y, biased noisy sensor). Each unit
// runs the open-loop schedule and the closed-loop controller on one
// stimulus seed, then decodes a frame through every epoch's plant state
// (inertial timed adder) for the PSNR over lifetime.

struct ClosedLoop {
  std::unique_ptr<Context> ctx;
  std::unique_ptr<CellLibrary> lib;
  AgingModel model;
  RuntimeOptions ropt;
  FaultScenario fault;
  CampaignOptions copt;
  std::unique_ptr<ClosedLoopRuntime> runtime;
  std::unique_ptr<FaultInjector> faults;
  Image img;
  QuantizedImage coded;
};

ClosedLoop closed_loop_setup(const Options& o, Result& r) {
  ClosedLoop c;
  c.ctx = make_context(o);
  c.lib = std::make_unique<CellLibrary>(make_nangate45_like());
  c.ropt.component = {ComponentKind::adder, 32, 0, AdderArch::ripple,
                      MultArch::array};
  c.ropt.min_precision = 22;
  c.fault.aging_acceleration = 1.5;
  c.fault.sensor_gain = 0.6;
  c.fault.sensor_noise_sigma_years = 0.2;
  c.fault.temp_step_kelvin = 20.0;
  c.fault.temp_step_from_years = 5.0;
  c.copt.epochs = 16;
  c.copt.vectors_per_epoch = 384;
  c.copt.verify_vectors = 192;
  c.copt.monitor.window = c.copt.vectors_per_epoch;
  c.copt.monitor.canary_margin = 0.97;
  c.copt.monitor.canary_trip = 2;
  c.img = frame("foreman", 16, 16);
  c.coded = pb::traced(pb::kImage,
                       [&] { return encode_and_quantize(c.img, codec_config()); });
  // Planning the adaptive schedule (the runtime's constructor) is set-up:
  // every campaign of the run shares the plan.
  const std::int64_t t0 = pb::now_ns();
  {
    pb::Span plan(pb::kRuntime);
    c.runtime = std::make_unique<ClosedLoopRuntime>(*c.ctx, *c.lib, c.model, c.ropt);
    c.faults = std::make_unique<FaultInjector>(*c.ctx, *c.lib, c.model, c.fault);
  }
  r.metrics["runtime.plan_s"] = 1e-9 * static_cast<double>(pb::now_ns() - t0);
  return c;
}

/// Exact multiplier + gate-level timed adder: the campaign plant in the
/// IDCT accumulator, so truncation and sampled timing errors both land in
/// the decoded image.
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
    ++mults;
    return exact_.multiply(a, b);
  }
  std::int64_t add(std::int64_t a, std::int64_t b) override {
    ++adds;
    const std::uint64_t mask = (std::uint64_t{1} << width_) - 1;
    sim_.stage_resolved(a_pis_, static_cast<std::uint64_t>(a) & mask);
    sim_.stage_resolved(b_pis_, static_cast<std::uint64_t>(b) & mask);
    {
      pb::LeafSpan span(pb::kTimed);
      if (sim_.step_staged(t_clock_)) ++errors_;
    }
    return wrap_signed(static_cast<std::int64_t>(sim_.sampled_word(*y_nets_)),
                       width_);
  }
  int width() const override { return width_; }
  std::uint64_t errors() const noexcept { return errors_; }
  std::size_t max_queue_depth() const { return sim_.max_queue_depth(); }
  std::uint64_t mults = 0;
  std::uint64_t adds = 0;

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

Result closed_loop_run(const Options& o, ClosedLoop& c, Result r) {
  const Context& ctx = *c.ctx;
  const std::uint64_t events0 = registry_counter("timedsim.events");
  const std::uint64_t steps0 = registry_counter("timedsim.steps");
  const int units = units_for(o, 60.0);
  const ClosedLoopRuntime* runtime = c.runtime.get();
  const FaultInjector* faults = c.faults.get();
  struct Unit {
    std::uint64_t variant = 0;
    CampaignResult open, closed;
    std::vector<double> psnr;
    std::uint64_t decode_errors = 0;
    std::size_t depth = 0;
  };
  std::vector<Unit> out(static_cast<std::size_t>(units));

  Window w;
  double run_s = 0.0;
  for (int u = 0; u < units; ++u) {
    Unit& unit = out[static_cast<std::size_t>(u)];
    unit.variant = variant_of(o, u);
    CampaignOptions closed_opt = c.copt;
    closed_opt.stimulus_seed = splitmix(unit.variant + 0xc1) % 1000000;
    CampaignOptions open_opt = closed_opt;
    open_opt.closed_loop = false;
    // Serial on purpose: the two campaigns query the same aged-STA points,
    // and racing misses would make the store's hit/miss counts vary.
    const std::int64_t t0 = pb::now_ns();
    const std::uint64_t campaign_events0 = registry_counter("timedsim.events");
    unit.open = pb::traced(pb::kRuntime, [&] { return runtime->run(*faults, open_opt); });
    unit.closed = pb::traced(pb::kRuntime, [&] { return runtime->run(*faults, closed_opt); });
    run_s += 1e-9 * static_cast<double>(pb::now_ns() - t0);
    // The campaigns' own timed steps run inside `runtime` spans, not
    // `gatesim.timed` ones.
    add_count(r, "runtime.timed_events",
              static_cast<double>(registry_counter("timedsim.events") - campaign_events0));

    const std::size_t epochs = unit.open.epochs.size();
    unit.psnr.assign(2 * epochs, 0.0);
    std::vector<std::uint64_t> errors(2 * epochs, 0), mults(2 * epochs, 0),
        adds(2 * epochs, 0);
    std::vector<std::size_t> depth(2 * epochs, 0);
    pb::Span phase(pb::kBench);
    parallel(2 * epochs, o.threads, [&](std::size_t i) {
      const CampaignResult& campaign = i < epochs ? unit.open : unit.closed;
      const EpochReport& epoch = campaign.epochs[i % epochs];
      const Netlist& adder = pb::traced(pb::kSynth, [&]() -> const Netlist& {
        return runtime->netlist_for(epoch.precision);
      });
      Sta::GateDelays delays = pb::traced(pb::kSta, [&] {
        return faults->true_delays(adder, c.ropt.stress, epoch.years,
                                   c.ropt.sta);
      });
      TimedAdderBackend be(adder, std::move(delays), codec_config().width,
                           campaign.timing_constraint, c.ropt.delay_model);
      const FixedPointIdct idct(codec_config(), be);
      const Image decoded =
          pb::traced(pb::kRtl, [&] { return idct.decode(c.coded); });
      unit.psnr[i] = image_psnr(c.img, decoded);
      errors[i] = be.errors();
      depth[i] = be.max_queue_depth();
      mults[i] = be.mults;
      adds[i] = be.adds;
    });
    for (std::size_t i = 0; i < 2 * epochs; ++i) {
      add_count(r, "rtl.mult_ops", static_cast<double>(mults[i]));
      add_count(r, "rtl.add_ops", static_cast<double>(adds[i]));
      unit.decode_errors += errors[i];
      unit.depth = std::max(unit.depth, depth[i]);
    }
  }
  w.close(r);

  std::size_t depth = 0;
  for (const Unit& unit : out) {
    const std::uint64_t v = unit.variant;
    check(r, v, "open.total_errors", std::to_string(unit.open.total_errors));
    check(r, v, "closed.total_errors", std::to_string(unit.closed.total_errors));
    check(r, v, "closed.final_precision", std::to_string(unit.closed.final_precision));
    check(r, v, "closed.reconfigurations", std::to_string(unit.closed.reconfigurations));
    check(r, v, "decode.timing_errors", std::to_string(unit.decode_errors));
    const std::size_t epochs = unit.open.epochs.size();
    for (std::size_t i = 0; i < 2 * epochs; ++i) {
      check(r, v,
            (i < epochs ? "open.psnr." : "closed.psnr.") + std::to_string(i % epochs),
            fmt(unit.psnr[i]));
    }
    add_count(r, "runtime.epochs", static_cast<double>(2 * epochs));
    add_count(r, "runtime.vectors",
              static_cast<double>(unit.open.total_vectors + unit.closed.total_vectors));
    add_count(r, "runtime.control_events", static_cast<double>(unit.closed.events.size()));
    add_count(r, "runtime.committed", static_cast<double>(unit.closed.reconfigurations));
    add_count(r, "gatesim.timed.error_steps",
              static_cast<double>(unit.open.total_errors + unit.closed.total_errors +
                                  unit.decode_errors));
    add_count(r, "rtl.pixels", static_cast<double>(2 * epochs * c.img.width() *
                                                   c.img.height()));
    depth = std::max(depth, unit.depth);
  }
  const double steps = static_cast<double>(registry_counter("timedsim.steps") - steps0);
  add_count(r, "gatesim.timed.steps", steps);
  add_count(r, "gatesim.timed.events",
            static_cast<double>(registry_counter("timedsim.events") - events0));
  add_count(r, "gatesim.timed.max_queue_depth", static_cast<double>(depth));
  r.metrics["timed_ops_per_s"] = steps / r.wall_s;
  r.metrics["runtime.run_s"] = run_s;
  store_counts(r.counts, ctx);
  return r;
}

// ------------------------------------------------------------ approx_flow --
// The proposed flow (paper Figs. 3, 6, 8). One unit: (a) cold-characterize a
// grid of components and save the store file; (b) a fresh Context opens the
// file, runs the microarchitecture flow on the IDCT at three scenarios and
// one measured-mode (Fig. 3c) characterization of the IDCT multiplier from
// a recorded operand stream; (c) decode all nine sequences at CIF through
// the exact RTL backend with the chosen truncation. No timed simulation.

struct ApproxFlow {
  std::unique_ptr<CellLibrary> lib;
  AgingModel model;
  std::vector<std::string> names;
  std::vector<Image> frames;
  std::vector<QuantizedImage> coded;
  /// Recorded IDCT multiplier operand streams, by sequence name.
  std::map<std::string, StimulusSet> streams;
};

struct GridEntry {
  ComponentSpec spec;
  int min_precision = 0;
};

/// Phase (a)'s grid; each entry gets one single-scenario surface per grid
/// scenario, the key the flow's own characterizations use.
std::vector<GridEntry> approx_grid() {
  std::vector<GridEntry> g;
  for (const AdderArch a : {AdderArch::ripple, AdderArch::cla4, AdderArch::kogge_stone}) {
    for (const int w : {8, 12, 16, 24, 32}) {
      g.push_back({{ComponentKind::adder, w, 0, a, MultArch::array}, w / 2});
    }
  }
  for (const MultArch m : {MultArch::array, MultArch::wallace}) {
    for (const int w : {8, 12, 16}) {
      g.push_back({{ComponentKind::multiplier, w, 0, AdderArch::cla4, m}, w / 2});
    }
  }
  for (const int w : {8, 12, 16}) {
    g.push_back({{ComponentKind::mac, w, 0, AdderArch::cla4, MultArch::array}, w / 2});
  }
  // The IDCT blocks at the flow's sweep floor, so phase (b) hits the store.
  for (const ComponentSpec& s : {kMult32, kAdder32, kClamp32}) g.push_back({s, 24});
  return g;
}

const std::vector<AgingScenario>& grid_scenarios() {
  static const std::vector<AgingScenario> s = {
      {StressMode::worst, 1.0},    {StressMode::worst, 5.0},
      {StressMode::worst, 10.0},   {StressMode::balanced, 1.0},
      {StressMode::balanced, 5.0}, {StressMode::balanced, 10.0}};
  return s;
}

constexpr double kFlowUnitsPer10s = 40.0;

std::string stream_name(const ApproxFlow& a, std::uint64_t variant) {
  return a.names[splitmix(variant + 0xa9) % a.names.size()];
}

ApproxFlow approx_flow_setup(const Options& o, Result&) {
  ApproxFlow a;
  a.lib = std::make_unique<CellLibrary>(make_nangate45_like());
  a.names = video_trace_names();
  const CodecConfig codec = codec_config();
  for (const std::string& name : a.names) {
    a.frames.push_back(frame(name, 352, 288));
    a.coded.push_back(pb::traced(pb::kImage, [&] {
      return encode_and_quantize(a.frames.back(), codec);
    }));
  }
  // The measured-mode stimulus: the IDCT multiplier operands of decoding a
  // seed-chosen sequence (paper Fig. 3c's actual-case stream).
  for (int u = 0; u < units_for(o, kFlowUnitsPer10s); ++u) {
    const std::string name = stream_name(a, variant_of(o, u));
    if (a.streams.count(name) != 0) continue;
    const std::size_t i = static_cast<std::size_t>(
        std::find(a.names.begin(), a.names.end(), name) - a.names.begin());
    ExactBackend exact(codec.width, 0, 0);
    RecordingBackend recorder(exact);
    const FixedPointIdct idct(codec, recorder);
    const QuantizedImage q = pb::traced(pb::kImage, [&] {
      return encode_and_quantize(crop(a.frames[i], 0, 0, 48, 48), codec);
    });
    (void)pb::traced(pb::kRtl, [&] { return idct.decode(q); });
    a.streams[name] = stimulus_from_operand_pairs(recorder.mult_ops(), codec.width, 2000);
  }
  return a;
}

struct FlowTotals {
  double phase_a = 0.0, phase_b = 0.0, phase_c = 0.0;
  double pixels = 0.0;
};

/// Phase (a) on a fresh Context; returns the digest of every surface.
std::uint64_t characterize_grid(const Options& o, const ApproxFlow& a, Result& r,
                                const std::string& store_path) {
  const bool traced = pb::Recorder::active() != nullptr;
  const std::unique_ptr<Context> ctx = make_context(o);
  Hasher digest;
  std::set<std::uint64_t> synthesized, timed;  // keys the traced run requested
  for (const GridEntry& e : approx_grid()) {
    CharacterizerOptions copt;
    copt.min_precision = e.min_precision;
    const ComponentCharacterizer characterizer(*ctx, *a.lib, a.model, copt);
    for (const AgingScenario& s : grid_scenarios()) {
      if (traced) {
        // The traced run makes the characterizer's own store calls one
        // layer at a time, each spread over the points like the sweep's
        // own parallel_for; characterize() below then only hits the store.
        std::vector<ComponentSpec> specs;
        for (int k = e.spec.width; k >= e.min_precision; --k) {
          ComponentSpec spec = e.spec;
          spec.truncated_bits = e.spec.width - k;
          specs.push_back(spec);
        }
        std::vector<const Netlist*> nls(specs.size());
        {
          pb::Span phase(pb::kBench);
          parallel(specs.size(), o.threads, [&](std::size_t i) {
            nls[i] = &pb::traced(pb::kSynth, [&]() -> const Netlist& {
              return ctx->store().netlist(*a.lib, specs[i]);
            });
          });
        }
        aged_library(r, *ctx, *a.lib, a.model, s.years);
        {
          pb::Span phase(pb::kBench);
          parallel(specs.size(), o.threads, [&](std::size_t i) {
            pb::traced(pb::kSta, [&] {
              ctx->store().aged_sta_delay(*a.lib, specs[i], a.model, StressMode::worst, 0.0, {});
              return ctx->store().aged_sta_delay(*a.lib, specs[i], a.model, s.mode, s.years, {});
            });
          });
        }
        // The store is fresh, so a spec's first request is its miss.
        for (std::size_t i = 0; i < specs.size(); ++i) {
          const double gates = static_cast<double>(nls[i]->num_gates());
          const std::uint64_t key = engine::key_of(specs[i]);
          if (synthesized.insert(key).second) {
            add_count(r, "synth.netlists", 1);
            add_count(r, "synth.gates", gates);
            add_count(r, "sta.gate_visits", gates);  // the fresh run
          }
          if (timed.insert(Hasher{}.u64(key).f64(s.years).i32(static_cast<int>(s.mode)).digest())
                  .second) {
            add_count(r, "sta.gate_visits", gates);
          }
        }
      }
      const ComponentCharacterization c = pb::traced(pb::kCore, [&] {
        return characterizer.characterize(e.spec, {s});
      });
      digest.u64(surface_digest(c));
      add_count(r, "core.points", static_cast<double>(c.points.size()));
      add_count(r, "core.surfaces", 1);
    }
  }
  const std::int64_t t0 = pb::now_ns();
  if (!pb::traced(pb::kPersist, [&] { return ctx->store().save(store_path); })) {
    throw std::runtime_error("approx_flow: cannot save " + store_path);
  }
  r.metrics["engine.persist.save_s"] += 1e-9 * static_cast<double>(pb::now_ns() - t0);
  store_counts(r.counts, *ctx);
  return digest.digest();
}

/// One unit of the flow, on Contexts of its own and on one thread: units
/// run side by side, one per worker, so each worker stays busy on its own
/// unit instead of waking for the sweeps' many short parallel sections.
Result approx_flow_unit(const Options& run, const ApproxFlow& a, int u, FlowTotals& total) {
  Options o = run;
  o.threads = 1;
  Result r;
  const bool traced = pb::Recorder::active() != nullptr;
  const std::vector<AgingScenario>& scenarios = grid_scenarios();
  const CodecConfig codec = codec_config();
  MicroarchSpec idct;
  idct.name = "idct32";
  idct.blocks = {{"mult", kMult32, false}, {"acc", kAdder32, false},
                 {"clamp", kClamp32, false}};
  {
    const std::uint64_t v = variant_of(o, u);
    const std::string store_path =
        (std::filesystem::path(o.workdir) /
         ("approx_flow_" + std::to_string(getpid()) + "_" + std::to_string(u) + ".store"))
            .string();
    std::filesystem::remove(store_path);

    // (a) cold characterization of the grid, saved to the store file.
    std::int64_t t0 = pb::now_ns();
    check(r, v, "grid.surfaces_digest", hex(characterize_grid(o, a, r, store_path)));
    total.phase_a += 1e-9 * static_cast<double>(pb::now_ns() - t0);

    // (b) flows on a fresh Context that opens the store file.
    t0 = pb::now_ns();
    const std::unique_ptr<Context> ctx = make_context(o);
    const std::int64_t open0 = pb::now_ns();
    pb::traced(pb::kPersist, [&] { return ctx->store().open(store_path); });
    r.metrics["engine.persist.open_s"] += 1e-9 * static_cast<double>(pb::now_ns() - open0);
    std::vector<FlowResult> plans;
    for (std::uint64_t f = 0; f < 3; ++f) {
      CharacterizerOptions copt;
      copt.min_precision = 24;
      MicroarchApproximator flow(*ctx, *a.lib, a.model, copt);
      FlowOptions fopt;
      fopt.scenario = scenarios[(splitmix(v + 0xf1) + 2 * f) % scenarios.size()];
      plans.push_back(pb::traced(pb::kCore, [&] { return flow.run(idct, fopt); }));
      add_count(r, "core.flows", 1);
    }
    // Measured mode: per-gate duty of the IDCT multiplier under the
    // recorded operands (packed simulation), then aged STA on that profile.
    const std::string stream = stream_name(a, v);
    const StimulusSet& ops = a.streams.at(stream);
    const DegradationAwareLibrary& aged = aged_library(r, *ctx, *a.lib, a.model, 10.0);
    for (int k = 32; k >= 28; --k) {
      ComponentSpec spec = kMult32;
      spec.truncated_bits = 32 - k;
      const Netlist& nl = netlist(r, *ctx, *a.lib, spec);
      // A netlist materialized from the store file has no cached
      // topological order yet, and measure_gate_duty's workers would all
      // build it at once (Netlist::topo_order fills a mutable cache
      // unsynchronized). Build it here, before the parallel section.
      (void)nl.topo_order();
      const std::vector<double> duty =
          pb::traced(pb::kPacked, [&] { return measure_gate_duty(nl, ops); });
      // Work in 64-lane words, the packed simulator's native width.
      const double words = std::ceil(static_cast<double>(ops.size()) / 64.0);
      add_count(r, "gatesim.packed.evals", words * static_cast<double>(nl.num_gates()));
      add_count(r, "gatesim.packed.vectors", static_cast<double>(ops.size()));
      add_count(r, "gatesim.packed.lane_slots", 64.0 * words);
      const double delay = pb::traced(pb::kSta, [&] {
        const Sta sta(nl, {}, ctx.get());
        return sta.run_aged(aged, StressProfile::measured(duty)).max_delay;
      });
      add_count(r, "sta.gate_visits", static_cast<double>(nl.num_gates()));
      check(r, v, "measured." + stream + ".k" + std::to_string(k), fmt(delay));
    }
    total.phase_b += 1e-9 * static_cast<double>(pb::now_ns() - t0);
    store_counts(r.counts, *ctx);
    std::filesystem::remove(store_path);

    // (c) decode every sequence at CIF with the first flow's truncation.
    t0 = pb::now_ns();
    const int mult_trunc = 32 - plans[0].blocks[0].chosen_precision;
    const int add_trunc = 32 - plans[0].blocks[1].chosen_precision;
    std::vector<double> psnrs(a.names.size(), 0.0);
    std::vector<std::uint64_t> mults(a.names.size(), 0), adds(a.names.size(), 0);
    {
      pb::Span phase(pb::kBench);
      parallel(a.names.size(), o.threads, [&](std::size_t i) {
        ExactBackend exact(codec.width, mult_trunc, add_trunc);
        CountingBackend counting(exact);
        ArithBackend& be = traced ? static_cast<ArithBackend&>(counting) : exact;
        const FixedPointIdct decoder(codec, be);
        const Image out = pb::traced(pb::kRtl, [&] { return decoder.decode(a.coded[i]); });
        psnrs[i] = image_psnr(a.frames[i], out);
        mults[i] = counting.mults;
        adds[i] = counting.adds;
      });
    }
    total.phase_c += 1e-9 * static_cast<double>(pb::now_ns() - t0);

    for (std::size_t f = 0; f < plans.size(); ++f) {
      const std::string tag = "flow" + std::to_string(f) + ".";
      std::string chosen;
      for (const BlockPlan& b : plans[f].blocks) {
        chosen += std::to_string(b.chosen_precision) + "/";
      }
      check(r, v, tag + "chosen_precisions", chosen);
      check(r, v, tag + "residual_guardband_ps", fmt(plans[f].residual_guardband));
      check(r, v, tag + "timing_constraint_ps", fmt(plans[f].timing_constraint));
    }
    for (std::size_t i = 0; i < a.names.size(); ++i) {
      check(r, v, "psnr." + a.names[i], fmt(psnrs[i]));
      total.pixels += static_cast<double>(a.frames[i].width() * a.frames[i].height());
      if (traced) {
        add_count(r, "rtl.mult_ops", static_cast<double>(mults[i]));
        add_count(r, "rtl.add_ops", static_cast<double>(adds[i]));
      }
    }
  }
  return r;
}

Result approx_flow_run(const Options& o, ApproxFlow& a, Result r) {
  const auto units = static_cast<std::size_t>(units_for(o, kFlowUnitsPer10s));
  std::vector<Result> parts(units);
  std::vector<FlowTotals> totals(units);
  Window w;
  {
    pb::Span phase(pb::kBench);
    each_task(units, o.threads, [&](std::size_t u) {
      parts[u] = approx_flow_unit(o, a, static_cast<int>(u), totals[u]);
    });
  }
  w.close(r);

  // Merged in unit order, so every output name lists its units in order.
  FlowTotals total;
  for (std::size_t u = 0; u < units; ++u) {
    for (auto& [key, values] : parts[u].checks) {
      std::vector<std::string>& into = r.checks[key];
      into.insert(into.end(), values.begin(), values.end());
    }
    for (const auto& [key, v] : parts[u].counts) r.counts[key] += v;
    for (const auto& [key, v] : parts[u].metrics) r.metrics[key] += v;
    total.phase_a += totals[u].phase_a;
    total.phase_b += totals[u].phase_b;
    total.phase_c += totals[u].phase_c;
    total.pixels += totals[u].pixels;
  }
  add_count(r, "rtl.pixels", total.pixels);
  r.metrics["surfaces_per_s"] = r.counts["core.surfaces"] / total.phase_a;
  r.metrics["flow_s"] = total.phase_b;
  r.metrics["rtl_mpix_per_s"] = total.pixels / 1e6 / total.phase_c;
  return r;
}

// -------------------------------------------------------------- serve_mix --
// An in-process service on a fresh root Context. Four synchronous clients
// form a closed loop over a seeded mix: characterize requests on a warmed
// hot set (store hits, with concurrent duplicates for in-flight dedup),
// novel specs (cold sweeps that insert into the store) and aged-delay
// queries. Every answer is checked against a local computation. The shares
// (40/40/20 %), the 12-spec hot set and the 2 server workers are chosen, not
// taken from recorded traffic; README.md gives the reason for each.

struct ServeMix {
  std::unique_ptr<Context> root;
  std::unique_ptr<service::Server> server;
  struct Request {
    bool delay = false;  ///< aged-delay query, else characterize
    service::CharacterizeRequest characterize;
    service::AgedDelayRequest aged;
  };
  std::vector<std::vector<Request>> clients;
};

constexpr int kServeClients = 4;
constexpr double kServeRequestsPer10s = 7000.0;  ///< per client
/// Shares of the mix, in percent: novel sweeps, aged-delay queries; the
/// rest are characterize requests on the hot set.
constexpr std::size_t kServeNovelPct = 40;
constexpr std::size_t kServeDelayPct = 20;

service::CharacterizeRequest serve_spec(int width, AdderArch arch, int min_precision,
                                        const AgingScenario& s) {
  service::CharacterizeRequest req;
  req.spec = {ComponentKind::adder, width, 0, arch, MultArch::array};
  req.scenarios = {s};
  req.min_precision = min_precision;
  return req;
}

ServeMix serve_mix_setup(const Options& o, Result&) {
  ServeMix m;
  m.root = make_context(o);
  service::ServerOptions so;
  so.listen = "tcp:0";
  so.workers = 2;
  so.queue_capacity = 256;
  m.server = std::make_unique<service::Server>(*m.root, so);
  std::string err;
  if (!m.server->start(&err)) throw std::runtime_error("serve_mix: " + err);

  const AdderArch archs[3] = {AdderArch::ripple, AdderArch::cla4, AdderArch::kogge_stone};
  std::vector<service::CharacterizeRequest> hot;
  for (int i = 0; i < 12; ++i) {
    const int width = 12 + 2 * i;
    hot.push_back(serve_spec(width, archs[i % 3], width / 2, {StressMode::worst, 10.0}));
  }
  const auto per_client =
      static_cast<std::size_t>(std::lround(kServeRequestsPer10s * o.seconds / 10.0));
  // Novel requests are distinct across the run and from every other
  // request: a hot-set adder at a lifetime no other request uses, worst and
  // balanced stress. The hot set's netlists are synthesized while warming
  // it (set-up), so a novel request is two aged-STA sweeps plus, for the
  // first of its lifetime, an aged library; every one costs about the same,
  // so the window's load stays even instead of front-loaded with synthesis.
  const std::size_t lifetimes = std::max<std::size_t>(
      8, per_client * kServeClients * (kServeNovelPct + 5) / 100 / hot.size() + 1);
  std::vector<service::CharacterizeRequest> novel;
  for (std::size_t y = 0; y < lifetimes; ++y) {
    const double years =
        1.0 + 9.0 * (static_cast<double>(y) + 0.5) / static_cast<double>(lifetimes);
    for (const service::CharacterizeRequest& h : hot) {
      novel.push_back(h);
      novel.back().scenarios = {{StressMode::worst, years}, {StressMode::balanced, years}};
    }
  }
  std::uint64_t state = splitmix(variant_of(o, 0) + 0x5e);
  const auto next = [&state] { return state = splitmix(state); };
  for (std::size_t i = novel.size(); i > 1; --i) std::swap(novel[i - 1], novel[next() % i]);

  std::size_t novel_used = 0;
  m.clients.resize(kServeClients);
  for (std::size_t i = 0; i < per_client; ++i) {
    for (auto& client : m.clients) {
      ServeMix::Request req;
      const std::uint64_t roll = next() % 100;
      if (roll < kServeNovelPct && novel_used < novel.size()) {
        req.characterize = novel[novel_used++];
      } else if (roll < kServeNovelPct + kServeDelayPct) {
        req.delay = true;
        req.aged.spec = hot[next() % hot.size()].spec;
        req.aged.spec.truncated_bits = static_cast<int>(next() % 4);
        req.aged.mode = next() % 2 == 0 ? StressMode::worst : StressMode::balanced;
        req.aged.years = 1.0 + static_cast<double>(next() % 10);
      } else {
        // Picked at random: two clients asking for one spec at once meet in
        // the server's in-flight dedup now and then, at a rate that does not
        // depend on the clients running in step.
        req.characterize = hot[next() % hot.size()];
      }
      client.push_back(req);
    }
  }
  // Warm the hot set: outside the measured window, part of set-up.
  service::ServiceClient warm(m.server->endpoint());
  for (const service::CharacterizeRequest& h : hot) {
    if (!warm.characterize(h, &err)) throw std::runtime_error("serve_mix warm: " + err);
  }
  return m;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

Result serve_mix_run(const Options& o, ServeMix& m, Result r) {
  struct Answer {
    bool ok = false;
    std::uint64_t digest = 0;
    double delay = 0.0;
    double latency_ms = 0.0;
  };
  std::vector<std::vector<Answer>> answers(kServeClients);
  std::vector<std::uint64_t> retries(kServeClients, 0);

  Window w;
  {
    std::vector<std::thread> threads;
    const pb::ThreadContext caller = pb::thread_context();
    for (std::size_t c = 0; c < kServeClients; ++c) {
      threads.emplace_back([&, c] {
        pb::thread_context() = caller;
        service::ServiceClient client(m.server->endpoint());
        std::uint32_t op = 0;
        for (const ServeMix::Request& req : m.clients[c]) {
          pb::thread_context().op = (static_cast<std::uint32_t>(c) << 24) | op++;
          Answer a;
          std::string err;
          const std::int64_t t0 = pb::now_ns();
          {
            pb::Span span(pb::kService, false);  // waits on a socket: no CPU
            if (req.delay) {
              if (const auto d = client.aged_delay(req.aged, &err)) {
                a.ok = true;
                a.delay = *d;
              }
            } else if (const auto s = client.characterize(req.characterize, &err)) {
              a.ok = true;
              a.digest = surface_digest(s->surface);
            }
          }
          a.latency_ms = 1e-6 * static_cast<double>(pb::now_ns() - t0);
          answers[c].push_back(a);
        }
        retries[c] = client.retries();
      });
    }
    for (std::thread& t : threads) t.join();
  }
  w.close(r);

  const service::StatsResponse stats = m.server->stats_response();
  const service::Server::Stats ss = m.server->stats();
  double server_us = 0.0;
  for (const auto& op : stats.ops) server_us += op.sum_us;
  m.server->stop();

  // Reference answers, computed on a private Context after the window and
  // not traced: the checker is not part of the system under test. Each
  // distinct characterize request is recomputed once, in parallel.
  const std::unique_ptr<Context> local = make_context(o);
  const CellLibrary lib = make_nangate45_like();
  const AgingModel model;
  std::map<std::uint64_t, std::uint64_t> expected;
  std::vector<const service::CharacterizeRequest*> distinct;
  for (const auto& client : m.clients) {
    for (const ServeMix::Request& req : client) {
      if (!req.delay && expected.emplace(req.characterize.dedup_key(), 0).second) {
        distinct.push_back(&req.characterize);
      }
    }
  }
  std::vector<std::uint64_t> want(distinct.size());
  aapx::parallel_for(
      distinct.size(),
      [&](std::size_t k) {
        const service::CharacterizeRequest& q = *distinct[k];
        CharacterizerOptions copt;
        copt.min_precision = q.min_precision;
        copt.precision_step = q.precision_step;
        copt.sta = q.sta;
        const ComponentCharacterizer characterizer(*local, lib, model, copt);
        want[k] = surface_digest(characterizer.characterize(q.spec, q.scenarios));
      },
      o.threads);
  if (o.corrupt_expected && !want.empty()) want[0] ^= 1;
  for (std::size_t k = 0; k < distinct.size(); ++k) {
    expected[distinct[k]->dedup_key()] = want[k];
  }
  std::vector<double> latencies;
  double client_ms = 0.0;
  std::uint64_t completed = 0;
  Hasher digest;
  for (std::size_t c = 0; c < kServeClients; ++c) {
    for (std::size_t i = 0; i < m.clients[c].size(); ++i) {
      const ServeMix::Request& req = m.clients[c][i];
      const Answer& a = answers[c][i];
      ++r.attempted;
      latencies.push_back(a.latency_ms);
      client_ms += a.latency_ms;
      if (!a.ok) {
        ++r.failed;
        continue;
      }
      ++completed;
      if (req.delay) {
        const double want = local->store().aged_sta_delay(
            lib, req.aged.spec, model, req.aged.mode, req.aged.years, req.aged.sta);
        if (want != a.delay) ++r.failed;
        digest.f64(a.delay);
        continue;
      }
      if (expected.at(req.characterize.dedup_key()) != a.digest) ++r.failed;
      digest.u64(a.digest);
    }
  }
  // No stored reference (the mix depends on the run length): compared only
  // between runs of one seed, across thread counts and traced vs untraced.
  check(r, variant_of(o, 0), "answers_digest", hex(digest.digest()));

  std::uint64_t retried = 0;
  for (const std::uint64_t n : retries) retried += n;
  r.metrics["req_per_s"] = static_cast<double>(completed) / r.wall_s;
  r.metrics["latency_p50_ms"] = percentile(latencies, 0.50);
  r.metrics["latency_p99_ms"] = percentile(latencies, 0.99);
  r.metrics["service.server_s"] = 1e-6 * server_us;
  r.metrics["service.wire_s"] = 1e-3 * client_ms - 1e-6 * server_us;
  add_count(r, "service.requests", static_cast<double>(r.attempted));
  r.measured["service.completed"] = static_cast<double>(ss.completed);
  r.measured["service.shed"] = static_cast<double>(ss.shed);
  r.measured["service.deduped"] = static_cast<double>(ss.deduped);
  r.measured["service.cancelled"] = static_cast<double>(ss.cancelled);
  r.measured["service.retries"] = static_cast<double>(retried);
  // The server keeps the peak of its admission queue in this gauge.
  r.measured["service.max_queue_depth"] =
      m.root->metrics().gauge("service.queue.depth").max();
  r.measured["service.dedup_ratio"] =
      ss.requests > 0 ? static_cast<double>(ss.deduped) / static_cast<double>(ss.requests)
                      : 0.0;
  // The server's store serves racing clients, so its counts are timing-
  // dependent measurements here.
  store_counts(r.measured, *m.root);
  return r;
}

// ------------------------------------------------------------ per layer --

using Interval = std::pair<std::int64_t, std::int64_t>;

/// Length of the union of `iv` clipped to [lo, hi).
std::int64_t covered_ns(std::vector<Interval> iv, std::int64_t lo, std::int64_t hi) {
  std::sort(iv.begin(), iv.end());
  std::int64_t covered = 0;
  std::int64_t run_lo = lo, run_hi = lo;
  for (const auto& [a, b] : iv) {
    const std::int64_t ca = std::max(a, lo);
    const std::int64_t cb = std::min(b, hi);
    if (cb <= ca) continue;
    if (ca > run_hi) {
      covered += run_hi - run_lo;
      run_lo = ca;
      run_hi = cb;
    } else {
      run_hi = std::max(run_hi, cb);
    }
  }
  return covered + (run_hi - run_lo);
}

/// Per-layer time from the recorded spans. busy = summed duration of a
/// layer's outermost spans (a span nested in a span of its own layer is not
/// counted twice); self = duration minus the union of the intervals its
/// child spans cover, so a phase whose children run on other threads is
/// charged only for the time no child was running. trace.unattributed_s is
/// the time of the root span during which no layer call ran on any thread.
std::map<std::string, double> layer_times(const pb::Recorder& rec) {
  std::map<pb::SpanId, std::vector<Interval>> children;
  std::vector<Interval> layer_calls;
  const pb::SpanRecord* root = nullptr;
  for (const pb::Recorder::Buffer& b : rec.buffers()) {
    for (const pb::SpanRecord& s : b.spans) {
      if (s.parent != 0) children[s.parent].push_back({s.start_ns, s.end_ns});
      if (s.layer != pb::kBench) layer_calls.push_back({s.start_ns, s.end_ns});
      if (s.parent == 0 && s.layer == pb::kBench) root = &s;
    }
  }
  double busy[pb::kLayerCount] = {}, self[pb::kLayerCount] = {};
  double cpu[pb::kLayerCount] = {}, calls[pb::kLayerCount] = {};
  for (const pb::Recorder::Buffer& b : rec.buffers()) {
    for (std::size_t i = 0; i < b.spans.size(); ++i) {
      const pb::SpanRecord& s = b.spans[i];
      const pb::SpanId id = (static_cast<pb::SpanId>(b.index) << 32) | i;
      std::int64_t covered = 0;
      if (const auto it = children.find(id); it != children.end()) {
        covered = covered_ns(it->second, s.start_ns, s.end_ns);
      }
      self[s.layer] +=
          1e-9 * static_cast<double>(s.end_ns - s.start_ns - covered - s.leaf_ns);
      calls[s.layer] += 1.0;
      bool outermost = true;
      for (pb::SpanId p = s.parent; p != 0 && outermost; p = rec.get(p).parent) {
        outermost = rec.get(p).layer != s.layer;
      }
      if (!outermost) continue;
      busy[s.layer] += 1e-9 * static_cast<double>(s.end_ns - s.start_ns);
      if (s.cpu_ns >= 0) cpu[s.layer] += 1e-9 * static_cast<double>(s.cpu_ns);
    }
  }
  // Leaf calls sit inside a span of another layer, so they are outermost
  // for their own layer and have no children of their own.
  for (const pb::Recorder::Buffer& b : rec.buffers()) {
    for (int l = 0; l < pb::kLayerCount; ++l) {
      const double t = 1e-9 * static_cast<double>(b.leaf_ns[l]);
      busy[l] += t;
      self[l] += t;
      calls[l] += static_cast<double>(b.leaf_calls[l]);
    }
  }
  std::map<std::string, double> out;
  for (int l = 0; l < pb::kLayerCount; ++l) {
    const std::string name = pb::layer_name(static_cast<pb::Layer>(l));
    out[name + ".busy_s"] = busy[l];
    out[name + ".self_s"] = self[l];
    out[name + ".cpu_s"] = cpu[l];
    out[name + ".calls"] = calls[l];
  }
  if (root != nullptr) {
    const std::int64_t dur = root->end_ns - root->start_ns;
    out["trace.root_s"] = 1e-9 * static_cast<double>(dur);
    out["trace.unattributed_s"] =
        1e-9 * static_cast<double>(
                   dur - covered_ns(std::move(layer_calls), root->start_ns, root->end_ns));
  }
  return out;
}

void write_trace(const pb::Recorder& rec, const std::string& path) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write trace file " + path);
  std::int64_t t0 = INT64_MAX;
  for (const auto& b : rec.buffers()) {
    for (const auto& s : b.spans) t0 = std::min(t0, s.start_ns);
  }
  os << "[";
  bool first = true;
  for (const auto& b : rec.buffers()) {
    for (std::size_t i = 0; i < b.spans.size(); ++i) {
      const pb::SpanRecord& s = b.spans[i];
      os << (first ? "\n" : ",\n") << "{\"name\":\"" << pb::layer_name(s.layer)
         << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << b.index
         << ",\"ts\":" << fmt(1e-3 * static_cast<double>(s.start_ns - t0))
         << ",\"dur\":" << fmt(1e-3 * static_cast<double>(s.end_ns - s.start_ns))
         << ",\"args\":{\"id\":" << ((static_cast<std::uint64_t>(b.index) << 32) | i)
         << ",\"parent\":" << s.parent << ",\"op\":" << s.op << "}}";
      first = false;
    }
  }
  os << "\n]\n";
}

// ------------------------------------------------------------------ main --

template <typename State>
struct Workload {
  std::function<State(const Options&, Result&)> setup;
  std::function<Result(const Options&, State&, Result)> run;
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Set-ups per run: the first in a process pays for page faults and pool
/// start-up, so setup_s is the median of several.
constexpr int kSetups = 11;

/// Set-up `setups` times (each cold, the last one kept), then the measured run.
template <typename State>
Result measure(const Options& o, const Workload<State>& wl, int setups,
               std::vector<double>* setup_samples) {
  std::unique_ptr<State> state;
  Result from_setup;  ///< counts and metrics the last set-up recorded
  for (int i = 0; i < setups; ++i) {
    state.reset();
    Result counts;
    const std::int64_t t0 = pb::now_ns();
    state = std::make_unique<State>(wl.setup(o, counts));
    if (setup_samples) setup_samples->push_back(1e-9 * static_cast<double>(pb::now_ns() - t0));
    from_setup = std::move(counts);
  }
  return wl.run(o, *state, std::move(from_setup));
}

template <typename State>
int drive(const Options& o, const Workload<State>& wl) {
  std::vector<double> setup;
  Result r = measure(o, wl, kSetups, &setup);
  std::vector<double> sorted = setup;
  std::sort(sorted.begin(), sorted.end());

  std::string layers = "{}";
  double overhead = 0.0;
  if (o.trace) {
    pb::Recorder rec;
    pb::Recorder::active() = &rec;
    Result t;
    {
      pb::Span root(pb::kBench);
      t = measure(o, wl, 1, nullptr);
    }
    pb::Recorder::active() = nullptr;
    if (t.checks != r.checks) {
      std::fprintf(stderr, "perfbench: traced run's outputs differ from the untraced run's\n");
      return 3;
    }
    // The first run in a process pays for page faults and pool start-up
    // that later runs do not, so the overhead is taken against a second
    // untraced run made after the traced one.
    const Result again = measure(o, wl, 1, nullptr);
    std::map<std::string, double> times = layer_times(rec);
    times["trace.wall_s"] = t.wall_s;
    times["trace.untraced_wall_s"] = again.wall_s;
    overhead = t.wall_s / again.wall_s - 1.0;
    for (const auto& [k, v] : t.counts) times[k] = v;
    for (const auto& [k, v] : t.measured) times[k] = v;
    for (const auto& [k, v] : t.metrics) times["traced." + k] = v;
    layers = json_object(times, [](double v) { return fmt(v); });
    if (!o.trace_out.empty()) write_trace(rec, o.trace_out);
  }

  std::string line = "{\"workload\": " + quote(o.workload);
  line += ", \"seed\": " + std::to_string(o.seed);
  line += ", \"threads\": " + std::to_string(o.threads);
  line += ", \"setup_s\": " + fmt(sorted[sorted.size() / 2]);
  line += ", \"setup_samples\": [";
  for (std::size_t i = 0; i < setup.size(); ++i) line += (i ? ", " : "") + fmt(setup[i]);
  line += "]";
  line += ", \"wall_s\": " + fmt(r.wall_s);
  line += ", \"cpu_s\": " + fmt(r.cpu_s);
  line += ", \"peak_rss_mb\": " + fmt(peak_rss_mb());
  line += ", \"attempted\": " + std::to_string(r.attempted);
  line += ", \"failed\": " + std::to_string(r.failed);
  line += ", \"metrics\": " + json_object(r.metrics, [](double v) { return fmt(v); });
  line += ", \"counts\": " + json_object(r.counts, [](double v) { return fmt(v); });
  line += ", \"measured\": " + json_object(r.measured, [](double v) { return fmt(v); });
  line += ", \"checks\": " + json_object(r.checks, [](const std::vector<std::string>& vs) {
            std::string out = "[";
            for (const std::string& v : vs) out += (out.size() > 1 ? ", " : "") + quote(v);
            return out + "]";
          });
  if (o.trace) {
    line += ", \"trace_overhead_frac\": " + fmt(overhead);
    line += ", \"layers\": " + layers;
  }
  line += "}";
  std::printf("%s\n", line.c_str());
  return 0;
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      o.seconds = std::stod(value);
    } else if (flag == "--threads") {
      o.threads = std::stoi(value);
    } else if (flag == "--trace") {
      o.trace = value == "1";
    } else if (flag == "--workdir") {
      o.workdir = value;
    } else if (flag == "--trace-out") {
      o.trace_out = value;
    } else if (flag == "--corrupt-expected") {
      o.corrupt_expected = value == "1";
    } else {
      throw std::invalid_argument("unknown option " + flag);
    }
  }
  if (o.seconds <= 0.0) throw std::invalid_argument("--seconds must be > 0");
  if (o.threads <= 0) {
    o.threads = static_cast<int>(std::min(4u, std::max(1u, std::thread::hardware_concurrency())));
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options o = parse(argc, argv);
    if (o.workload == "gate_chain") {
      return drive(o, Workload<GateChain>{gate_chain_setup, gate_chain_run});
    }
    if (o.workload == "closed_loop") {
      return drive(o, Workload<ClosedLoop>{closed_loop_setup, closed_loop_run});
    }
    if (o.workload == "approx_flow") {
      return drive(o, Workload<ApproxFlow>{approx_flow_setup, approx_flow_run});
    }
    if (o.workload == "serve_mix") {
      return drive(o, Workload<ServeMix>{serve_mix_setup, serve_mix_run});
    }
    throw std::invalid_argument("unknown workload '" + o.workload + "'");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
