// Explicit execution context: one logical "tenant" of the process. It owns
// (or borrows) a content-addressed engine::DesignStore (see
// design_store.hpp), a metrics registry, a run log and a tracer, and fixes
// at construction the worker count, the base seed of its RNG streams and
// the cancel token its long-running work observes. It has no setters.
//
// Every entry point builds one root Context from its own flags and passes it
// down — the `aapx` CLI and the benches' guarded_main from --threads/-j and
// their signal token; tests and examples build their own. Two Contexts in
// one process share no caches, no metrics, no log and no trace, which is
// what makes multi-tenant serving correct
// (tests/engine/context_isolation_test.cpp).
//
//   * Metrics. A layer that holds a Context counts in metrics(). Layers with
//     none (gatesim, the thread pool, aging lifetime, an Sta built with a
//     null Context) count in the process registry obs::metrics(); the CLI
//     and bench roots use that registry too, so one snapshot holds both.
//   * Run log. Only code holding a Context writes records; an Sta built
//     with a null Context writes none.
//   * Tracing. Only code holding a Context opens spans, into tracer(); the
//     CLI's and benches' --trace starts the root's. Contexts built beneath
//     a root (the server's per-request ones, a bench's cold ones) borrow
//     its tracer, so one file holds the whole run. Layers with none record
//     no spans, and neither do their parallel_for calls.
//   * Threads. Options::threads == 0 means hardware_threads(). Layers below
//     the engine take their width from the caller (a `threads` argument or
//     a Context).
//   * Cancellation. Work checks the token it is handed; there is no global.
//
// Layering note: this header is includable from the layers *below* the
// engine library (sta, synth) because everything they call is inline and
// touches only obs/util types; Context construction and store() live in the
// engine library, which links above sta/synth.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "engine/cancel.hpp"
#include "obs/metrics.hpp"
#include "obs/runlog.hpp"
#include "obs/trace.hpp"
#include "util/hash.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace aapx {

namespace engine {
class DesignStore;
}  // namespace engine

class Context {
 public:
  struct Options {
    /// Worker count for this Context's parallel sweeps; 0 = all hardware
    /// threads.
    int threads = 0;
    /// Base seed for make_rng() stream derivation.
    std::uint64_t seed = 0x9e3779b97f4a7c15ULL;
    /// Metrics sink; nullptr = this Context owns a fresh private registry.
    obs::MetricsRegistry* metrics = nullptr;
    /// Run-log sink; nullptr = this Context owns a fresh private log
    /// (disabled until opened).
    obs::RunLog* runlog = nullptr;
    /// Span sink; nullptr = this Context owns a fresh private tracer (off
    /// until started).
    obs::Tracer* tracer = nullptr;
    /// Store file to open into the DesignStore at construction (the CLI's
    /// `--store` / AAPX_STORE). Empty = in-memory only. Opening never
    /// fails hard: a missing file is a cold start, a damaged one degrades
    /// to cold with a warning (see DesignStore::open).
    std::string store_path;
    /// Borrowed DesignStore instead of an owned one — the multi-tenant
    /// sharing knob: `aapx serve` gives every per-connection Context the
    /// root Context's store so all clients warm one cache. The store (and
    /// the Context that owns it) must outlive this Context; store_path is
    /// ignored when set. nullptr = own a private store (the default, and
    /// the isolation the context_isolation tests pin down).
    engine::DesignStore* shared_store = nullptr;
    /// Cancellation token checked by this Context's long-running sweeps
    /// (see engine/cancel.hpp). Borrowed; nullptr = never cancelled.
    const CancelToken* cancel = nullptr;
  };

  /// Fully private Context: own DesignStore, own metrics registry, own
  /// (closed) run log, own (stopped) tracer.
  Context();
  explicit Context(const Options& options);
  ~Context();
  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  /// The unified design cache. Internally synchronized; const because every
  /// layer holds the Context by const reference on its read paths.
  engine::DesignStore& store() const noexcept { return *store_; }

  obs::MetricsRegistry& metrics() const noexcept { return *metrics_; }
  obs::RunLog& runlog() const noexcept { return *runlog_; }
  obs::Tracer& tracer() const noexcept { return *tracer_; }
  /// This Context's worker count (Options::threads, or hardware_threads()
  /// when that was 0).
  int num_threads() const noexcept { return threads_; }

  std::uint64_t seed() const noexcept { return seed_; }
  /// Deterministic RNG stream `stream` of this Context's base seed. Distinct
  /// streams are decorrelated; the same (seed, stream) always reproduces.
  Rng make_rng(std::uint64_t stream) const noexcept {
    return Rng(mix_seed(seed(), stream));
  }

  /// The cancellation token long-running work under this Context observes,
  /// or nullptr. The CLI and bench roots carry their signal token, the
  /// server one token per request.
  const CancelToken* cancel_token() const noexcept { return cancel_; }
  /// Throws CancelledError if this Context's token (if any) has tripped.
  /// Two relaxed loads when untripped — cheap enough for per-grain checks
  /// (one precision point, one STA fill), which is the granularity the
  /// serve deadline contract promises.
  void check_cancelled(const char* where) const {
    if (const CancelToken* token = cancel_token()) token->check(where);
  }

  /// parallel_for with this Context's worker count and tracer. Same
  /// determinism contract as aapx::parallel_for: results are bit-identical
  /// at any count.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t)>& fn) const {
    aapx::parallel_for(n, fn, threads_, tracer_);
  }

 private:
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  std::unique_ptr<obs::RunLog> owned_runlog_;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::RunLog* runlog_ = nullptr;
  std::unique_ptr<obs::Tracer> owned_tracer_;
  obs::Tracer* tracer_ = nullptr;
  std::unique_ptr<engine::DesignStore> owned_store_;
  engine::DesignStore* store_ = nullptr;
  const int threads_;
  const std::uint64_t seed_;
  const CancelToken* const cancel_;
};

}  // namespace aapx
