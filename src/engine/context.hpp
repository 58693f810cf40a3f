// Explicit execution context — the home of everything that used to be a
// process-global singleton.
//
// A Context bundles the shared evaluation substrate one logical "tenant" of
// the process uses:
//
//   * a content-addressed engine::DesignStore (synthesized netlists,
//     degradation-aware libraries, aged-STA delays — see design_store.hpp),
//   * the observability sinks (metrics registry, run log, tracer handle),
//   * the worker count its parallel sweeps fan out to,
//   * a base seed from which per-purpose RNG streams are derived.
//
// Layers take `Context&` (or `const Context*` for the leaf layers below the
// engine) instead of reaching for MetricsRegistry::instance(),
// RunLog::instance() or the global worker-count override. Two Contexts in
// one process are fully isolated: campaigns running concurrently under
// different Contexts share no caches, no metrics and no log — which is what
// makes multi-tenant serving correct (see tests/engine/
// context_isolation_test.cpp).
//
// `Context::process_default()` is the compatibility shim: it routes metrics
// and the run log to the historic process-wide singletons and its worker
// count to the aapx::set_num_threads() global, so every pre-Context call
// site (and the `--threads/-j`/AAPX_THREADS contract) behaves exactly as
// before. Code that never mentions a Context implicitly runs on it.
//
// Layering note: this header is includable from the layers *below* the
// engine library (sta, synth) because everything they call is inline and
// touches only obs/util types; Context construction and store() live in the
// engine library, which links above sta/synth.
#pragma once

#include <atomic>
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
    /// Worker count for this Context's parallel sweeps. 0 = inherit the
    /// process default (aapx::set_num_threads() / AAPX_THREADS / hardware).
    int threads = 0;
    /// Base seed for make_rng() stream derivation.
    std::uint64_t seed = 0x9e3779b97f4a7c15ULL;
    /// Metrics sink; nullptr = this Context owns a fresh private registry.
    obs::MetricsRegistry* metrics = nullptr;
    /// Run-log sink; nullptr = this Context owns a fresh private log
    /// (disabled until opened).
    obs::RunLog* runlog = nullptr;
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
  /// (closed) run log.
  Context();
  explicit Context(const Options& options);
  ~Context();
  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  /// The process-default Context: global metrics registry, global run log,
  /// worker count driven by the aapx::set_num_threads() shim. Created on
  /// first use, lives for the process.
  static Context& process_default();

  /// The unified design cache. Internally synchronized; const because every
  /// layer holds the Context by const reference on its read paths.
  engine::DesignStore& store() const noexcept { return *store_; }

  obs::MetricsRegistry& metrics() const noexcept { return *metrics_; }
  obs::RunLog& runlog() const noexcept { return *runlog_; }
  /// Tracing is process-wide (per-thread buffers, one Chrome trace per run);
  /// the Context carries the handle so call sites stay sink-agnostic.
  obs::Tracer& tracer() const noexcept { return *tracer_; }

  /// Resolved worker count: this Context's override if set, else the
  /// process default chain (set_num_threads / AAPX_THREADS / hardware).
  int num_threads() const noexcept {
    const int t = threads_.load(std::memory_order_relaxed);
    return t > 0 ? t : aapx::num_threads();
  }
  /// Per-Context worker-count override (0 = back to the process default).
  void set_num_threads(int threads) {
    threads_.store(threads, std::memory_order_relaxed);
  }

  std::uint64_t seed() const noexcept {
    return seed_.load(std::memory_order_relaxed);
  }
  void set_seed(std::uint64_t seed) {
    seed_.store(seed, std::memory_order_relaxed);
  }
  /// Deterministic RNG stream `stream` of this Context's base seed. Distinct
  /// streams are decorrelated; the same (seed, stream) always reproduces.
  Rng make_rng(std::uint64_t stream) const noexcept {
    return Rng(mix_seed(seed(), stream));
  }

  /// The cancellation token long-running work under this Context observes,
  /// or nullptr. Swappable at runtime: the CLI arms the process-default
  /// Context's token before dispatch, the server arms one per request.
  const CancelToken* cancel_token() const noexcept {
    return cancel_.load(std::memory_order_relaxed);
  }
  void set_cancel_token(const CancelToken* token) noexcept {
    cancel_.store(token, std::memory_order_relaxed);
  }
  /// Throws CancelledError if this Context's token (if any) has tripped.
  /// Two relaxed loads when untripped — cheap enough for per-grain checks
  /// (one precision point, one STA fill), which is the granularity the
  /// serve deadline contract promises.
  void check_cancelled(const char* where) const {
    if (const CancelToken* token = cancel_token()) token->check(where);
  }

  /// parallel_for with this Context's worker count. Same determinism
  /// contract as aapx::parallel_for: results are bit-identical at any count.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t)>& fn) const {
    aapx::parallel_for(n, fn, threads_.load(std::memory_order_relaxed));
  }

 private:
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  std::unique_ptr<obs::RunLog> owned_runlog_;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::RunLog* runlog_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  std::unique_ptr<engine::DesignStore> owned_store_;
  engine::DesignStore* store_ = nullptr;
  std::atomic<int> threads_{0};
  std::atomic<std::uint64_t> seed_{0};
  std::atomic<const CancelToken*> cancel_{nullptr};
};

}  // namespace aapx
