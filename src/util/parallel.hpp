// Thread-pooled parallel_for for the embarrassingly-parallel grains of the
// flow: precision points in characterization, Monte-Carlo dies, stimulus
// batches, campaign runs and image decodes.
//
// Determinism contract: parallel_for(n, fn) calls fn(i) exactly once for
// every i in [0, n); each body must write only to state owned by index i
// (its own result slot). Under that discipline results are bit-identical to
// a serial loop regardless of thread count or scheduling, which is what the
// determinism tests assert. Shared *read-only* state (netlists, libraries,
// prewarmed caches) is safe; shared mutable state needs its own lock.
//
// Nested parallel_for calls run serially in the calling worker — the outer
// grain already owns the pool, and the inner loop stays deterministic.
#pragma once

#include <cstddef>
#include <functional>

namespace aapx {

namespace obs {
class Tracer;
}  // namespace obs

/// Hardware concurrency, at least 1.
int hardware_threads();

/// Runs fn(i) for every i in [0, n), distributing chunks over `threads`
/// workers (0 = hardware_threads()). Falls back to a plain serial loop when
/// n is tiny, when only one thread is configured, or when already inside a
/// parallel_for body. The first exception thrown by any body is rethrown on
/// the caller after all workers finish. A pooled run records its
/// `parallel_for`/`parallel_for.work` spans into `tracer` (nullptr = none;
/// Context::parallel_for passes its own).
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                  int threads = 0, obs::Tracer* tracer = nullptr);

/// True while executing inside a parallel_for body on any thread (used to
/// serialize nested parallelism).
bool in_parallel_region();

/// RAII marker: in_parallel_region() is true on this thread for the scope.
/// For work that must stay off the deterministic serial spine even when it
/// happens to run there — e.g. DesignStore cache fills, whose execution
/// depends on process-wide cache history: any run-log record emitted from
/// inside would make the log depend on what ran earlier in the process.
class OffSpineGuard {
 public:
  OffSpineGuard();
  ~OffSpineGuard();
  OffSpineGuard(const OffSpineGuard&) = delete;
  OffSpineGuard& operator=(const OffSpineGuard&) = delete;

 private:
  bool prev_;
};

}  // namespace aapx
