// Hierarchical tracing with Chrome trace-event JSON output.
//
// A Tracer is an ordinary object: each aapx::Context owns one or borrows
// its root's (ctx.tracer()), so two Contexts tracing in one process write
// two disjoint traces. Spans are RAII and name their tracer explicitly:
// `obs::Span span(&ctx.tracer(), "characterize");` records a B(egin) event
// on construction and an E(nd) event on destruction, on the calling
// thread's own timeline — so spans opened inside parallel_for bodies nest
// under the worker thread that ran the grain, and the written file shows
// the real fork/join shape in Perfetto or chrome://tracing. A Span given a
// null tracer (a layer called without a Context) records nothing.
//
// Overhead discipline: when tracing is off (a null tracer, or one never
// started) a Span costs one null check and one relaxed atomic load — no
// allocation, no clock read, no thread-local access. Timestamps are
// steady-clock and only ever appear inside the trace file, never in
// analysis results.
//
// Quiescence contract: start() and stop_and_write() must be called outside
// any parallel region (parallel_for is a barrier, so "after it returned" is
// enough), and a Tracer must outlive every span opened on it. Per-thread
// buffers are written to only by their owning thread while enabled; stop
// merges them under the tracer's lock.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace aapx::obs {

class Tracer {
 public:
  Tracer();
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  /// Clears previous events and begins collecting.
  void start();
  /// Stops collecting, writes the Chrome trace-event document, clears
  /// buffers. A no-op document ({"traceEvents":[]}) when never started.
  void stop_and_write(std::ostream& os);
  /// stop_and_write into a file; false if the file cannot be opened.
  bool stop_and_write_file(const std::string& path);
  /// Stops collecting and drops everything collected.
  void discard();
  /// Events currently buffered across all threads (diagnostic/test hook).
  std::size_t event_count() const;

 private:
  friend class Span;
  struct ThreadBuf;

  /// The calling thread's buffer in this tracer, created on first use.
  ThreadBuf& this_thread();
  void record(const char* name, char ph, std::uint64_t arg, bool has_arg);

  /// Process-unique and never reused: keys each thread's buffer cache, so
  /// a cache entry left by a destroyed tracer can never match a new one.
  const std::uint64_t id_;
  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<ThreadBuf>> threads_;
  std::chrono::steady_clock::time_point epoch_{};
  std::atomic<std::uint64_t> dropped_{0};
};

/// Names the calling thread's row in every trace it later records into
/// (pool workers call this once at spawn).
void set_thread_name(const std::string& name);

/// RAII span. Optionally carries one numeric argument (e.g. the item count
/// of a parallel_for, or a request's wire trace id), emitted as args.n on
/// the begin event.
class Span {
 public:
  Span(Tracer* tracer, const char* name) noexcept
      : tracer_(on(tracer)), name_(name) {
    if (tracer_ != nullptr) tracer_->record(name, 'B', 0, false);
  }
  Span(Tracer* tracer, const char* name, std::uint64_t arg) noexcept
      : tracer_(on(tracer)), name_(name) {
    if (tracer_ != nullptr) tracer_->record(name, 'B', arg, true);
  }
  ~Span() {
    // If tracing stopped mid-span the B was already flushed or cleared; an
    // E recorded now would be unbalanced, so drop it.
    if (tracer_ != nullptr && tracer_->enabled()) {
      tracer_->record(name_, 'E', 0, false);
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  static Tracer* on(Tracer* tracer) noexcept {
    return tracer != nullptr && tracer->enabled() ? tracer : nullptr;
  }

  Tracer* const tracer_;  ///< nullptr when tracing was off at construction
  const char* const name_;
};

}  // namespace aapx::obs
