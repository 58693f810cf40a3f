// In-memory span recorder for the benchmark's traced run.
//
// Every call the benchmark makes into a layer's public functions can be wrapped
// in a Span. A span records its layer, start and end (steady clock), the
// span that caused it and the workload operation id it belongs to. Spans go
// into per-thread buffers, so recording never takes a lock after a thread's
// first span; they are summarized and written out once the run has ended.
// With no Recorder installed a Span is two loads and a branch.
//
// Per-operation calls (one gate-level step, 1 us to 1 ms each, millions per
// run) use LeafSpan instead: its time is added to its parent span and to
// per-layer totals rather than kept as a record, so memory stays bounded.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <deque>
#include <mutex>
#include <vector>

namespace perfbench {

enum Layer : std::uint8_t {
  kBench,  ///< the benchmark itself: phases and the run as a whole
  kTimed,
  kRtl,
  kSynth,
  kCell,
  kSta,
  kPacked,
  kCore,
  kStore,
  kPersist,
  kRuntime,
  kService,
  kImage,
  kLayerCount,
};

inline const char* layer_name(Layer layer) {
  static const char* const kNames[kLayerCount] = {
      "bench",     "gatesim.timed",  "rtl",     "synth",          "cell",
      "sta",       "gatesim.packed", "core",    "engine.store",   "engine.persist",
      "runtime",   "service",        "image"};
  return kNames[layer];
}

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

/// Span ids pack (thread buffer index << 32 | span index); 0 = no parent.
using SpanId = std::uint64_t;

struct SpanRecord {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t cpu_ns = -1;  ///< thread CPU time, -1 when not measured
  std::int64_t leaf_ns = 0;  ///< time of LeafSpan children on this thread
  SpanId parent = 0;
  std::uint32_t op = 0;
  Layer layer = kBench;
};

class Recorder {
 public:
  struct Buffer {
    std::uint32_t index = 0;
    std::vector<SpanRecord> spans;
    std::int64_t leaf_ns[kLayerCount] = {};
    std::uint64_t leaf_calls[kLayerCount] = {};
  };

  /// The installed recorder, or nullptr when the run is untraced.
  static Recorder*& active() {
    static Recorder* recorder = nullptr;
    return recorder;
  }

  Recorder() : generation_(next_generation()) {}
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  /// This thread's buffer, created on first use. The cached pointer is
  /// keyed by the recorder's generation, not its address, so a later
  /// recorder at the same address never sees an earlier one's buffer.
  Buffer& local() {
    thread_local std::uint64_t owner = 0;
    thread_local Buffer* buffer = nullptr;
    if (owner != generation_) {
      std::lock_guard<std::mutex> lock(mutex_);
      buffers_.emplace_back();
      buffers_.back().index = static_cast<std::uint32_t>(buffers_.size());
      buffer = &buffers_.back();
      owner = generation_;
    }
    return *buffer;
  }

  /// All buffers; call only once every recording thread has finished.
  const std::deque<Buffer>& buffers() const { return buffers_; }

  const SpanRecord& get(SpanId id) const {
    return buffers_[(id >> 32) - 1].spans[id & 0xffffffffu];
  }

 private:
  static std::uint64_t next_generation() {
    static std::atomic<std::uint64_t> counter{0};
    return ++counter;
  }

  const std::uint64_t generation_;
  std::mutex mutex_;
  std::deque<Buffer> buffers_;  ///< deque: buffers stay put as threads join
};

/// Per-thread causal context: the open span (parent of the next one) and
/// the workload operation the thread is working on.
struct ThreadContext {
  SpanId parent = 0;
  std::uint32_t op = 0;
};
inline ThreadContext& thread_context() {
  thread_local ThreadContext tc;
  return tc;
}

/// RAII span. `cpu` also records the thread's CPU time, which costs a
/// system call per end: keep it for coarse calls, not per gate-level step.
class Span {
 public:
  explicit Span(Layer layer, bool cpu = true) {
    Recorder* rec = Recorder::active();
    if (rec == nullptr) return;
    Recorder::Buffer& buf = rec->local();
    ThreadContext& tc = thread_context();
    buf_ = &buf;
    index_ = buf.spans.size();
    saved_parent_ = tc.parent;
    SpanRecord r;
    r.layer = layer;
    r.parent = tc.parent;
    r.op = tc.op;
    if (cpu) r.cpu_ns = thread_cpu_ns();
    r.start_ns = now_ns();
    buf.spans.push_back(r);
    tc.parent = (static_cast<SpanId>(buf.index) << 32) | index_;
  }
  ~Span() {
    if (buf_ == nullptr) return;
    SpanRecord& r = buf_->spans[index_];
    r.end_ns = now_ns();
    if (r.cpu_ns >= 0) r.cpu_ns = thread_cpu_ns() - r.cpu_ns;
    thread_context().parent = saved_parent_;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Recorder::Buffer* buf_ = nullptr;
  std::size_t index_ = 0;
  SpanId saved_parent_ = 0;
};

/// A leaf call: no record, its duration is folded into the enclosing span
/// (which must be open on the same thread) and into the layer's totals.
class LeafSpan {
 public:
  explicit LeafSpan(Layer layer) : layer_(layer) {
    Recorder* rec = Recorder::active();
    if (rec == nullptr) return;
    buf_ = &rec->local();
    start_ = now_ns();
  }
  ~LeafSpan() {
    if (buf_ == nullptr) return;
    const std::int64_t d = now_ns() - start_;
    buf_->leaf_ns[layer_] += d;
    ++buf_->leaf_calls[layer_];
    const SpanId parent = thread_context().parent;
    if ((parent >> 32) == buf_->index) buf_->spans[parent & 0xffffffffu].leaf_ns += d;
  }
  LeafSpan(const LeafSpan&) = delete;
  LeafSpan& operator=(const LeafSpan&) = delete;

 private:
  Layer layer_;
  Recorder::Buffer* buf_ = nullptr;
  std::int64_t start_ = 0;
};

/// Runs `fn` as one call into `layer`, timed when a recorder is installed.
template <typename Fn>
decltype(auto) traced(Layer layer, Fn&& fn) {
  Span span(layer);
  return fn();
}

}  // namespace perfbench
