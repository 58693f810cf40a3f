#include "util/parallel.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace aapx {
namespace {

thread_local bool t_in_parallel_region = false;

/// A lazily grown, process-lifetime pool. One job at a time (parallel_for is
/// a barrier); every pool worker joins every job and self-schedules chunks
/// off a shared atomic cursor, so a generation counter is all the handshake
/// needed. Workers are detached: at process exit they are parked in wait().
class ThreadPool {
 public:
  static ThreadPool& instance() {
    static ThreadPool* pool = new ThreadPool();  // leaked; workers never join
    return *pool;
  }

  void run(std::size_t n, const std::function<void(std::size_t)>& fn,
           int threads, obs::Tracer* tracer) {
    std::unique_lock<std::mutex> job_lock(job_mutex_);
    {
      std::lock_guard<std::mutex> lk(mutex_);
      while (static_cast<int>(num_workers_) < threads - 1) {
        std::thread t([this, gen = generation_, id = num_workers_] {
          obs::set_thread_name("aapx-worker-" + std::to_string(id));
          worker_loop(gen);
        });
        t.detach();
        ++num_workers_;
      }
      static obs::Gauge& workers_gauge = obs::metrics().gauge("pool.workers");
      workers_gauge.update_max(static_cast<double>(num_workers_ + 1));
      static obs::Counter& jobs = obs::metrics().counter("pool.jobs");
      static obs::Counter& items = obs::metrics().counter("pool.items");
      jobs.add();
      items.add(n);
      fn_ = &fn;
      tracer_ = tracer;
      n_ = n;
      next_.store(0);
      // Chunked self-scheduling: big enough to amortize the atomic, small
      // enough to balance uneven bodies. Results are index-addressed, so
      // scheduling order never affects them.
      chunk_ = n / (static_cast<std::size_t>(threads) * 8) + 1;
      active_ = num_workers_;
      error_ = nullptr;
      ++generation_;
    }
    cv_.notify_all();
    work();  // the caller is a worker too
    std::exception_ptr error;
    {
      std::unique_lock<std::mutex> lk(mutex_);
      done_cv_.wait(lk, [&] { return active_ == 0; });
      fn_ = nullptr;
      error = error_;
      error_ = nullptr;
    }
    if (error) std::rethrow_exception(error);
  }

 private:
  ThreadPool() = default;

  void worker_loop(std::uint64_t seen) {
    for (;;) {
      {
        std::unique_lock<std::mutex> lk(mutex_);
        cv_.wait(lk, [&] { return generation_ != seen; });
        seen = generation_;
      }
      work();
      {
        std::lock_guard<std::mutex> lk(mutex_);
        --active_;
        if (active_ == 0) done_cv_.notify_all();
      }
    }
  }

  void work() {
    t_in_parallel_region = true;
    const auto t0 = std::chrono::steady_clock::now();
    const std::function<void(std::size_t)>* fn;
    obs::Tracer* tracer;
    std::size_t n, chunk;
    {
      std::lock_guard<std::mutex> lk(mutex_);
      fn = fn_;
      tracer = tracer_;
      n = n_;
      chunk = chunk_;
    }
    std::uint64_t chunks_taken = 0;
    {
      obs::Span span(tracer, "parallel_for.work");
      for (;;) {
        const std::size_t begin = next_.fetch_add(chunk);
        if (begin >= n) break;
        ++chunks_taken;
        const std::size_t end = std::min(n, begin + chunk);
        for (std::size_t i = begin; i < end; ++i) {
          try {
            (*fn)(i);
          } catch (...) {
            std::lock_guard<std::mutex> lk(mutex_);
            if (!error_) error_ = std::current_exception();
            next_.store(n);  // stop handing out further chunks
          }
        }
      }
    }
    static obs::Counter& chunks = obs::metrics().counter("pool.chunks");
    static obs::Counter& busy = obs::metrics().counter("pool.busy_us");
    chunks.add(chunks_taken);
    busy.add(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count()));
    t_in_parallel_region = false;
  }

  std::mutex job_mutex_;  ///< serializes top-level parallel_for calls
  std::mutex mutex_;
  std::condition_variable cv_;
  std::condition_variable done_cv_;
  std::size_t num_workers_ = 0;
  const std::function<void(std::size_t)>* fn_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  std::size_t n_ = 0;
  std::size_t chunk_ = 1;
  std::atomic<std::size_t> next_{0};
  std::size_t active_ = 0;
  std::uint64_t generation_ = 0;
  std::exception_ptr error_;
};

}  // namespace

int hardware_threads() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<int>(hc);
}

bool in_parallel_region() { return t_in_parallel_region; }

OffSpineGuard::OffSpineGuard() : prev_(t_in_parallel_region) {
  t_in_parallel_region = true;
}

OffSpineGuard::~OffSpineGuard() { t_in_parallel_region = prev_; }

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                  int threads, obs::Tracer* tracer) {
  if (threads <= 0) threads = hardware_threads();
  if (static_cast<std::size_t>(threads) > n) threads = static_cast<int>(n);
  if (n <= 1 || threads <= 1 || t_in_parallel_region) {
    // The serial fallback still counts as a parallel region: callers that
    // gate side effects on in_parallel_region() (run-log emission) must see
    // the same answer at 1 thread as at N, or logs would differ by thread
    // count. Restore-on-exit keeps nesting and exceptions correct.
    struct RegionGuard {
      bool prev = t_in_parallel_region;
      RegionGuard() { t_in_parallel_region = true; }
      ~RegionGuard() { t_in_parallel_region = prev; }
    } guard;
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  obs::Span span(tracer, "parallel_for", static_cast<std::uint64_t>(n));
  ThreadPool::instance().run(n, fn, threads, tracer);
}

}  // namespace aapx
