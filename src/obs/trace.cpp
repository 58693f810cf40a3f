#include "obs/trace.hpp"

#include <fstream>
#include <ostream>
#include <thread>

#include "obs/json.hpp"

namespace aapx::obs {
namespace {

using Clock = std::chrono::steady_clock;

struct TraceEvent {
  const char* name;  ///< string literal owned by the call site
  double ts_us;
  std::uint64_t arg;
  char ph;  ///< 'B' or 'E'
  bool has_arg;
};

/// Per-thread buffer cap; beyond it events are dropped (counted in the
/// emitted metadata) instead of growing without bound.
constexpr std::size_t kMaxEventsPerThread = std::size_t{1} << 22;

std::atomic<std::uint64_t> g_next_tracer_id{1};

/// The calling thread's name, copied into each trace buffer it creates.
thread_local std::string t_thread_name;

/// The buffer this thread last recorded into, and its tracer's id. Only
/// consulted while that tracer is on; a miss falls back to the tracer's
/// own list under its lock.
struct BufCache {
  std::uint64_t tracer_id = 0;
  void* buf = nullptr;
};
thread_local BufCache t_cache;

}  // namespace

struct Tracer::ThreadBuf {
  std::vector<TraceEvent> events;
  std::string name;
  std::thread::id owner;
  int tid = 0;
};

Tracer::Tracer() : id_(g_next_tracer_id.fetch_add(1)) {}

Tracer::~Tracer() = default;

Tracer::ThreadBuf& Tracer::this_thread() {
  if (t_cache.tracer_id == id_) return *static_cast<ThreadBuf*>(t_cache.buf);
  const std::thread::id self = std::this_thread::get_id();
  std::lock_guard<std::mutex> lock(mutex_);
  ThreadBuf* found = nullptr;
  for (const auto& buf : threads_) {
    if (buf->owner == self) found = buf.get();
  }
  if (found == nullptr) {
    auto buf = std::make_unique<ThreadBuf>();
    buf->name = t_thread_name;
    buf->owner = self;
    buf->tid = static_cast<int>(threads_.size());
    found = buf.get();
    threads_.push_back(std::move(buf));
  }
  t_cache = {id_, found};
  return *found;
}

void Tracer::record(const char* name, char ph, std::uint64_t arg,
                    bool has_arg) {
  ThreadBuf& buf = this_thread();
  if (buf.events.size() >= kMaxEventsPerThread) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const double ts_us =
      std::chrono::duration<double, std::micro>(Clock::now() - epoch_).count();
  buf.events.push_back({name, ts_us, arg, ph, has_arg});
}

void Tracer::start() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& buf : threads_) buf->events.clear();
  dropped_.store(0, std::memory_order_relaxed);
  epoch_ = Clock::now();
  enabled_.store(true, std::memory_order_relaxed);
}

void Tracer::stop_and_write(std::ostream& os) {
  enabled_.store(false, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mutex_);
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto emit = [&](const std::string& line) {
    if (!first) os << ",";
    first = false;
    os << "\n" << line;
  };
  emit("{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
       "\"args\":{\"name\":\"aapx\"}}");
  for (const auto& buf : threads_) {
    if (!buf->name.empty()) {
      emit("{\"ph\":\"M\",\"pid\":1,\"tid\":" + std::to_string(buf->tid) +
           ",\"name\":\"thread_name\",\"args\":{\"name\":\"" +
           json_escape(buf->name) + "\"}}");
    }
  }
  for (const auto& buf : threads_) {
    for (const TraceEvent& ev : buf->events) {
      std::string line = "{\"ph\":\"";
      line += ev.ph;
      line += "\",\"pid\":1,\"tid\":" + std::to_string(buf->tid) +
              ",\"ts\":" + json_num(ev.ts_us) + ",\"name\":\"" +
              json_escape(ev.name) + "\"";
      if (ev.has_arg) {
        line += ",\"args\":{\"n\":" + std::to_string(ev.arg) + "}";
      }
      line += "}";
      emit(line);
    }
    buf->events.clear();
  }
  const std::uint64_t dropped = dropped_.load(std::memory_order_relaxed);
  if (dropped > 0) {
    emit("{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"dropped_events\","
         "\"args\":{\"n\":" + std::to_string(dropped) + "}}");
  }
  os << "\n]}\n";
}

bool Tracer::stop_and_write_file(const std::string& path) {
  std::ofstream os(path);
  if (!os) {
    discard();
    return false;
  }
  stop_and_write(os);
  return static_cast<bool>(os);
}

void Tracer::discard() {
  enabled_.store(false, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& buf : threads_) buf->events.clear();
  dropped_.store(0, std::memory_order_relaxed);
}

std::size_t Tracer::event_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t n = 0;
  for (const auto& buf : threads_) n += buf->events.size();
  return n;
}

void set_thread_name(const std::string& name) { t_thread_name = name; }

}  // namespace aapx::obs
