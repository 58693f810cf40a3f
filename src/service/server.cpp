#include "service/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "core/characterizer.hpp"
#include "engine/design_store.hpp"
#include "engine/persist.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/runlog.hpp"
#include "obs/trace.hpp"
#include "service/bounded_queue.hpp"
#include "service/protocol.hpp"
#include "service/socket.hpp"

namespace aapx::service {
namespace {

/// A peer whose socket buffer stays full this long is marked dead and
/// disconnected instead of blocking the writing thread (readers and workers
/// both write).
constexpr int kWriteTimeoutMs = 5000;

/// One accepted client. The reader thread and any worker finishing a job
/// for this client both write frames; the mutex serializes them so frames
/// never interleave. shutdown() (not close()) tears the socket down while
/// references remain — the fd itself closes with the last shared_ptr, so a
/// worker can never write into a recycled descriptor.
struct Connection {
  explicit Connection(int fd_in) : fd(fd_in) {}
  ~Connection() { close_fd(fd); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool send_frame(const Frame& frame) {
    std::lock_guard<std::mutex> lock(write_mutex);
    if (!alive.load(std::memory_order_relaxed)) return false;
    if (!send_all(fd, encode_frame(frame), kWriteTimeoutMs)) {
      // Peer vanished mid-response or stopped draining its socket (the
      // chaos harness does both on purpose): mark dead so later responses
      // stop trying, and shut the socket down so the reader thread wakes
      // and the connection can be reaped.
      alive.store(false, std::memory_order_relaxed);
      ::shutdown(fd, SHUT_RDWR);
      return false;
    }
    return true;
  }

  const int fd;
  std::mutex write_mutex;
  std::atomic<bool> alive{true};
  /// Set by the reader thread on exit; the acceptor reaps done connections.
  std::atomic<bool> reader_done{false};
};

using ConnPtr = std::shared_ptr<Connection>;

/// A live connection plus its reader thread, owned by Impl::conns until the
/// reader exits and the acceptor reaps the entry. Workers holding the
/// ConnPtr through a Waiter keep the fd open past reaping, so a drained
/// job's response can never hit a recycled descriptor.
struct ConnEntry {
  ConnPtr conn;
  std::thread reader;
};

struct Waiter {
  ConnPtr conn;
  std::uint64_t request_id = 0;
  std::uint64_t trace_id = 0;  ///< echoed on this waiter's response frame
};

/// One admitted unit of work. Deduped requests attach as extra waiters; the
/// job's CancelToken deadline always reflects the *laxest* waiter, so a
/// tight-deadline duplicate can never cancel work a patient client wants.
struct Job {
  MsgType type = MsgType::characterize;
  CharacterizeRequest characterize;
  AgedDelayRequest aged_delay;
  std::uint64_t dedup = 0;
  std::uint64_t seq = 0;  ///< server-wide sequence, names the request log
  std::uint64_t trace_id = 0;  ///< first waiter's correlation id
  std::chrono::steady_clock::time_point received_at{};
  CancelToken token;
  // Waiters and deadline bookkeeping are guarded by the server's inflight
  // mutex (never touched by the executing worker until it takes the job
  // out of the inflight map).
  std::vector<Waiter> waiters;
  bool no_deadline = false;
  std::chrono::steady_clock::time_point laxest_deadline{};
};

using JobPtr = std::shared_ptr<Job>;

/// One request op's latency histogram, `service.latency_us.<op>` in the
/// root registry.
struct OpHistogram {
  MsgType op;
  obs::Histogram& hist;
};

OpHistogram op_histogram(const Context& root, MsgType op) {
  return {op, root.metrics().histogram(std::string("service.latency_us.") +
                                       to_string(op))};
}

}  // namespace

struct Server::Impl {
  Impl(const Context& root, ServerOptions opts)
      : options(std::move(opts)),
        root(&root),
        lib(make_nangate45_like()),
        model(AgingModel{}),
        queue(std::max<std::size_t>(1, options.queue_capacity)),
        latency{op_histogram(root, MsgType::characterize),
                op_histogram(root, MsgType::aged_delay),
                op_histogram(root, MsgType::library_query)},
        queue_wait(root.metrics().histogram("service.queue_wait_us")),
        queue_depth_gauge(root.metrics().gauge("service.queue.depth")),
        deadline_slack_gauge(
            root.metrics().gauge("service.deadline.slack_ms")) {
    options.workers = std::max(1, options.workers);
    lib_fp = root.store().fingerprint(lib);
  }

  ServerOptions options;
  const Context* root;
  const CellLibrary lib;
  const AgingModel model;
  std::uint64_t lib_fp = 0;

  int listen_fd = -1;
  /// Self-pipe: stop() writes a byte so the acceptor's poll returns at once
  /// instead of at its next timeout.
  int wake_fds[2] = {-1, -1};
  std::atomic<bool> stopping{false};
  std::atomic<bool> started{false};

  BoundedQueue<JobPtr> queue;
  std::mutex inflight_mutex;
  std::map<std::uint64_t, JobPtr> inflight;
  std::atomic<std::uint64_t> next_seq{0};

  std::thread acceptor;
  std::vector<std::thread> workers;
  std::thread snapshotter;
  std::mutex snapshot_mutex;  // wait_for + final save
  std::condition_variable snapshot_cv;

  std::mutex conns_mutex;
  std::vector<ConnEntry> conns;

  std::atomic<std::uint64_t> n_connections{0}, n_requests{0}, n_completed{0},
      n_shed{0}, n_deduped{0}, n_cancelled{0}, n_protocol_errors{0},
      n_snapshots{0};

  // --- telemetry state -------------------------------------------------------
  // Latency histograms and gauges live in the root Context's registry, so
  // `--metrics` writes them with every other series; references are
  // resolved once here (registry lookups are name-keyed and mutexed).
  /// Admission-to-response latency, one histogram per request op, in the
  /// order the stats op lists them.
  const std::array<OpHistogram, 3> latency;
  obs::Histogram& queue_wait;
  obs::Gauge& queue_depth_gauge;
  obs::Gauge& deadline_slack_gauge;

  const std::chrono::steady_clock::time_point start_time =
      std::chrono::steady_clock::now();
  /// Microseconds from start_time to the last successful snapshot; -1 =
  /// none yet.
  std::atomic<std::int64_t> last_snapshot_us{-1};

  /// Slowest requests, latency-descending, bounded at kSlowRequestRing.
  std::mutex slow_mutex;
  std::vector<StatsResponse::SlowRequest> slow;

  double us_since_start(std::chrono::steady_clock::time_point tp) const {
    return std::chrono::duration<double, std::micro>(tp - start_time).count();
  }

  /// Admission-to-response accounting shared by worker jobs and the inline
  /// library_query path: per-op histogram, slow-request ring.
  void record_latency(MsgType type, std::uint64_t seq, std::uint64_t trace_id,
                      double latency_us) {
    for (const OpHistogram& h : latency) {
      if (h.op == type) h.hist.observe(latency_us);
    }
    std::lock_guard<std::mutex> lock(slow_mutex);
    if (slow.size() >= kSlowRequestRing &&
        latency_us <= slow.back().latency_us) {
      return;
    }
    StatsResponse::SlowRequest entry;
    entry.seq = seq;
    entry.op = static_cast<std::uint32_t>(type);
    entry.trace_id = trace_id;
    entry.latency_us = latency_us;
    const auto it = std::upper_bound(
        slow.begin(), slow.end(), entry,
        [](const StatsResponse::SlowRequest& a,
           const StatsResponse::SlowRequest& b) {
          return a.latency_us > b.latency_us;
        });
    slow.insert(it, entry);
    if (slow.size() > kSlowRequestRing) slow.pop_back();
  }

  // --- admission (reader threads) -------------------------------------------

  void handle_request(const ConnPtr& conn, const Frame& frame) {
    if (frame.type == MsgType::ping) {
      conn->send_frame({MsgType::pong, frame.request_id, frame.trace_id, {}});
      return;
    }
    if (frame.type == MsgType::stats) {
      // Answered inline from atomics, counted nowhere: scraping must
      // reconcile exactly against request tallies and must never contend
      // with the worker queue.
      conn->send_frame({MsgType::ok_stats, frame.request_id, frame.trace_id,
                        encode_stats_response(build_stats())});
      return;
    }
    if (!is_request(frame.type)) {
      throw ProtocolError("client sent a response-type frame");
    }
    try {
      if (frame.type == MsgType::library_query) {
        serve_library_query(conn, frame);
        return;
      }
      admit(conn, frame);
    } catch (const ProtocolError& e) {
      // A malformed *payload* gets a typed error and the connection lives
      // on; a malformed *frame* (bad magic/length, thrown from FrameReader
      // in the caller) is connection-fatal because resynchronization is
      // impossible.
      n_protocol_errors.fetch_add(1);
      conn->send_frame(
          {MsgType::error, frame.request_id, frame.trace_id,
           encode_error_response({e.what()})});
    }
  }

  void serve_library_query(const ConnPtr& conn, const Frame& frame) {
    const auto received_at = std::chrono::steady_clock::now();
    const LibraryQueryRequest req =
        decode_library_query_request(frame.payload);
    std::vector<engine::SurfacePayload> all = root->store().surface_snapshot();
    std::vector<engine::SurfacePayload> out;
    for (engine::SurfacePayload& p : all) {
      if (req.kind >= 0 &&
          static_cast<std::int32_t>(p.surface.base.kind) != req.kind) {
        continue;
      }
      if (req.width != 0 && p.surface.base.width != req.width) continue;
      out.push_back(std::move(p));
    }
    const Frame response{MsgType::ok_surfaces, frame.request_id,
                         frame.trace_id, encode_surfaces_response(out)};
    // Counted before the response leaves, like execute()'s jobs.
    n_requests.fetch_add(1);
    n_completed.fetch_add(1);
    record_latency(MsgType::library_query, next_seq.fetch_add(1),
                   frame.trace_id,
                   std::chrono::duration<double, std::micro>(
                       std::chrono::steady_clock::now() - received_at)
                       .count());
    conn->send_frame(response);
  }

  void admit(const ConnPtr& conn, const Frame& frame) {
    JobPtr job = std::make_shared<Job>();
    job->type = frame.type;
    job->trace_id = frame.trace_id;
    job->received_at = std::chrono::steady_clock::now();
    std::uint32_t deadline_ms = 0;
    if (frame.type == MsgType::characterize) {
      job->characterize = decode_characterize_request(frame.payload);
      job->dedup = job->characterize.dedup_key();
      deadline_ms = job->characterize.deadline_ms;
    } else {
      job->aged_delay = decode_aged_delay_request(frame.payload);
      job->dedup = job->aged_delay.dedup_key();
      deadline_ms = job->aged_delay.deadline_ms;
    }
    if (stopping.load()) {
      // Draining: shed instead of queueing, so the backlog only shrinks.
      n_shed.fetch_add(1);
      conn->send_frame({MsgType::retry_later, frame.request_id,
                        frame.trace_id,
                        encode_retry_later_response({options.retry_hint_ms})});
      return;
    }
    const Waiter waiter{conn, frame.request_id, frame.trace_id};
    bool shed = false;
    {
      std::lock_guard<std::mutex> lock(inflight_mutex);
      const auto it = inflight.find(job->dedup);
      if (it != inflight.end()) {
        // Identical work already in flight: attach, loosen its deadline to
        // the laxest waiter, pay nothing.
        JobPtr& running = it->second;
        running->waiters.push_back(waiter);
        loosen_deadline(*running, deadline_ms);
        n_requests.fetch_add(1);
        n_deduped.fetch_add(1);
        return;
      }
      job->seq = next_seq.fetch_add(1);
      job->waiters.push_back(waiter);
      if (deadline_ms == 0) {
        job->no_deadline = true;
      } else {
        job->laxest_deadline = std::chrono::steady_clock::now() +
                               std::chrono::milliseconds(deadline_ms);
        job->token.set_deadline(job->laxest_deadline);
      }
      // Register before pushing, still under the lock: a worker that pops
      // the job immediately will block on this mutex in execute() until the
      // entry exists, so it can never erase a key we haven't added yet.
      inflight.emplace(job->dedup, job);
      if (!queue.try_push(job)) {
        inflight.erase(job->dedup);
        shed = true;
      }
    }
    if (shed) {
      // Backpressure: the queue refused, the client gets a typed hint —
      // sent strictly outside inflight_mutex, so a shed client that has
      // stopped draining its socket can never stall admission or workers.
      n_shed.fetch_add(1);
      conn->send_frame({MsgType::retry_later, frame.request_id,
                        frame.trace_id,
                        encode_retry_later_response({options.retry_hint_ms})});
      return;
    }
    n_requests.fetch_add(1);
    queue_depth_gauge.update_max(static_cast<double>(queue.size()));
  }

  /// Caller holds inflight_mutex.
  static void loosen_deadline(Job& job, std::uint32_t new_deadline_ms) {
    if (job.no_deadline) return;
    if (new_deadline_ms == 0) {
      job.no_deadline = true;
      job.token.clear_deadline();
      return;
    }
    const auto tp = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(new_deadline_ms);
    if (tp > job.laxest_deadline) {
      job.laxest_deadline = tp;
      job.token.set_deadline(tp);
    }
  }

  // --- execution (worker threads) -------------------------------------------

  void worker_loop() {
    while (auto job = queue.pop()) execute(**job);
  }

  void execute(Job& job) {
    const auto picked_up = std::chrono::steady_clock::now();
    queue_wait.observe(std::chrono::duration<double, std::micro>(
                           picked_up - job.received_at)
                           .count());
    queue_depth_gauge.set(static_cast<double>(queue.size()));
    obs::RunLog log;
    std::uint64_t first_id = 0;
    {
      // job.waiters and the deadline fields are guarded by inflight_mutex
      // until the job leaves the inflight map below (dedup joins may still
      // be appending / loosening).
      std::lock_guard<std::mutex> lock(inflight_mutex);
      if (!job.waiters.empty()) first_id = job.waiters.front().request_id;
      if (!job.no_deadline) {
        // Slack the moment work starts: negative means the deadline
        // already passed while queued (the sweep cancels at first check).
        deadline_slack_gauge.set(std::chrono::duration<double, std::milli>(
                                     job.laxest_deadline - picked_up)
                                     .count());
      }
    }
    if (!options.log_dir.empty()) {
      char name[32];
      std::snprintf(name, sizeof(name), "req_%06llu.jsonl",
                    static_cast<unsigned long long>(job.seq));
      if (log.open(options.log_dir + "/" + name)) {
        obs::JsonWriter m;
        m.field("command", "serve").field("msg", to_string(job.type));
        obs::emit_manifest(log, m);
        obs::JsonWriter r;
        r.field("msg", to_string(job.type)).field("request_id", first_id);
        log.emit("request", r);
      }
    }

    Frame response;
    try {
      response = compute(job, log);
    } catch (const CancelledError& e) {
      response = {MsgType::cancelled, 0, 0,
                  encode_cancelled_response(
                      {stopping.load() ? "shutdown" : "deadline"})};
      if (log.enabled()) {
        obs::JsonWriter w;
        w.field("where", e.what())
            .field("reason", stopping.load() ? "shutdown" : "deadline");
        log.emit("cancelled", w);
      }
    } catch (const std::exception& e) {
      response = {MsgType::error, 0, 0, encode_error_response({e.what()})};
    }
    if (log.enabled() && response.type != MsgType::cancelled) {
      obs::JsonWriter w;
      w.field("msg", to_string(response.type)).field("request_id", first_id);
      log.emit("response", w);
    }
    log.close();

    // Take the job out of flight *before* answering: a duplicate arriving
    // after this point starts a fresh job (probably a pure store hit)
    // instead of attaching to one that already answered.
    std::vector<Waiter> waiters;
    {
      std::lock_guard<std::mutex> lock(inflight_mutex);
      waiters = std::move(job.waiters);
      job.waiters.clear();
      inflight.erase(job.dedup);
    }
    // Latency stops here (send time to N waiters excluded) and is recorded
    // before any response leaves: a client that has the response in hand
    // must already see the whole request — counters AND histograms —
    // reflected in the server's stats, so scrape reconciliation is exact.
    const auto done = std::chrono::steady_clock::now();
    const double latency_us =
        std::chrono::duration<double, std::micro>(done - job.received_at)
            .count();
    record_latency(job.type, job.seq, job.trace_id, latency_us);
    for (const Waiter& w : waiters) {
      if (response.type == MsgType::cancelled) {
        n_cancelled.fetch_add(1);
      } else if (response.type != MsgType::error) {
        n_completed.fetch_add(1);
      }
      response.request_id = w.request_id;
      response.trace_id = w.trace_id;
      w.conn->send_frame(response);
    }
  }

  Frame compute(Job& job, obs::RunLog& log) {
    // The per-request Context: borrows the shared store (every client warms
    // one cache) and the root's tracer (one span stream for the server),
    // carries the job's CancelToken down into the sweep, and routes the
    // sweep's run-log records into this request's private file.
    Context::Options copt;
    copt.shared_store = &root->store();
    copt.tracer = &root->tracer();
    copt.cancel = &job.token;
    copt.threads = options.sweep_threads;
    copt.runlog = &log;
    const Context ctx(copt);

    if (job.type == MsgType::characterize) {
      // The wire trace id as args.n joins this span to the client's
      // client.attempt spans that carried it.
      const obs::Span span(&ctx.tracer(), "serve.characterize", job.trace_id);
      const CharacterizeRequest& req = job.characterize;
      CharacterizerOptions copts;
      copts.min_precision = req.min_precision;
      copts.precision_step = req.precision_step;
      copts.sta = req.sta;
      const ComponentCharacterizer ch(ctx, lib, model, copts);
      engine::SurfacePayload p;
      p.lib_fp = lib_fp;
      p.params = model.params();
      p.sta = req.sta;
      p.min_precision = req.min_precision;
      p.precision_step = req.precision_step;
      p.scenarios = req.scenarios;
      p.surface = ch.characterize(req.spec, req.scenarios);
      return {MsgType::ok_surface, 0, 0, encode_surface_response(p)};
    }
    const obs::Span span(&ctx.tracer(), "serve.aged_delay", job.trace_id);
    const AgedDelayRequest& req = job.aged_delay;
    ctx.check_cancelled("serve.aged_delay");
    const double delay = ctx.store().aged_sta_delay(lib, req.spec, model,
                                                    req.mode, req.years,
                                                    req.sta);
    return {MsgType::ok_delay, 0, 0, encode_delay_response({delay})};
  }

  // --- connection plumbing --------------------------------------------------

  void reader_loop(const ConnPtr& conn) {
    FrameReader reader;
    char buf[4096];
    while (true) {
      const int ready = wait_readable(conn->fd, 200);
      if (ready < 0) {
        conn->alive.store(false, std::memory_order_relaxed);
        break;
      }
      if (ready == 0) {
        // Graceful drain: stop reading but leave the connection alive —
        // a worker finishing this client's queued job still delivers its
        // response before stop() tears the socket down.
        if (stopping.load()) break;
        continue;
      }
      const long n = recv_some(conn->fd, buf, sizeof(buf));
      if (n <= 0) {
        conn->alive.store(false, std::memory_order_relaxed);
        break;
      }
      try {
        reader.feed(buf, static_cast<std::size_t>(n));
        while (auto frame = reader.next()) handle_request(conn, *frame);
      } catch (const ProtocolError& e) {
        // Framing is broken and resync is impossible: one diagnostic
        // frame, then an active shutdown so the peer observes EOF (the
        // ConnPtr in `conns` would otherwise hold the fd open until
        // server stop, leaving the client staring at a dead socket).
        n_protocol_errors.fetch_add(1);
        conn->send_frame(
            {MsgType::error, 0, 0, encode_error_response({e.what()})});
        conn->alive.store(false, std::memory_order_relaxed);
        ::shutdown(conn->fd, SHUT_RDWR);
        break;
      }
    }
    // The fd itself closes with the last ConnPtr — a worker holding this
    // connection for a drained job can never write into a recycled fd.
    conn->reader_done.store(true, std::memory_order_release);
  }

  /// Joins exited reader threads and drops their ConnEntry, so a long-
  /// running daemon does not accrete one fd plus one thread stack per
  /// connection ever accepted. Workers delivering a late response still
  /// hold the ConnPtr through their Waiter, so reaping never closes an fd
  /// out from under them.
  void reap_connections() {
    std::lock_guard<std::mutex> lock(conns_mutex);
    auto it = conns.begin();
    while (it != conns.end()) {
      if (it->conn->reader_done.load(std::memory_order_acquire)) {
        it->reader.join();
        it = conns.erase(it);
      } else {
        ++it;
      }
    }
  }

  void acceptor_loop() {
    while (!stopping.load()) {
      reap_connections();
      // The timeout only paces reaping; stop() wakes the poll through the
      // self-pipe.
      pollfd fds[2] = {{listen_fd, POLLIN, 0}, {wake_fds[0], POLLIN, 0}};
      if (::poll(fds, 2, 200) <= 0 || (fds[0].revents & POLLIN) == 0) continue;
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) continue;
      auto conn = std::make_shared<Connection>(fd);
      n_connections.fetch_add(1);
      std::lock_guard<std::mutex> lock(conns_mutex);
      conns.push_back(
          {conn, std::thread([this, conn] { reader_loop(conn); })});
    }
  }

  void snapshot_loop() {
    std::unique_lock<std::mutex> lock(snapshot_mutex);
    const auto interval = std::chrono::duration<double>(
        options.snapshot_interval_s);
    while (!stopping.load()) {
      snapshot_cv.wait_for(lock, interval,
                           [&] { return stopping.load(); });
      if (stopping.load()) break;
      save_snapshot();
    }
  }

  void save_snapshot() {
    if (options.store_path.empty()) return;
    if (root->store().save(options.store_path)) {
      n_snapshots.fetch_add(1);
      last_snapshot_us.store(
          static_cast<std::int64_t>(
              us_since_start(std::chrono::steady_clock::now())),
          std::memory_order_relaxed);
    }
  }

  // --- telemetry (stats op) -------------------------------------------------

  StatsResponse build_stats() {
    StatsResponse r;
    r.connections = n_connections.load();
    {
      std::lock_guard<std::mutex> lock(conns_mutex);
      r.live_connections = conns.size();
    }
    r.requests = n_requests.load();
    r.completed = n_completed.load();
    r.shed = n_shed.load();
    r.deduped = n_deduped.load();
    r.cancelled = n_cancelled.load();
    r.protocol_errors = n_protocol_errors.load();
    r.snapshots = n_snapshots.load();
    r.queue_depth = queue.size();
    {
      std::lock_guard<std::mutex> lock(inflight_mutex);
      r.inflight = inflight.size();
    }
    const auto now = std::chrono::steady_clock::now();
    r.uptime_s = us_since_start(now) / 1e6;
    const std::int64_t snap_us =
        last_snapshot_us.load(std::memory_order_relaxed);
    r.snapshot_age_s = snap_us < 0
                           ? -1.0
                           : (us_since_start(now) -
                              static_cast<double>(snap_us)) /
                                 1e6;
    for (const auto& [type, hist] : latency) {
      const obs::HistogramSample s = hist.sample();
      if (s.count == 0) continue;
      r.ops.push_back({static_cast<std::uint32_t>(type), s.count, s.sum, s.min,
                       s.max, {s.buckets.begin(), s.buckets.end()}});
    }
    {
      std::lock_guard<std::mutex> lock(slow_mutex);
      r.slow = slow;
    }
    return r;
  }
};

Server::Server(const Context& root, ServerOptions options)
    : impl_(std::make_unique<Impl>(root, std::move(options))) {}

Server::~Server() { stop(); }

bool Server::start(std::string* err) {
  impl_->listen_fd = listen_endpoint(impl_->options.listen, &endpoint_, err);
  if (impl_->listen_fd < 0) return false;
  if (::pipe(impl_->wake_fds) != 0) {
    if (err != nullptr) *err = "cannot create the acceptor's wake pipe";
    close_fd(impl_->listen_fd);
    impl_->listen_fd = -1;
    unlink_endpoint(impl_->options.listen);
    return false;
  }
  impl_->started.store(true);
  impl_->acceptor = std::thread([this] { impl_->acceptor_loop(); });
  for (int i = 0; i < impl_->options.workers; ++i) {
    impl_->workers.emplace_back([this] { impl_->worker_loop(); });
  }
  if (!impl_->options.store_path.empty() &&
      impl_->options.snapshot_interval_s > 0.0) {
    impl_->snapshotter = std::thread([this] { impl_->snapshot_loop(); });
  }
  return true;
}

void Server::stop() {
  if (!impl_->started.exchange(false)) return;
  // 1. Close admission: readers shed new requests, the acceptor exits.
  impl_->stopping.store(true);
  impl_->snapshot_cv.notify_all();
  const char wake = 0;
  [[maybe_unused]] const auto woken = ::write(impl_->wake_fds[1], &wake, 1);
  if (impl_->acceptor.joinable()) impl_->acceptor.join();
  // 2. Drain: close() lets workers finish every queued job, then exit.
  impl_->queue.close();
  for (std::thread& w : impl_->workers) {
    if (w.joinable()) w.join();
  }
  impl_->workers.clear();
  if (impl_->snapshotter.joinable()) impl_->snapshotter.join();
  // 3. Tear down surviving connections (responses for drained jobs are
  // already out; the acceptor has exited, so no new entries can appear).
  std::vector<ConnEntry> entries;
  {
    std::lock_guard<std::mutex> lock(impl_->conns_mutex);
    entries.swap(impl_->conns);
  }
  for (const ConnEntry& e : entries) {
    e.conn->alive.store(false, std::memory_order_relaxed);
    ::shutdown(e.conn->fd, SHUT_RDWR);
  }
  for (ConnEntry& e : entries) {
    if (e.reader.joinable()) e.reader.join();
  }
  entries.clear();
  close_fd(impl_->listen_fd);
  impl_->listen_fd = -1;
  for (int& fd : impl_->wake_fds) {
    close_fd(fd);
    fd = -1;
  }
  unlink_endpoint(impl_->options.listen);
  // 4. Final snapshot: the drained store's warmth survives the restart.
  impl_->save_snapshot();
}

void Server::serve_forever() {
  while (!stop_requested_.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  stop();
}

Server::Stats Server::stats() const { return impl_->build_stats(); }

}  // namespace aapx::service
