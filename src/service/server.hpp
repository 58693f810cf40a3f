// `aapx serve` — characterization-as-a-service over the DesignStore.
//
// One Server owns one listening socket and one shared DesignStore (the root
// Context's). Each accepted connection gets a reader thread and — for its
// requests — per-request aapx::Contexts that *borrow* the shared store, so
// every client warms one cache and a repeated request is a pure hit. The
// paper's expensive artifact (the aging-induced approximation library) thus
// becomes a long-lived, incrementally-warmed service instead of a
// per-process recomputation.
//
// Failure-containment architecture (the robustness contract of this PR):
//
//   deadline    a request carries deadline_ms; the worker arms a CancelToken
//               the characterizer checks at precision-point grain. Expiry
//               throws CancelledError out of the sweep → typed `cancelled`
//               response. Store insertions are transactional (post-build
//               only), so a cancelled sweep leaves no partial records.
//   overload    admission goes through a BoundedQueue; a full queue is
//               answered with `retry_later` + backoff hint, never a hang.
//   dedup       identical in-flight work (semantic hash, deadline excluded)
//               attaches as a waiter to the running job — N identical
//               storms cost one computation, and the job's deadline loosens
//               to the laxest waiter's.
//   bad frames  FrameReader/decoders reject malformed input before
//               allocation; the connection gets one `error` frame, then
//               closes. Other connections are unaffected.
//   crash       the store snapshots atomically (temp + rename) every
//               snapshot_interval_s and again on graceful stop; a SIGKILL
//               between snapshots loses warmth, never integrity.
//   drain       stop() closes admission (new requests are shed with
//               retry_later), finishes the queued backlog, snapshots, then
//               joins every thread.
//
// Telemetry: a running server is observable without being perturbable. The
// in-band `stats` op is answered on the connection's reader thread from
// atomics; it never touches the worker queue or any request counter, so
// polling it mid-campaign leaves run logs byte-identical. Every request is
// counted, and its admission-to-response latency recorded, before its
// response leaves, so a client holding a response already sees it in the
// stats. Latencies land in per-op log2 histograms in the root registry
// (written by `--metrics`) and the kSlowRequestRing slowest requests in a
// top-K ring.
// Request spans go to the root Context's tracer (`aapx serve --trace`):
// every per-request Context borrows it, and serve.characterize /
// serve.aged_delay carry the client's wire trace id as args.n.
//
// See docs/ARCHITECTURE.md "Service layer" for the full failure matrix.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "cell/library.hpp"
#include "engine/context.hpp"
#include "service/protocol.hpp"

namespace aapx::service {

/// Entries of the slowest-requests ring the stats op reports.
inline constexpr std::size_t kSlowRequestRing = 16;

struct ServerOptions {
  /// unix:<path> or tcp:<port> (tcp:0 = ephemeral; see endpoint()).
  std::string listen = "tcp:0";
  /// Worker threads executing requests. >= 1.
  int workers = 2;
  /// Threads each worker's characterization sweep fans out to (per-request
  /// Context worker count). 0 = all hardware threads.
  int sweep_threads = 1;
  /// Admission limit: queued-but-unstarted requests beyond this are shed.
  std::size_t queue_capacity = 64;
  /// Backoff hint carried in retry_later responses.
  std::uint32_t retry_hint_ms = 50;
  /// Snapshot target for the shared store; empty = no snapshots.
  std::string store_path;
  /// Periodic snapshot interval; 0 = snapshot only on graceful stop.
  double snapshot_interval_s = 0.0;
  /// Per-request run-log directory (req_<seq>.jsonl); empty = no logs.
  std::string log_dir;
};

class Server {
 public:
  /// `root` supplies the shared DesignStore, the metrics sink and the
  /// tracer; the server builds against the default cell library and BTI
  /// model (the same configuration every CLI subcommand characterizes with,
  /// so served results are bit-identical to local ones).
  Server(const Context& root, ServerOptions options);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens and starts the acceptor/worker/snapshot threads.
  /// False (with `err` filled) on socket failure.
  bool start(std::string* err);

  /// The concrete endpoint after bind — for tcp:0, the resolved port.
  const std::string& endpoint() const noexcept { return endpoint_; }

  /// Graceful drain: shed new work, finish the backlog, snapshot the
  /// store, join every thread. Idempotent; also runs from ~Server.
  void stop();

  /// Signal-handler hook: requests stop() without doing any of it inline
  /// (async-signal-safe — one atomic store). serve_forever() observes it.
  void request_stop() noexcept { stop_requested_.store(true); }

  /// Runs until request_stop() (i.e. SIGINT/SIGTERM) fires, then stop()s.
  void serve_forever();

  /// The operational snapshot the in-band stats op serves: lifetime
  /// counters, instantaneous queue state, per-op latency histograms and the
  /// slow-request ring. Built from atomics and brief locked copies;
  /// callable any time, also after stop(), without perturbing request
  /// traffic. stats() and stats_response() are the same call.
  using Stats = StatsResponse;
  Stats stats() const;
  StatsResponse stats_response() const { return stats(); }

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  std::string endpoint_;
  std::atomic<bool> stop_requested_{false};
};

}  // namespace aapx::service
