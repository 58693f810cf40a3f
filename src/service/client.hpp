// Client side of the `aapx serve` protocol — both the `aapx client` CLI and
// the in-process tests/benches speak through this class.
//
// Fault-tolerance contract: one call() is a *reliable* request —
//   * transport failure (server restarting, connection dropped mid-frame)
//     reconnects and resends after an exponential backoff (capped at 2 s)
//     with deterministic jitter,
//   * a retry_later response (server backpressure) backs off by at least
//     the server's hint before resending,
//   * error / cancelled responses are terminal: the server made a decision,
//     retrying wouldn't change it, so the outcome is reported to the
//     caller instead,
//   * a wedged server (accepts, never answers) is bounded by a response
//     timeout — deadline_ms + 2 s for deadline-carrying requests (the
//     server answers `cancelled` by the deadline, so later means wedged),
//     response_timeout_ms otherwise — and treated as a transport failure
//     eligible for retry.
// Retries are bounded by max_attempts; the final failure reason is always
// a human-readable string, never a hang.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "engine/persist.hpp"
#include "service/protocol.hpp"

namespace aapx::obs {
class Tracer;
}  // namespace aapx::obs

namespace aapx::service {

struct ClientOptions {
  int max_attempts = 8;
  std::uint32_t base_backoff_ms = 10;
  /// Jitter stream seed — deterministic, so test schedules reproduce.
  std::uint64_t jitter_seed = 1;
  /// Ceiling on one attempt's wait for a response when the request carries
  /// no deadline; 0 = wait forever. Expiry is a retryable transport
  /// failure, so a wedged server cannot hang the client indefinitely.
  std::uint32_t response_timeout_ms = 60000;
  /// Tracer for one client.attempt span per attempt, carrying the call's
  /// trace id as args.n. Borrowed; nullptr = no spans.
  obs::Tracer* tracer = nullptr;
};

/// Outcome of one reliable call. `ok` with the payload frame, or a terminal
/// failure (`cancelled` true when the server answered `cancelled`).
struct CallResult {
  bool ok = false;
  bool cancelled = false;
  std::string error;  ///< terminal reason when !ok
  Frame frame;        ///< the ok_* response when ok
};

class ServiceClient {
 public:
  explicit ServiceClient(std::string endpoint, ClientOptions options = {});
  ~ServiceClient();
  ServiceClient(const ServiceClient&) = delete;
  ServiceClient& operator=(const ServiceClient&) = delete;

  /// One reliable request/response round trip (see contract above).
  /// `deadline_ms` is the request's server-side budget when it carries one
  /// (0 = none); it sizes the per-attempt response timeout.
  CallResult call(MsgType type, const std::string& payload,
                  std::uint32_t deadline_ms = 0);

  bool ping(std::string* err = nullptr);

  /// Characterize via the service; nullopt with `err` filled on terminal
  /// failure. The returned payload is the store codec verbatim, so a
  /// decoded surface is bit-identical to a locally computed one.
  std::optional<engine::SurfacePayload> characterize(
      const CharacterizeRequest& req, std::string* err = nullptr);

  std::optional<double> aged_delay(const AgedDelayRequest& req,
                                   std::string* err = nullptr);

  std::optional<std::vector<engine::SurfacePayload>> library_query(
      const LibraryQueryRequest& req, std::string* err = nullptr);

  /// The server's operational stats snapshot (the in-band scrape).
  std::optional<StatsResponse> stats(std::string* err = nullptr);

  /// Attempts beyond the first across all calls (retry observability).
  std::uint64_t retries() const noexcept { return retries_; }

  /// Forces the trace id stamped on subsequent calls (0 = back to the
  /// default: one deterministic id per logical call, shared by all of the
  /// call's retry attempts, so server-side spans of every attempt join
  /// under one id).
  void set_trace_id(std::uint64_t id) noexcept { forced_trace_id_ = id; }
  /// The trace id the most recent call() stamped (0 = none yet).
  std::uint64_t last_trace_id() const noexcept { return last_trace_id_; }

  void disconnect();

 private:
  bool ensure_connected(std::string* err);
  /// Sends `frame` and reads frames until the response with its id arrives
  /// or `timeout_ms` elapses (0 = no bound). False on transport failure or
  /// timeout (caller reconnects and retries).
  bool roundtrip(const Frame& frame, Frame* response, std::uint32_t timeout_ms,
                 std::string* err);
  std::uint32_t next_backoff_ms(int attempt, std::uint32_t server_hint_ms);

  std::string endpoint_;
  ClientOptions options_;
  int fd_ = -1;
  std::uint64_t next_request_id_ = 1;
  std::uint64_t jitter_state_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t forced_trace_id_ = 0;
  std::uint64_t last_trace_id_ = 0;
  std::uint64_t trace_counter_ = 0;
};

}  // namespace aapx::service
