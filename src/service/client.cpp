#include "service/client.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "obs/trace.hpp"
#include "service/socket.hpp"
#include "util/hash.hpp"

namespace aapx::service {

ServiceClient::ServiceClient(std::string endpoint, ClientOptions options)
    : endpoint_(std::move(endpoint)),
      options_(options),
      jitter_state_(mix_seed(options.jitter_seed, 0x636c69656e74ULL)) {}

ServiceClient::~ServiceClient() { disconnect(); }

void ServiceClient::disconnect() {
  close_fd(fd_);
  fd_ = -1;
}

bool ServiceClient::ensure_connected(std::string* err) {
  if (fd_ >= 0) return true;
  fd_ = connect_endpoint(endpoint_, err);
  return fd_ >= 0;
}

bool ServiceClient::roundtrip(const Frame& frame, Frame* response,
                              std::uint32_t timeout_ms, std::string* err) {
  const bool bounded = timeout_ms > 0;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  if (!send_all(fd_, encode_frame(frame),
                bounded ? static_cast<int>(timeout_ms) : -1)) {
    if (err != nullptr) *err = "send failed";
    return false;
  }
  FrameReader reader;
  char buf[4096];
  while (true) {
    int wait_ms = -1;
    if (bounded) {
      const auto now = std::chrono::steady_clock::now();
      if (now >= deadline) {
        // A wedged server is a transport failure, not a hang: the caller
        // reconnects and retries under backoff like any dropped link.
        if (err != nullptr) {
          *err = "no response within " + std::to_string(timeout_ms) + " ms";
        }
        return false;
      }
      wait_ms = static_cast<int>(
          std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now)
              .count() +
          1);
    }
    const int ready = wait_readable(fd_, wait_ms);
    if (ready < 0) {
      if (err != nullptr) *err = "recv failed";
      return false;
    }
    if (ready == 0) continue;  // the loop head re-checks the deadline
    const long n = recv_some(fd_, buf, sizeof(buf));
    if (n <= 0) {
      if (err != nullptr) *err = n == 0 ? "server closed" : "recv failed";
      return false;
    }
    reader.feed(buf, static_cast<std::size_t>(n));
    while (auto got = reader.next()) {
      // Stale responses (an earlier attempt's id) are skipped, not errors:
      // a resend after a retry_later may race the original's response.
      if (got->request_id != frame.request_id) continue;
      *response = std::move(*got);
      return true;
    }
  }
}

std::uint32_t ServiceClient::next_backoff_ms(int attempt,
                                             std::uint32_t server_hint_ms) {
  // Exponential base_backoff * 2^attempt, capped, then full jitter (uniform
  // in [half, full]) from a deterministic xorshift stream, floored at the
  // server's hint: overlapping client storms decorrelate instead of
  // re-stampeding in lockstep.
  constexpr std::uint64_t kMaxBackoffMs = 2000;
  std::uint64_t exp = options_.base_backoff_ms;
  for (int i = 0; i < attempt && exp < kMaxBackoffMs; ++i) exp *= 2;
  exp = std::min<std::uint64_t>(exp, kMaxBackoffMs);
  jitter_state_ ^= jitter_state_ << 13;
  jitter_state_ ^= jitter_state_ >> 7;
  jitter_state_ ^= jitter_state_ << 17;
  const std::uint64_t jittered = exp / 2 + jitter_state_ % (exp / 2 + 1);
  return std::max<std::uint32_t>(static_cast<std::uint32_t>(jittered),
                                 server_hint_ms);
}

CallResult ServiceClient::call(MsgType type, const std::string& payload,
                               std::uint32_t deadline_ms) {
  // A deadline-carrying request is answered (`cancelled` at worst) within
  // its own budget by a healthy server, so anything past deadline + margin
  // means the server is wedged; deadline-free requests get the blanket
  // response timeout.
  constexpr std::uint32_t kDeadlineMarginMs = 2000;
  const std::uint32_t timeout_ms =
      deadline_ms > 0 ? deadline_ms + kDeadlineMarginMs
                      : options_.response_timeout_ms;
  // One trace id per logical call, shared by every retry attempt: the
  // client.attempt spans and the server's serve.* spans all carry it, so a
  // trace shows the retries of this call as one correlated family.
  // Deterministic (seed + call counter) so test schedules reproduce.
  std::uint64_t trace_id = forced_trace_id_ != 0
                               ? forced_trace_id_
                               : mix_seed(options_.jitter_seed ^
                                              0x74726163655f6964ULL,
                                          ++trace_counter_);
  if (trace_id == 0) trace_id = 1;  // 0 means "untraced" on the wire
  last_trace_id_ = trace_id;
  CallResult result;
  std::string last_error = "no attempts made";
  for (int attempt = 0; attempt < options_.max_attempts; ++attempt) {
    if (attempt > 0) ++retries_;
    std::uint32_t hint_ms = 0;
    if (ensure_connected(&last_error)) {
      const obs::Span span(options_.tracer, "client.attempt", trace_id);
      Frame request{type, next_request_id_++, trace_id, payload};
      Frame response;
      if (!roundtrip(request, &response, timeout_ms, &last_error)) {
        // Transport failure — the server may be mid-restart (the chaos
        // harness kills it on purpose). Reconnect fresh next attempt.
        disconnect();
      } else {
        switch (response.type) {
          case MsgType::error:
            result.error = decode_error_response(response.payload).message;
            return result;
          case MsgType::cancelled:
            result.cancelled = true;
            result.error = "cancelled: " +
                           decode_cancelled_response(response.payload).reason;
            return result;
          case MsgType::retry_later:
            hint_ms =
                decode_retry_later_response(response.payload).retry_after_ms;
            last_error = "server overloaded (retry_later)";
            break;
          default:
            result.ok = true;
            result.frame = std::move(response);
            return result;
        }
      }
    }
    if (attempt + 1 < options_.max_attempts) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(next_backoff_ms(attempt, hint_ms)));
    }
  }
  result.error = "gave up after " + std::to_string(options_.max_attempts) +
                 " attempts: " + last_error;
  return result;
}

bool ServiceClient::ping(std::string* err) {
  const CallResult r = call(MsgType::ping, {});
  if (!r.ok && err != nullptr) *err = r.error;
  return r.ok;
}

std::optional<engine::SurfacePayload> ServiceClient::characterize(
    const CharacterizeRequest& req, std::string* err) {
  const CallResult r =
      call(MsgType::characterize, encode_request(req), req.deadline_ms);
  if (!r.ok) {
    if (err != nullptr) *err = r.error;
    return std::nullopt;
  }
  try {
    return decode_surface_response(r.frame.payload);
  } catch (const ProtocolError& e) {
    if (err != nullptr) *err = e.what();
    return std::nullopt;
  }
}

std::optional<double> ServiceClient::aged_delay(const AgedDelayRequest& req,
                                                std::string* err) {
  const CallResult r =
      call(MsgType::aged_delay, encode_request(req), req.deadline_ms);
  if (!r.ok) {
    if (err != nullptr) *err = r.error;
    return std::nullopt;
  }
  try {
    return decode_delay_response(r.frame.payload).delay_ps;
  } catch (const ProtocolError& e) {
    if (err != nullptr) *err = e.what();
    return std::nullopt;
  }
}

std::optional<std::vector<engine::SurfacePayload>> ServiceClient::library_query(
    const LibraryQueryRequest& req, std::string* err) {
  const CallResult r = call(MsgType::library_query, encode_request(req));
  if (!r.ok) {
    if (err != nullptr) *err = r.error;
    return std::nullopt;
  }
  try {
    return decode_surfaces_response(r.frame.payload);
  } catch (const ProtocolError& e) {
    if (err != nullptr) *err = e.what();
    return std::nullopt;
  }
}

std::optional<StatsResponse> ServiceClient::stats(std::string* err) {
  const CallResult r = call(MsgType::stats, {});
  if (!r.ok) {
    if (err != nullptr) *err = r.error;
    return std::nullopt;
  }
  try {
    return decode_stats_response(r.frame.payload);
  } catch (const ProtocolError& e) {
    if (err != nullptr) *err = e.what();
    return std::nullopt;
  }
}

}  // namespace aapx::service
