// Wire protocol of `aapx serve` — length-prefixed binary frames carrying
// characterization / aged-STA / library-query requests and their typed
// responses, built on the same endianness-stable engine/binio.hpp codecs the
// persistent store uses (a served surface is byte-identical to a stored one).
//
// Frame layout (all integers little-endian):
//
//   magic u32 "APXF" | type u32 | request_id u64 | trace_id u64
//   | payload_size u64 | payload bytes
//
// request_id is chosen by the client and echoed verbatim on the response, so
// one connection can pipeline requests. trace_id is an opaque correlation
// id, also client-chosen and echoed: a client stamps the same trace_id on
// every retry attempt of one logical call (its client.attempt spans carry
// it as args.n), and the server puts it on its serve.* spans and in the
// slow-request ring — so one id joins client attempts to the server-side
// work they caused. 0 means "untraced" and is always legal. The payload is
// a per-type record encoded below.
//
// Robustness contract (frames arrive from untrusted sockets):
//   * FrameReader validates the magic and rejects payload_size above
//     kMaxPayload *before* buffering, so a hostile length prefix cannot
//     drive an allocation — it throws ProtocolError, which the server
//     answers with one `error` frame and a connection close.
//   * Every payload decoder bounds-checks through BinReader, validates enum
//     ranges and numeric sanity, and requires the payload to be fully
//     consumed — trailing garbage is malformed, not ignored.
//   * Overload is a typed `retry_later` response carrying the server's
//     backoff hint; deadline expiry is a typed `cancelled` response. A
//     client never has to infer failure from a hang.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "aging/stress.hpp"
#include "engine/persist.hpp"
#include "obs/metrics.hpp"
#include "sta/sta.hpp"
#include "synth/components.hpp"

namespace aapx::service {

inline constexpr std::uint32_t kFrameMagic = 0x46585041;  // "APXF" on the wire
inline constexpr std::size_t kFrameHeaderSize = 32;
/// Payload ceiling. Surfaces are a few KiB; 16 MiB leaves room for big
/// library-query responses while bounding a hostile prefix's damage.
inline constexpr std::uint64_t kMaxPayload = 16ull << 20;

enum class MsgType : std::uint32_t {
  // requests
  ping = 1,
  characterize = 2,
  aged_delay = 3,
  library_query = 4,
  stats = 5,
  // responses
  pong = 16,
  ok_surface = 17,
  ok_delay = 18,
  ok_surfaces = 19,
  ok_stats = 20,
  error = 30,
  retry_later = 31,
  cancelled = 32,
};

const char* to_string(MsgType type);
bool is_request(MsgType type);

/// Malformed wire data: bad magic, oversized or short payload, unknown
/// message type, codec failure. Connection-fatal on the read path.
class ProtocolError : public std::runtime_error {
 public:
  explicit ProtocolError(const std::string& what)
      : std::runtime_error("protocol: " + what) {}
};

struct Frame {
  MsgType type = MsgType::ping;
  std::uint64_t request_id = 0;
  std::uint64_t trace_id = 0;  ///< correlation id, echoed on responses
  std::string payload;
};

std::string encode_frame(const Frame& frame);

/// Incremental frame decoder over a byte stream. feed() appends received
/// bytes; next() pops one complete frame or nullopt if more bytes are
/// needed. Malformed input throws ProtocolError immediately — the header is
/// validated as soon as it is complete, so a hostile length prefix is
/// rejected before any payload buffering.
class FrameReader {
 public:
  void feed(const char* data, std::size_t n);
  std::optional<Frame> next();
  std::size_t buffered() const noexcept { return buf_.size() - pos_; }
  /// Total bytes held, including any not-yet-erased consumed prefix — lets
  /// tests assert the buffer stays bounded on a long-lived connection.
  std::size_t footprint() const noexcept { return buf_.size(); }

 private:
  /// Erases the consumed prefix. Called on every wait-for-more-bytes return
  /// and, amortized, after mid-buffer pops, so the buffer never retains
  /// already-answered frames across a long-lived connection.
  void compact();

  std::string buf_;
  std::size_t pos_ = 0;
};

// --- request payloads -------------------------------------------------------
// Decoders validate enum ranges, numeric sanity and full consumption, and
// throw ProtocolError on any violation. `deadline_ms` is the client's
// per-request budget, measured by the server from frame receipt (0 = none);
// it is deliberately *excluded* from the dedup identity below, so the same
// logical work under different deadlines still computes once.

struct CharacterizeRequest {
  ComponentSpec spec;  ///< full precision (truncated_bits == 0)
  std::vector<AgingScenario> scenarios;
  int min_precision = 1;
  int precision_step = 1;
  StaOptions sta;
  std::uint32_t deadline_ms = 0;

  /// Semantic identity for in-flight dedup (deadline excluded).
  std::uint64_t dedup_key() const;
};
std::string encode_request(const CharacterizeRequest& req);
CharacterizeRequest decode_characterize_request(const std::string& payload);

struct AgedDelayRequest {
  ComponentSpec spec;
  /// `measured` is rejected: stimulus-dependent, not servable from a store.
  StressMode mode = StressMode::worst;
  double years = 0.0;
  StaOptions sta;
  std::uint32_t deadline_ms = 0;

  std::uint64_t dedup_key() const;
};
std::string encode_request(const AgedDelayRequest& req);
AgedDelayRequest decode_aged_delay_request(const std::string& payload);

struct LibraryQueryRequest {
  std::int32_t kind = -1;  ///< ComponentKind filter; -1 = any
  int width = 0;           ///< 0 = any
};
std::string encode_request(const LibraryQueryRequest& req);
LibraryQueryRequest decode_library_query_request(const std::string& payload);

// --- response payloads ------------------------------------------------------
// ok_surface carries one engine::SurfacePayload (the store codec, verbatim);
// ok_surfaces carries a count-prefixed sequence of them.

std::string encode_surface_response(const engine::SurfacePayload& p);
engine::SurfacePayload decode_surface_response(const std::string& payload);

std::string encode_surfaces_response(
    const std::vector<engine::SurfacePayload>& surfaces);
std::vector<engine::SurfacePayload> decode_surfaces_response(
    const std::string& payload);

struct DelayResponse {
  double delay_ps = 0.0;
};
std::string encode_delay_response(const DelayResponse& resp);
DelayResponse decode_delay_response(const std::string& payload);

struct ErrorResponse {
  std::string message;
};
std::string encode_error_response(const ErrorResponse& resp);
ErrorResponse decode_error_response(const std::string& payload);

struct RetryLaterResponse {
  std::uint32_t retry_after_ms = 0;  ///< server's backoff hint
};
std::string encode_retry_later_response(const RetryLaterResponse& resp);
RetryLaterResponse decode_retry_later_response(const std::string& payload);

struct CancelledResponse {
  std::string reason;  ///< "deadline" | "shutdown"
};
std::string encode_cancelled_response(const CancelledResponse& resp);
CancelledResponse decode_cancelled_response(const std::string& payload);

// --- stats ------------------------------------------------------------------
// The `stats` request carries an empty payload. The response is a
// point-in-time snapshot of the server's operational state: lifetime
// counters, per-op latency histograms (exact count/sum/min/max plus the
// non-empty log2 buckets — enough to recompute p50/p95/p99 client-side with
// obs::histogram_quantile) and the slow-request ring. The server answers it
// on the reader thread without touching any request counter or the worker
// queue, so scraping never perturbs serving. The root registry's counters
// are not in it: `aapx serve --metrics` writes the whole registry on drain.
// This record is also the server's in-process view (Server::Stats).

struct StatsResponse {
  // Lifetime counters.
  std::uint64_t connections = 0;
  std::uint64_t live_connections = 0;
  std::uint64_t requests = 0;
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;
  std::uint64_t deduped = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t protocol_errors = 0;
  std::uint64_t snapshots = 0;
  // Instantaneous state.
  std::uint64_t queue_depth = 0;
  std::uint64_t inflight = 0;
  double uptime_s = 0.0;
  double snapshot_age_s = -1.0;  ///< seconds since last snapshot; < 0 = never

  /// Admission-to-response latency histogram for one request op.
  struct OpLatency {
    std::uint32_t op = 0;  ///< MsgType of the request, as u32
    std::uint64_t count = 0;
    double sum_us = 0.0;
    double min_us = 0.0;
    double max_us = 0.0;
    /// (log2 bucket index, count), non-empty buckets only, index-ordered.
    std::vector<std::pair<std::int32_t, std::uint64_t>> buckets;

    /// The same histogram as an obs::HistogramSample, for
    /// obs::histogram_quantile.
    obs::HistogramSample sample() const;
  };
  std::vector<OpLatency> ops;

  /// One entry of the bounded slowest-requests ring (top-K by latency).
  struct SlowRequest {
    std::uint64_t seq = 0;       ///< server-side admission sequence number
    std::uint32_t op = 0;        ///< MsgType of the request, as u32
    std::uint64_t trace_id = 0;  ///< client's correlation id (0 = untraced)
    double latency_us = 0.0;
  };
  std::vector<SlowRequest> slow;
};
std::string encode_stats_response(const StatsResponse& resp);
StatsResponse decode_stats_response(const std::string& payload);

}  // namespace aapx::service
