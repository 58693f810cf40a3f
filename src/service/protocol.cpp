#include "service/protocol.hpp"

#include <cstring>

#include "engine/binio.hpp"
#include "engine/key.hpp"
#include "util/hash.hpp"

namespace aapx::service {
namespace {

using engine::BinReader;
using engine::BinWriter;

[[noreturn]] void malformed(const std::string& what) {
  throw ProtocolError(what);
}

/// Re-throws a codec bounds-check failure as a ProtocolError so the server
/// answers it with a typed error frame instead of treating it as internal.
template <typename Fn>
auto decode_guard(const char* what, Fn&& fn) {
  try {
    return fn();
  } catch (const ProtocolError&) {
    throw;
  } catch (const std::exception& e) {
    malformed(std::string(what) + ": " + e.what());
  }
}

/// engine::decode_spec plus the service's own limits: a datapath of at most
/// 64 bits and a truncation that leaves at least one bit.
ComponentSpec decode_checked_spec(BinReader& r) {
  const ComponentSpec spec = engine::decode_spec(r);
  if (spec.width < 1 || spec.width > 64) {
    malformed("spec width out of [1, 64]: " + std::to_string(spec.width));
  }
  if (spec.truncated_bits < 0 || spec.truncated_bits >= spec.width) {
    malformed("spec truncated_bits out of [0, width)");
  }
  return spec;
}

StressMode decode_stress_mode(BinReader& r) {
  // measured mode is stimulus-dependent — a remote client cannot ship the
  // simulation traces it would need, so the service rejects it at decode.
  const StressMode mode = r.enum32(StressMode::measured, "StressMode");
  if (mode == StressMode::measured) {
    malformed("measured stress mode is not servable (stimulus-dependent)");
  }
  return mode;
}

void encode_sta(BinWriter& w, const StaOptions& sta) {
  w.f64(sta.primary_input_slew);
  w.f64(sta.primary_output_load);
}

StaOptions decode_sta(BinReader& r) {
  StaOptions sta;
  sta.primary_input_slew = r.f64();
  sta.primary_output_load = r.f64();
  if (!(sta.primary_input_slew > 0.0) || !(sta.primary_output_load >= 0.0)) {
    malformed("bad StaOptions");
  }
  return sta;
}

double decode_years(BinReader& r) {
  const double years = r.f64();
  // A finite-range check, not just >= 0: NaN years would poison every
  // downstream key comparison, and 1e6 "years" is a hostile CPU sink.
  if (!(years >= 0.0 && years <= 1000.0)) {
    malformed("scenario years out of [0, 1000]");
  }
  return years;
}

}  // namespace

const char* to_string(MsgType type) {
  switch (type) {
    case MsgType::ping: return "ping";
    case MsgType::characterize: return "characterize";
    case MsgType::aged_delay: return "aged_delay";
    case MsgType::library_query: return "library_query";
    case MsgType::stats: return "stats";
    case MsgType::pong: return "pong";
    case MsgType::ok_surface: return "ok_surface";
    case MsgType::ok_delay: return "ok_delay";
    case MsgType::ok_surfaces: return "ok_surfaces";
    case MsgType::ok_stats: return "ok_stats";
    case MsgType::error: return "error";
    case MsgType::retry_later: return "retry_later";
    case MsgType::cancelled: return "cancelled";
  }
  return "unknown";
}

bool is_request(MsgType type) {
  switch (type) {
    case MsgType::ping:
    case MsgType::characterize:
    case MsgType::aged_delay:
    case MsgType::library_query:
    case MsgType::stats:
      return true;
    default:
      return false;
  }
}

std::string encode_frame(const Frame& frame) {
  BinWriter w;
  w.u32(kFrameMagic);
  w.u32(static_cast<std::uint32_t>(frame.type));
  w.u64(frame.request_id);
  w.u64(frame.trace_id);
  w.u64(frame.payload.size());
  std::string out = w.take();
  out += frame.payload;
  return out;
}

void FrameReader::feed(const char* data, std::size_t n) {
  buf_.append(data, n);
}

void FrameReader::compact() {
  if (pos_ == 0) return;
  buf_.erase(0, pos_);
  pos_ = 0;
}

std::optional<Frame> FrameReader::next() {
  if (buf_.size() - pos_ < kFrameHeaderSize) {
    compact();
    return std::nullopt;
  }
  BinReader r(std::string_view(buf_).substr(pos_));
  const std::uint32_t magic = r.u32();
  if (magic != kFrameMagic) malformed("bad frame magic");
  const std::uint32_t raw_type = r.u32();
  const std::uint64_t request_id = r.u64();
  const std::uint64_t trace_id = r.u64();
  const std::uint64_t payload_size = r.u64();
  // The ceiling check happens here, while only the 32 header bytes are
  // buffered — a hostile 2^60 length prefix is rejected before it can
  // drive any allocation or make us wait for bytes that never come.
  if (payload_size > kMaxPayload) {
    malformed("frame payload " + std::to_string(payload_size) +
              " exceeds limit " + std::to_string(kMaxPayload));
  }
  const char* name = to_string(static_cast<MsgType>(raw_type));
  if (std::strcmp(name, "unknown") == 0) {
    malformed("unknown message type " + std::to_string(raw_type));
  }
  if (buf_.size() - pos_ < kFrameHeaderSize + payload_size) {
    compact();
    return std::nullopt;  // header validated; wait for the payload bytes
  }
  Frame frame;
  frame.type = static_cast<MsgType>(raw_type);
  frame.request_id = request_id;
  frame.trace_id = trace_id;
  frame.payload = buf_.substr(pos_ + kFrameHeaderSize,
                              static_cast<std::size_t>(payload_size));
  pos_ += kFrameHeaderSize + static_cast<std::size_t>(payload_size);
  // Amortized-O(1) mid-stream compaction: once the consumed prefix is at
  // least as large as the live tail, erasing it moves fewer bytes than it
  // frees — a connection streaming back-to-back frames stays bounded by
  // one frame plus one recv chunk instead of accreting every answered one.
  if (pos_ >= buf_.size() - pos_) compact();
  return frame;
}

// --- characterize -----------------------------------------------------------

std::string encode_request(const CharacterizeRequest& req) {
  BinWriter w;
  engine::encode_spec(w, req.spec);
  w.u64(req.scenarios.size());
  for (const AgingScenario& s : req.scenarios) {
    w.i32(static_cast<std::int32_t>(s.mode));
    w.f64(s.years);
  }
  w.i32(req.min_precision);
  w.i32(req.precision_step);
  encode_sta(w, req.sta);
  w.u32(req.deadline_ms);
  return w.take();
}

CharacterizeRequest decode_characterize_request(const std::string& payload) {
  return decode_guard("characterize request", [&] {
    BinReader r(payload);
    CharacterizeRequest req;
    req.spec = decode_checked_spec(r);
    if (req.spec.truncated_bits != 0) {
      malformed("characterize base spec must be full precision");
    }
    const std::uint64_t n = r.count(r.u64(), 12);  // i32 mode + f64 years
    if (n > 64) malformed("too many scenarios: " + std::to_string(n));
    req.scenarios.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      AgingScenario s;
      s.mode = decode_stress_mode(r);
      s.years = decode_years(r);
      req.scenarios.push_back(s);
    }
    req.min_precision = r.i32();
    req.precision_step = r.i32();
    if (req.min_precision < 1 || req.min_precision > req.spec.width) {
      malformed("min_precision out of [1, width]");
    }
    if (req.precision_step < 1 || req.precision_step > req.spec.width) {
      malformed("precision_step out of [1, width]");
    }
    req.sta = decode_sta(r);
    req.deadline_ms = r.u32();
    r.expect_end();
    return req;
  });
}

std::uint64_t CharacterizeRequest::dedup_key() const {
  Hasher h;
  h.str("serve.characterize");
  h.u64(engine::key_of(spec));
  h.u64(scenarios.size());
  for (const AgingScenario& s : scenarios) {
    h.i32(static_cast<std::int32_t>(s.mode)).f64(s.years);
  }
  h.i32(min_precision).i32(precision_step);
  h.f64(sta.primary_input_slew).f64(sta.primary_output_load);
  // deadline_ms deliberately excluded: identical work under different
  // deadlines dedups onto one computation.
  return h.digest();
}

// --- aged_delay -------------------------------------------------------------

std::string encode_request(const AgedDelayRequest& req) {
  BinWriter w;
  engine::encode_spec(w, req.spec);
  w.i32(static_cast<std::int32_t>(req.mode));
  w.f64(req.years);
  encode_sta(w, req.sta);
  w.u32(req.deadline_ms);
  return w.take();
}

AgedDelayRequest decode_aged_delay_request(const std::string& payload) {
  return decode_guard("aged_delay request", [&] {
    BinReader r(payload);
    AgedDelayRequest req;
    req.spec = decode_checked_spec(r);
    req.mode = decode_stress_mode(r);
    req.years = decode_years(r);
    req.sta = decode_sta(r);
    req.deadline_ms = r.u32();
    r.expect_end();
    return req;
  });
}

std::uint64_t AgedDelayRequest::dedup_key() const {
  Hasher h;
  h.str("serve.aged_delay");
  h.u64(engine::key_of(spec));
  h.i32(static_cast<std::int32_t>(mode)).f64(years);
  h.f64(sta.primary_input_slew).f64(sta.primary_output_load);
  return h.digest();
}

// --- library_query ----------------------------------------------------------

std::string encode_request(const LibraryQueryRequest& req) {
  BinWriter w;
  w.i32(req.kind);
  w.i32(req.width);
  return w.take();
}

LibraryQueryRequest decode_library_query_request(const std::string& payload) {
  return decode_guard("library_query request", [&] {
    BinReader r(payload);
    LibraryQueryRequest req;
    req.kind = r.i32();
    if (req.kind < -1 ||
        req.kind > static_cast<std::int32_t>(ComponentKind::clamp)) {
      malformed("bad ComponentKind filter");
    }
    req.width = r.i32();
    if (req.width < 0 || req.width > 64) malformed("bad width filter");
    r.expect_end();
    return req;
  });
}

// --- responses --------------------------------------------------------------

std::string encode_surface_response(const engine::SurfacePayload& p) {
  return engine::encode_surface_payload(p);
}

engine::SurfacePayload decode_surface_response(const std::string& payload) {
  return decode_guard("surface response",
                      [&] { return engine::decode_surface_payload(payload); });
}

std::string encode_surfaces_response(
    const std::vector<engine::SurfacePayload>& surfaces) {
  BinWriter w;
  w.u64(surfaces.size());
  for (const engine::SurfacePayload& p : surfaces) {
    w.str(engine::encode_surface_payload(p));
  }
  return w.take();
}

std::vector<engine::SurfacePayload> decode_surfaces_response(
    const std::string& payload) {
  return decode_guard("surfaces response", [&] {
    BinReader r(payload);
    const std::uint64_t n = r.count(r.u64(), 8);
    std::vector<engine::SurfacePayload> out;
    out.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      out.push_back(engine::decode_surface_payload(r.str()));
    }
    r.expect_end();
    return out;
  });
}

std::string encode_delay_response(const DelayResponse& resp) {
  BinWriter w;
  w.f64(resp.delay_ps);
  return w.take();
}

DelayResponse decode_delay_response(const std::string& payload) {
  return decode_guard("delay response", [&] {
    BinReader r(payload);
    DelayResponse resp;
    resp.delay_ps = r.f64();
    r.expect_end();
    return resp;
  });
}

std::string encode_error_response(const ErrorResponse& resp) {
  BinWriter w;
  w.str(resp.message);
  return w.take();
}

ErrorResponse decode_error_response(const std::string& payload) {
  return decode_guard("error response", [&] {
    BinReader r(payload);
    ErrorResponse resp;
    resp.message = r.str();
    r.expect_end();
    return resp;
  });
}

std::string encode_retry_later_response(const RetryLaterResponse& resp) {
  BinWriter w;
  w.u32(resp.retry_after_ms);
  return w.take();
}

RetryLaterResponse decode_retry_later_response(const std::string& payload) {
  return decode_guard("retry_later response", [&] {
    BinReader r(payload);
    RetryLaterResponse resp;
    resp.retry_after_ms = r.u32();
    r.expect_end();
    return resp;
  });
}

std::string encode_cancelled_response(const CancelledResponse& resp) {
  BinWriter w;
  w.str(resp.reason);
  return w.take();
}

CancelledResponse decode_cancelled_response(const std::string& payload) {
  return decode_guard("cancelled response", [&] {
    BinReader r(payload);
    CancelledResponse resp;
    resp.reason = r.str();
    r.expect_end();
    return resp;
  });
}

// --- stats ------------------------------------------------------------------

obs::HistogramSample StatsResponse::OpLatency::sample() const {
  obs::HistogramSample s;
  s.count = count;
  s.sum = sum_us;
  s.min = min_us;
  s.max = max_us;
  s.buckets.assign(buckets.begin(), buckets.end());
  return s;
}

std::string encode_stats_response(const StatsResponse& resp) {
  BinWriter w;
  w.u64(resp.connections);
  w.u64(resp.live_connections);
  w.u64(resp.requests);
  w.u64(resp.completed);
  w.u64(resp.shed);
  w.u64(resp.deduped);
  w.u64(resp.cancelled);
  w.u64(resp.protocol_errors);
  w.u64(resp.snapshots);
  w.u64(resp.queue_depth);
  w.u64(resp.inflight);
  w.f64(resp.uptime_s);
  w.f64(resp.snapshot_age_s);
  w.u64(resp.ops.size());
  for (const StatsResponse::OpLatency& op : resp.ops) {
    w.u32(op.op);
    w.u64(op.count);
    w.f64(op.sum_us);
    w.f64(op.min_us);
    w.f64(op.max_us);
    w.u64(op.buckets.size());
    for (const auto& [index, n] : op.buckets) {
      w.i32(index);
      w.u64(n);
    }
  }
  w.u64(resp.slow.size());
  for (const StatsResponse::SlowRequest& s : resp.slow) {
    w.u64(s.seq);
    w.u32(s.op);
    w.u64(s.trace_id);
    w.f64(s.latency_us);
  }
  return w.take();
}

StatsResponse decode_stats_response(const std::string& payload) {
  return decode_guard("stats response", [&] {
    BinReader r(payload);
    StatsResponse resp;
    resp.connections = r.u64();
    resp.live_connections = r.u64();
    resp.requests = r.u64();
    resp.completed = r.u64();
    resp.shed = r.u64();
    resp.deduped = r.u64();
    resp.cancelled = r.u64();
    resp.protocol_errors = r.u64();
    resp.snapshots = r.u64();
    resp.queue_depth = r.u64();
    resp.inflight = r.u64();
    resp.uptime_s = r.f64();
    resp.snapshot_age_s = r.f64();
    const std::uint64_t n_ops = r.count(r.u64(), 40);
    if (n_ops > 32) malformed("too many op histograms");
    resp.ops.reserve(n_ops);
    for (std::uint64_t i = 0; i < n_ops; ++i) {
      StatsResponse::OpLatency op;
      op.op = r.u32();
      op.count = r.u64();
      op.sum_us = r.f64();
      op.min_us = r.f64();
      op.max_us = r.f64();
      const std::uint64_t n_buckets = r.count(r.u64(), 12);
      if (n_buckets > 64) malformed("too many histogram buckets");
      op.buckets.reserve(n_buckets);
      std::int32_t prev = -1;
      for (std::uint64_t b = 0; b < n_buckets; ++b) {
        const std::int32_t index = r.i32();
        if (index <= prev || index >= 64) {
          malformed("histogram bucket indices must be ascending in [0, 64)");
        }
        prev = index;
        op.buckets.emplace_back(index, r.u64());
      }
      resp.ops.push_back(std::move(op));
    }
    const std::uint64_t n_slow = r.count(r.u64(), 28);
    if (n_slow > 256) malformed("too many slow-request entries");
    resp.slow.reserve(n_slow);
    for (std::uint64_t i = 0; i < n_slow; ++i) {
      StatsResponse::SlowRequest s;
      s.seq = r.u64();
      s.op = r.u32();
      s.trace_id = r.u64();
      s.latency_us = r.f64();
      resp.slow.push_back(s);
    }
    r.expect_end();
    return resp;
  });
}

}  // namespace aapx::service
