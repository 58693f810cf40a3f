// Adversarial-input coverage for the `aapx serve` wire protocol and the
// engine/binio.hpp record codecs underneath it (ISSUE 6 satellite: frames
// now arrive from untrusted sockets, so every decoder must reject malformed
// bytes with a typed error — never crash, hang, or allocate absurdly).
//
// Strategy: build one known-good encoding per codec, then attack it three
// ways — truncation at every prefix length, deterministic random byte
// mutations, and random garbage — asserting the decoder either succeeds or
// throws its documented error type.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "core/characterizer.hpp"
#include "engine/binio.hpp"
#include "engine/context.hpp"
#include "engine/design_store.hpp"
#include "engine/persist.hpp"
#include "service/protocol.hpp"

namespace aapx::service {
namespace {

/// Mutation-round budget: `base` scaled by the AAPX_FUZZ_ITERS environment
/// knob (the CI extended-fuzz job sets it to 20; unset/invalid means 1).
int fuzz_rounds(int base) {
  const char* env = std::getenv("AAPX_FUZZ_ITERS");
  if (env == nullptr) return base;
  const long mult = std::strtol(env, nullptr, 10);
  return mult > 1 ? base * static_cast<int>(mult) : base;
}

// Deterministic xorshift64 stream so every CI run fuzzes the same inputs.
struct Xorshift {
  std::uint64_t state = 0x243F6A8885A308D3ull;
  std::uint64_t next() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  }
};

CharacterizeRequest sample_characterize() {
  CharacterizeRequest req;
  req.spec.kind = ComponentKind::adder;
  req.spec.width = 8;
  req.spec.adder_arch = AdderArch::ripple;
  req.scenarios = {{StressMode::worst, 10.0}, {StressMode::balanced, 1.0}};
  req.min_precision = 4;
  req.precision_step = 2;
  req.deadline_ms = 250;
  return req;
}

AgedDelayRequest sample_aged_delay() {
  AgedDelayRequest req;
  req.spec.kind = ComponentKind::multiplier;
  req.spec.width = 6;
  req.mode = StressMode::balanced;
  req.years = 5.0;
  req.deadline_ms = 100;
  return req;
}

/// The truncation lengths fuzz_codec walks: every prefix of a payload up
/// to 4 KB, and of any payload when AAPX_FUZZ_ITERS > 1 (the extended-fuzz
/// job). A longer payload at the PR-gate budget walks its first and last
/// byte and a seeded sample of 512 lengths.
std::vector<std::size_t> truncation_lengths(std::size_t size) {
  std::vector<std::size_t> lens;
  if (size <= 4096 || fuzz_rounds(1) > 1) {
    for (std::size_t len = 0; len < size; ++len) lens.push_back(len);
    return lens;
  }
  lens = {0, size - 1};
  Xorshift rng;
  for (int i = 0; i < 512; ++i) lens.push_back(rng.next() % size);
  return lens;
}

/// Runs `decode` over truncations of `valid` (see truncation_lengths) and
/// over `rounds` random byte mutations. The decoder must either succeed or
/// throw ErrorT.
template <typename ErrorT, typename Decode>
void fuzz_codec(const std::string& valid, const Decode& decode,
                const char* who, int rounds = fuzz_rounds(300)) {
  // Truncation: a short payload must never decode.
  for (const std::size_t len : truncation_lengths(valid.size())) {
    EXPECT_THROW(decode(valid.substr(0, len)), ErrorT)
        << who << ": truncation to " << len << " bytes accepted";
  }
  // Random mutations: flip 1-4 bytes; success is allowed (some bytes are
  // don't-cares, e.g. payload doubles), crashing or foreign throws are not.
  Xorshift rng;
  for (int round = 0; round < rounds; ++round) {
    std::string bytes = valid;
    const int flips = 1 + static_cast<int>(rng.next() % 4);
    for (int f = 0; f < flips; ++f) {
      bytes[rng.next() % bytes.size()] =
          static_cast<char>(rng.next() & 0xff);
    }
    try {
      decode(bytes);
    } catch (const ErrorT&) {
      // rejected cleanly — exactly the contract
    }
  }
  // Trailing garbage must be malformed, not silently ignored.
  EXPECT_THROW(decode(valid + std::string(3, '\x7f')), ErrorT)
      << who << ": trailing garbage accepted";
  // Pure garbage of assorted lengths.
  for (const std::size_t len : {1u, 7u, 24u, 255u}) {
    std::string garbage(len, '\0');
    for (char& c : garbage) c = static_cast<char>(rng.next() & 0xff);
    try {
      decode(garbage);
    } catch (const ErrorT&) {
    }
  }
}

TEST(ServiceProtocol, RequestCodecsRoundTrip) {
  const CharacterizeRequest creq = sample_characterize();
  const CharacterizeRequest cgot =
      decode_characterize_request(encode_request(creq));
  EXPECT_EQ(cgot.spec, creq.spec);
  EXPECT_EQ(cgot.scenarios.size(), creq.scenarios.size());
  EXPECT_EQ(cgot.min_precision, creq.min_precision);
  EXPECT_EQ(cgot.precision_step, creq.precision_step);
  EXPECT_EQ(cgot.deadline_ms, creq.deadline_ms);
  EXPECT_EQ(cgot.dedup_key(), creq.dedup_key());

  const AgedDelayRequest areq = sample_aged_delay();
  const AgedDelayRequest agot = decode_aged_delay_request(encode_request(areq));
  EXPECT_EQ(agot.spec, areq.spec);
  EXPECT_EQ(agot.mode, areq.mode);
  EXPECT_EQ(agot.years, areq.years);
  EXPECT_EQ(agot.dedup_key(), areq.dedup_key());

  const LibraryQueryRequest lreq{2, 16};
  const LibraryQueryRequest lgot =
      decode_library_query_request(encode_request(lreq));
  EXPECT_EQ(lgot.kind, lreq.kind);
  EXPECT_EQ(lgot.width, lreq.width);
}

TEST(ServiceProtocol, DeadlineExcludedFromDedupKey) {
  CharacterizeRequest a = sample_characterize();
  CharacterizeRequest b = a;
  b.deadline_ms = 9999;
  EXPECT_EQ(a.dedup_key(), b.dedup_key());
  b.min_precision += 1;
  EXPECT_NE(a.dedup_key(), b.dedup_key());
}

TEST(ServiceProtocol, FuzzRequestPayloads) {
  fuzz_codec<ProtocolError>(
      encode_request(sample_characterize()),
      [](const std::string& b) { return decode_characterize_request(b); },
      "characterize");
  fuzz_codec<ProtocolError>(
      encode_request(sample_aged_delay()),
      [](const std::string& b) { return decode_aged_delay_request(b); },
      "aged_delay");
  fuzz_codec<ProtocolError>(
      encode_request(LibraryQueryRequest{1, 8}),
      [](const std::string& b) { return decode_library_query_request(b); },
      "library_query");
}

TEST(ServiceProtocol, FuzzResponsePayloads) {
  fuzz_codec<ProtocolError>(
      encode_delay_response({123.5}),
      [](const std::string& b) { return decode_delay_response(b); }, "delay");
  fuzz_codec<ProtocolError>(
      encode_error_response({"bad input"}),
      [](const std::string& b) { return decode_error_response(b); }, "error");
  fuzz_codec<ProtocolError>(
      encode_retry_later_response({50}),
      [](const std::string& b) { return decode_retry_later_response(b); },
      "retry_later");
  fuzz_codec<ProtocolError>(
      encode_cancelled_response({"deadline"}),
      [](const std::string& b) { return decode_cancelled_response(b); },
      "cancelled");
}

StatsResponse sample_stats() {
  StatsResponse s;
  s.connections = 12;
  s.live_connections = 3;
  s.requests = 40;
  s.completed = 37;
  s.shed = 5;
  s.deduped = 2;
  s.cancelled = 1;
  s.protocol_errors = 4;
  s.snapshots = 6;
  s.queue_depth = 2;
  s.inflight = 1;
  s.uptime_s = 12.5;
  s.snapshot_age_s = 0.25;
  StatsResponse::OpLatency lat;
  lat.op = static_cast<std::uint32_t>(MsgType::characterize);
  lat.count = 37;
  lat.sum_us = 123456.0;
  lat.min_us = 800.0;
  lat.max_us = 90000.0;
  lat.buckets = {{10, 3}, {11, 30}, {17, 4}};
  s.ops.push_back(lat);
  s.slow = {{41, static_cast<std::uint32_t>(MsgType::characterize),
             0xabcdef01ull, 90000.0},
            {7, static_cast<std::uint32_t>(MsgType::aged_delay), 0, 42000.0}};
  return s;
}

TEST(ServiceProtocol, StatsCodecRoundTrips) {
  const StatsResponse want = sample_stats();
  const StatsResponse got = decode_stats_response(encode_stats_response(want));
  EXPECT_EQ(got.connections, want.connections);
  EXPECT_EQ(got.live_connections, want.live_connections);
  EXPECT_EQ(got.requests, want.requests);
  EXPECT_EQ(got.completed, want.completed);
  EXPECT_EQ(got.shed, want.shed);
  EXPECT_EQ(got.deduped, want.deduped);
  EXPECT_EQ(got.cancelled, want.cancelled);
  EXPECT_EQ(got.protocol_errors, want.protocol_errors);
  EXPECT_EQ(got.snapshots, want.snapshots);
  EXPECT_EQ(got.queue_depth, want.queue_depth);
  EXPECT_EQ(got.inflight, want.inflight);
  EXPECT_EQ(got.uptime_s, want.uptime_s);
  EXPECT_EQ(got.snapshot_age_s, want.snapshot_age_s);
  ASSERT_EQ(got.ops.size(), 1u);
  EXPECT_EQ(got.ops[0].op, want.ops[0].op);
  EXPECT_EQ(got.ops[0].count, want.ops[0].count);
  EXPECT_EQ(got.ops[0].sum_us, want.ops[0].sum_us);
  EXPECT_EQ(got.ops[0].min_us, want.ops[0].min_us);
  EXPECT_EQ(got.ops[0].max_us, want.ops[0].max_us);
  EXPECT_EQ(got.ops[0].buckets, want.ops[0].buckets);
  ASSERT_EQ(got.slow.size(), 2u);
  EXPECT_EQ(got.slow[0].seq, want.slow[0].seq);
  EXPECT_EQ(got.slow[0].trace_id, want.slow[0].trace_id);
  EXPECT_EQ(got.slow[1].latency_us, want.slow[1].latency_us);
}

TEST(ServiceProtocol, FuzzStatsPayload) {
  fuzz_codec<ProtocolError>(
      encode_stats_response(sample_stats()),
      [](const std::string& b) { return decode_stats_response(b); }, "stats");
}

TEST(ServiceProtocol, RejectsInvalidEnumAndRangeValues) {
  CharacterizeRequest req = sample_characterize();
  req.spec.width = 99;  // above the 64-bit datapath ceiling
  EXPECT_THROW(decode_characterize_request(encode_request(req)),
               ProtocolError);
  req = sample_characterize();
  req.min_precision = 0;
  EXPECT_THROW(decode_characterize_request(encode_request(req)),
               ProtocolError);
  // Measured-mode aged delay is stimulus-dependent: not servable.
  AgedDelayRequest areq = sample_aged_delay();
  areq.mode = StressMode::measured;
  EXPECT_THROW(decode_aged_delay_request(encode_request(areq)),
               ProtocolError);
  areq = sample_aged_delay();
  areq.years = -1.0;
  EXPECT_THROW(decode_aged_delay_request(encode_request(areq)),
               ProtocolError);
}

// --- FrameReader ------------------------------------------------------------

TEST(FrameReader, ReassemblesByteByByte) {
  const Frame a{MsgType::ping, 7, 0, {}};
  const Frame b{MsgType::characterize, 8, 0xfeedfacecafef00dull,
                encode_request(sample_characterize())};
  const std::string stream = encode_frame(a) + encode_frame(b);
  FrameReader reader;
  std::vector<Frame> got;
  for (const char c : stream) {
    reader.feed(&c, 1);
    while (auto frame = reader.next()) got.push_back(std::move(*frame));
  }
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].type, MsgType::ping);
  EXPECT_EQ(got[0].request_id, 7u);
  EXPECT_EQ(got[0].trace_id, 0u);
  EXPECT_EQ(got[1].type, MsgType::characterize);
  EXPECT_EQ(got[1].trace_id, 0xfeedfacecafef00dull)
      << "trace id not carried through the frame header";
  EXPECT_EQ(got[1].payload, b.payload);
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(FrameReader, CompactsConsumedPrefixOnLongLivedStreams) {
  // A connection streaming back-to-back frames must not accrete answered
  // bytes: whatever the feed/pop interleaving, the internal footprint stays
  // bounded by a few frames, never by the total ever streamed.
  const std::string payload(100, 'p');
  std::size_t frame_size = 0;
  std::size_t max_footprint = 0;
  FrameReader reader;
  std::size_t popped = 0;
  for (std::uint64_t i = 0; i < 500; ++i) {
    // Four frames per burst, split mid-payload so both wait-for-bytes
    // paths (short header, short payload) run alongside mid-buffer pops.
    std::string burst;
    for (std::uint64_t j = 0; j < 4; ++j) {
      burst += encode_frame({MsgType::ping, i * 4 + j, 0, payload});
    }
    frame_size = burst.size() / 4;
    const std::size_t cut = burst.size() / 2 + 7;
    reader.feed(burst.data(), cut);
    while (reader.next().has_value()) ++popped;
    max_footprint = std::max(max_footprint, reader.footprint());
    reader.feed(burst.data() + cut, burst.size() - cut);
    while (reader.next().has_value()) ++popped;
    max_footprint = std::max(max_footprint, reader.footprint());
  }
  EXPECT_EQ(popped, 2000u);
  EXPECT_EQ(reader.buffered(), 0u);
  EXPECT_LE(max_footprint, 8 * frame_size)
      << "consumed prefix retained across a long-lived stream";
}

/// A frame header alone: request id 1, trace id 0.
std::string frame_header(std::uint32_t type, std::uint64_t payload_size) {
  engine::BinWriter w;
  w.u32(kFrameMagic);
  w.u32(type);
  w.u64(1);
  w.u64(0);
  w.u64(payload_size);
  return w.take();
}

/// next() after feeding `bytes` to a fresh reader.
std::optional<Frame> next_after(const std::string& bytes) {
  FrameReader reader;
  reader.feed(bytes.data(), bytes.size());
  return reader.next();
}

TEST(FrameReader, RejectsBadMagicImmediately) {
  EXPECT_THROW(next_after(std::string(64, '\x5a')), ProtocolError);
}

TEST(FrameReader, RejectsHostileLengthPrefixFromHeaderAlone) {
  const auto type = static_cast<std::uint32_t>(MsgType::characterize);
  // Must throw with only the 32 header bytes buffered — i.e. without
  // waiting for (or allocating room for) a payload that never comes.
  EXPECT_THROW(next_after(frame_header(type, 1ull << 60)), ProtocolError);
  // The ceiling is kMaxPayload exactly: at it, the reader waits for bytes.
  EXPECT_FALSE(next_after(frame_header(type, kMaxPayload)).has_value());
  EXPECT_THROW(next_after(frame_header(type, kMaxPayload + 1)), ProtocolError);
}

TEST(FrameReader, RejectsUnknownMessageType) {
  EXPECT_THROW(next_after(frame_header(999, 0)), ProtocolError);
}

TEST(FrameReader, FuzzRandomStreams) {
  // Random byte streams must only ever yield frames or ProtocolError.
  Xorshift rng;
  for (int round = 0; round < 200; ++round) {
    FrameReader reader;
    std::string stream(1 + rng.next() % 200, '\0');
    for (char& c : stream) c = static_cast<char>(rng.next() & 0xff);
    // Occasionally splice a valid header in front so the payload path is
    // exercised too, not just the magic check.
    if (round % 4 == 0) {
      stream = encode_frame({MsgType::ping, rng.next(), 0, {}}) + stream;
    }
    try {
      reader.feed(stream.data(), stream.size());
      while (reader.next().has_value()) {
      }
    } catch (const ProtocolError&) {
    }
  }
}

// --- engine/persist record codecs (store files share the binio substrate) ---

TEST(StoreCodecFuzz, AllRecordCodecsRejectMalformedBytes) {
  const Context ctx;
  const CellLibrary lib = make_nangate45_like();
  const std::uint64_t lib_fp = ctx.store().fingerprint(lib);
  const ComponentSpec spec{ComponentKind::adder, 4, 0, AdderArch::ripple,
                           MultArch::array};

  // The two surface passes cover the payload's aging block with a 1-entry
  // and a 4-entry mechanism list.
  const AgingModel model;
  engine::SurfacePayload sp;
  sp.lib_fp = lib_fp;
  sp.params = model.params();
  sp.min_precision = 3;
  sp.precision_step = 1;
  sp.scenarios = {{StressMode::worst, 10.0}};
  CharacterizerOptions copt;
  copt.min_precision = 3;
  const ComponentCharacterizer ch(ctx, lib, model, copt);
  sp.surface = ch.characterize(spec, sp.scenarios);
  fuzz_codec<std::runtime_error>(
      engine::encode_surface_payload(sp),
      [](const std::string& b) { return engine::decode_surface_payload(b); },
      "surface record", fuzz_rounds(150));
  AgingParams multi;
  multi.mechanisms = {MechanismKind::bti, MechanismKind::hci,
                      MechanismKind::em, MechanismKind::tddb};
  engine::SurfacePayload msp = sp;
  msp.params = multi;
  fuzz_codec<std::runtime_error>(
      engine::encode_surface_payload(msp),
      [](const std::string& b) { return engine::decode_surface_payload(b); },
      "surface record (4 mechanisms)", fuzz_rounds(150));

  // Round-trip sanity on the aging block: the mechanism set and every
  // per-mechanism block survive encode/decode exactly.
  const engine::SurfacePayload rt =
      engine::decode_surface_payload(engine::encode_surface_payload(msp));
  EXPECT_EQ(rt.params.mechanisms, multi.mechanisms);
  EXPECT_EQ(rt.params.bti.a_pmos, multi.bti.a_pmos);
  EXPECT_EQ(rt.params.hci.a_hci, multi.hci.a_hci);
  EXPECT_EQ(rt.params.em.eta_ref_years, multi.em.eta_ref_years);
  EXPECT_EQ(rt.params.tddb.voltage_exponent, multi.tddb.voltage_exponent);
}

}  // namespace
}  // namespace aapx::service
