// Persistence layer tests: the save -> fresh process -> open round trip
// must reproduce bit-identical artifacts, and every way a store file can be
// damaged (truncation, flipped payload byte, wrong format version, foreign
// build fingerprint) must degrade to a cold miss with results identical to a
// run that never had a store — never a wrong hit, never a crash.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "aging/aging_model.hpp"
#include "approx/characterization.hpp"
#include "cell/library.hpp"
#include "engine/context.hpp"
#include "engine/binio.hpp"
#include "engine/design_store.hpp"
#include "engine/persist.hpp"
#include "obs/metrics.hpp"
#include "sta/sta.hpp"
#include "synth/components.hpp"
#include "util/hash.hpp"

namespace aapx {
namespace {

ComponentSpec adder8() {
  return {ComponentKind::adder, 8, 0, AdderArch::ripple, MultArch::array};
}

std::string read_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.is_open()) << path;
  std::string bytes((std::istreambuf_iterator<char>(is)),
                    std::istreambuf_iterator<char>());
  return bytes;
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(os.is_open()) << path;
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

class PersistTest : public ::testing::Test {
 protected:
  PersistTest() : lib_(make_nangate45_like()) {
    // Per-test file: ctest runs each case as its own process, possibly in
    // parallel, so a shared name would let two cases clobber one store.
    path_ = ::testing::TempDir() + "persist_test_store_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".aapx";
    std::remove(path_.c_str());
  }

  /// Warms a store with one netlist, one aged library, fresh + aged delays
  /// and one characterization surface, then saves it to path_ (the surface
  /// alone: no other family is saved). Returns the values the cold
  /// computation produced.
  struct Warmed {
    std::size_t gates = 0;
    double fresh = 0.0;
    double aged = 0.0;
    ComponentCharacterization surface;
  };
  Warmed warm_and_save() {
    Context ctx;
    const Warmed w = query(ctx);
    EXPECT_TRUE(ctx.store().save(path_));
    EXPECT_EQ(ctx.store().stats().persist_hits, 0u);
    return w;
  }

  /// The queries every test replays: one netlist, fresh + aged delays and
  /// one characterization surface, through `ctx`'s store.
  Warmed query(const Context& ctx) {
    Warmed w;
    engine::DesignStore& store = ctx.store();
    w.gates = store.netlist(lib_, adder8()).num_gates();
    w.fresh = store.aged_sta_delay(lib_, adder8(), model_, StressMode::worst,
                                   0.0, sta_);
    w.aged = store.aged_sta_delay(lib_, adder8(), model_, StressMode::worst,
                                  10.0, sta_);
    w.surface = store.surface(lib_, model_, adder8(), scenarios_, 4, 1, sta_,
                              [&] { return sweep_directly(ctx); });
    return w;
  }

  /// A minimal hand-rolled sweep so the test does not depend on the core
  /// characterizer (engine-layer test): per precision, fresh + aged delay
  /// via the store, aged under `model`.
  ComponentCharacterization sweep_directly(const Context& ctx,
                                           int min_precision = 4) {
    return sweep_directly(ctx, model_, min_precision);
  }
  ComponentCharacterization sweep_directly(const Context& ctx,
                                           const AgingModel& model,
                                           int min_precision) {
    ComponentCharacterization c;
    c.base = adder8();
    c.scenarios = scenarios_;
    for (int k = 8; k >= min_precision; --k) {
      ComponentSpec spec = adder8();
      spec.truncated_bits = 8 - k;
      PrecisionPoint p;
      p.precision = k;
      p.fresh_delay = ctx.store().aged_sta_delay(
          lib_, spec, model, StressMode::worst, 0.0, sta_);
      p.gates = ctx.store().netlist(lib_, spec).num_gates();
      for (const AgingScenario& s : scenarios_) {
        p.aged_delay.push_back(ctx.store().aged_sta_delay(
            lib_, spec, model, s.mode, s.years, sta_));
      }
      c.points.push_back(std::move(p));
    }
    return c;
  }

  /// Re-runs the same queries on a fresh Context (optionally opening the
  /// store file first) and returns what it produced.
  Warmed replay(bool open_store, engine::DesignStore::Stats* stats = nullptr) {
    Context ctx;
    if (open_store) ctx.store().open(path_);
    const Warmed w = query(ctx);
    if (stats != nullptr) *stats = ctx.store().stats();
    return w;
  }

  /// Two surfaces of adder8() that differ in their precision floor, queried
  /// through `ctx`'s store and returned serialized, so equal strings mean
  /// bit-identical results.
  std::string two_surfaces(const Context& ctx) {
    std::string out;
    for (const int min_precision : {4, 5}) {
      const ComponentCharacterization& c = ctx.store().surface(
          lib_, model_, adder8(), scenarios_, min_precision, 1, sta_,
          [&] { return sweep_directly(ctx, min_precision); });
      out += engine::encode_surface_payload(
          {0, model_.params(), sta_, min_precision, 1, scenarios_, c});
    }
    return out;
  }

  static void expect_bit_identical(const Warmed& a, const Warmed& b) {
    EXPECT_EQ(a.gates, b.gates);
    // Bit-identical, not approximately-equal: the persistence layer must
    // reproduce the double exactly or reject the record.
    EXPECT_EQ(a.fresh, b.fresh);
    EXPECT_EQ(a.aged, b.aged);
    ASSERT_EQ(a.surface.points.size(), b.surface.points.size());
    for (std::size_t i = 0; i < a.surface.points.size(); ++i) {
      const PrecisionPoint& pa = a.surface.points[i];
      const PrecisionPoint& pb = b.surface.points[i];
      EXPECT_EQ(pa.precision, pb.precision);
      EXPECT_EQ(pa.fresh_delay, pb.fresh_delay);
      EXPECT_EQ(pa.gates, pb.gates);
      ASSERT_EQ(pa.aged_delay.size(), pb.aged_delay.size());
      for (std::size_t s = 0; s < pa.aged_delay.size(); ++s) {
        EXPECT_EQ(pa.aged_delay[s], pb.aged_delay[s]);
      }
    }
  }

  CellLibrary lib_;
  AgingModel model_;
  StaOptions sta_;
  std::vector<AgingScenario> scenarios_ = {{StressMode::worst, 1.0},
                                           {StressMode::worst, 10.0}};
  std::string path_;
};

TEST_F(PersistTest, RoundTripReproducesBitIdenticalArtifacts) {
  const Warmed cold = warm_and_save();

  engine::DesignStore::Stats stats;
  const Warmed warm = replay(/*open_store=*/true, &stats);
  expect_bit_identical(cold, warm);

  // The surface was served from the file: one persist hit, so no sweep ran.
  // The intermediates queried directly are recomputed (no file holds them):
  // one netlist, one aged library and the fresh and aged delays, each a
  // single miss.
  EXPECT_EQ(stats.persist_hits, 1u);
  EXPECT_EQ(stats.surface_hits, 1u);
  EXPECT_EQ(stats.surface_misses, 0u);
  EXPECT_EQ(stats.netlist_misses, 1u);
  EXPECT_EQ(stats.library_misses, 1u);
  EXPECT_EQ(stats.delay_misses, 2u);
  EXPECT_EQ(stats.misses(), 4u);
}

TEST_F(PersistTest, SaveIsByteDeterministic) {
  {
    Context ctx;
    two_surfaces(ctx);
    ASSERT_TRUE(ctx.store().save(path_));
  }
  const std::string first = read_bytes(path_);
  ASSERT_EQ(engine::load_store_file(path_).records.size(), 2u);

  // Re-saving the identical logical content from a fresh warm process must
  // produce the identical file, byte for byte: the re-encoded surface
  // reproduces the bytes it was decoded from.
  const std::string second_path = path_ + ".resave";
  {
    Context ctx;
    ctx.store().open(path_);
    // Materialize one surface record; the other stays staged.
    ctx.store().surface(lib_, model_, adder8(), scenarios_, 4, 1, sta_,
                        [&] { return sweep_directly(ctx); });
    EXPECT_EQ(ctx.store().stats().persist_hits, 1u);
    ASSERT_TRUE(ctx.store().save(second_path));
  }
  EXPECT_EQ(first, read_bytes(second_path));
  std::remove(second_path.c_str());
}

TEST_F(PersistTest, MissingFileIsCleanColdStart) {
  Context ctx;
  EXPECT_TRUE(ctx.store().open(path_ + ".does-not-exist"));
  engine::DesignStore::Stats stats;
  const Warmed cold = replay(/*open_store=*/false, &stats);
  EXPECT_GT(cold.gates, 0u);
  EXPECT_EQ(stats.persist_hits, 0u);
}

// A path that opens but is no regular file must not size the read from a
// bogus length (a directory reports one near 2^63 on some file systems): it
// is a rejected store, one warning, never a throw.
TEST_F(PersistTest, DirectoryPathIsRejectedWithAWarning) {
  const std::string dir = path_ + ".dir";
  std::filesystem::create_directory(dir);
  const engine::StoreFileData data = engine::load_store_file(dir);
  EXPECT_EQ(data.bytes_read, 0u);
  EXPECT_FALSE(data.header_ok);
  EXPECT_TRUE(data.records.empty());
  EXPECT_EQ(data.warnings.size(), 1u);
  std::filesystem::remove(dir);
}

TEST_F(PersistTest, TruncatedFileDegradesToCold) {
  const Warmed cold = warm_and_save();
  const std::string bytes = read_bytes(path_);
  // Cut the file mid-record: everything after the cut is unusable, and the
  // half-record at the cut must be dropped, not misread.
  write_bytes(path_, bytes.substr(0, bytes.size() / 2));

  engine::DesignStore::Stats stats;
  const Warmed recovered = replay(/*open_store=*/true, &stats);
  expect_bit_identical(cold, recovered);
  EXPECT_GT(stats.misses(), 0u);  // some records were gone -> recomputed
}

TEST_F(PersistTest, TruncatedHeaderDegradesToCold) {
  const Warmed cold = warm_and_save();
  const std::string bytes = read_bytes(path_);
  write_bytes(path_, bytes.substr(0, engine::kHeaderSize - 4));

  engine::DesignStore::Stats stats;
  const Warmed recovered = replay(/*open_store=*/true, &stats);
  expect_bit_identical(cold, recovered);
  EXPECT_EQ(stats.persist_hits, 0u);  // nothing loadable at all
}

TEST_F(PersistTest, FlippedPayloadByteDropsOnlyThatRecord) {
  // Two surface records, so one survives the damage done to the other.
  std::string cold;
  {
    Context ctx;
    cold = two_surfaces(ctx);
    ASSERT_TRUE(ctx.store().save(path_));
  }
  std::string bytes = read_bytes(path_);
  // Flip one byte inside the first record's payload. The first record
  // starts right after the header; its payload starts 28 bytes later
  // (kind u32 + key u64 + size u64 + checksum u64).
  const std::size_t target = engine::kHeaderSize + 28 + 5;
  ASSERT_LT(target, bytes.size());
  bytes[target] = static_cast<char>(bytes[target] ^ 0x40);
  write_bytes(path_, bytes);

  // Exactly the damaged record is dropped at load; the other survives.
  const engine::StoreFileData data = engine::load_store_file(path_);
  EXPECT_TRUE(data.header_ok);
  EXPECT_EQ(data.records_dropped, 1u);
  EXPECT_EQ(data.records.size(), 1u);
  ASSERT_EQ(data.warnings.size(), 1u);
  EXPECT_NE(data.warnings[0].find("checksum mismatch"), std::string::npos);

  Context ctx;
  ctx.store().open(path_);
  EXPECT_EQ(cold, two_surfaces(ctx));
  const engine::DesignStore::Stats stats = ctx.store().stats();
  EXPECT_EQ(stats.persist_hits, 1u);  // the surviving record is still served
  EXPECT_EQ(stats.surface_misses, 1u);
}

TEST_F(PersistTest, WrongFormatVersionRejectsWholeFile) {
  // A future format; version 4, whose files carried aged-library and STA
  // delay records; version 3, whose files carried netlist records; version
  // 2, whose aged-library records carried every cell's factor grids; and
  // version 1, the layout before the fixed aging block.
  for (const std::uint32_t version :
       {engine::kStoreFormatVersion + 1, 4u, 3u, 2u, 1u}) {
    const Warmed cold = warm_and_save();
    std::string bytes = read_bytes(path_);
    for (std::size_t i = 0; i < 4; ++i) {
      bytes[engine::kHeaderVersionOffset + i] =
          static_cast<char>((version >> (8 * i)) & 0xff);
    }
    write_bytes(path_, bytes);

    const engine::StoreFileData data = engine::load_store_file(path_);
    EXPECT_FALSE(data.header_ok) << "version " << version;
    EXPECT_TRUE(data.records.empty());
    ASSERT_EQ(data.warnings.size(), 1u) << "version " << version;
    EXPECT_NE(data.warnings[0].find("format version"), std::string::npos);

    engine::DesignStore::Stats stats;
    Warmed recovered;
    ASSERT_NO_THROW(recovered = replay(/*open_store=*/true, &stats));
    expect_bit_identical(cold, recovered);
    EXPECT_EQ(stats.persist_hits, 0u);  // no record was even staged
  }
}

// A version-4 file as that format framed it: the header, one kind-2 (aged
// library key material) and one kind-3 (STA delay) record, written by hand.
// It opens cold with exactly one warning, and the run recomputes everything
// with the cold results.
TEST_F(PersistTest, Version4FileOpensColdWithOneWarning) {
  engine::BinWriter w;
  w.bytes(std::string_view(engine::kStoreMagic, sizeof engine::kStoreMagic));
  w.u32(4);
  w.u64(engine::build_fingerprint());  // the version check comes first
  w.u64(2);
  const std::pair<std::uint32_t, std::string> records[] = {
      {2u, std::string(260, '\x41')}, {3u, std::string(32, '\x44')}};
  for (const auto& [kind, payload] : records) {
    w.u32(kind);
    w.u64(0x414c303031ULL + kind);
    w.u64(payload.size());
    w.u64(fnv1a(payload));
    w.bytes(payload);
  }
  write_bytes(path_, w.take());

  engine::DesignStore::Stats cold_stats;
  const Warmed cold = replay(/*open_store=*/false, &cold_stats);
  Context ctx;
  testing::internal::CaptureStderr();
  const bool clean = ctx.store().open(path_);
  const Warmed recomputed = query(ctx);
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_FALSE(clean);
  EXPECT_EQ(std::count(err.begin(), err.end(), '\n'), 1) << err;
  EXPECT_NE(err.find("format version 4 (expected 5)"), std::string::npos)
      << err;
  expect_bit_identical(cold, recomputed);
  const engine::DesignStore::Stats stats = ctx.store().stats();
  // Every query counted exactly as on a Context that opened no file.
  EXPECT_EQ(stats.persist_hits, 0u);
  EXPECT_EQ(stats.hits(), cold_stats.hits());
  EXPECT_EQ(stats.misses(), cold_stats.misses());
  EXPECT_EQ(stats.surface_misses, 1u);
  EXPECT_EQ(
      ctx.metrics().counter("engine.store.persist.records_loaded").value(),
      0u);
}

TEST_F(PersistTest, ForeignBuildFingerprintRejectsWholeFile) {
  const Warmed cold = warm_and_save();
  std::string bytes = read_bytes(path_);
  bytes[engine::kHeaderBuildFpOffset] =
      static_cast<char>(bytes[engine::kHeaderBuildFpOffset] ^ 0xff);
  write_bytes(path_, bytes);

  engine::DesignStore::Stats stats;
  const Warmed recovered = replay(/*open_store=*/true, &stats);
  expect_bit_identical(cold, recovered);
  EXPECT_EQ(stats.persist_hits, 0u);
}

TEST_F(PersistTest, DamagedOpenReportsFalseAndWarns) {
  warm_and_save();
  std::string bytes = read_bytes(path_);
  bytes[engine::kHeaderVersionOffset] =
      static_cast<char>(bytes[engine::kHeaderVersionOffset] + 1);
  write_bytes(path_, bytes);

  Context ctx;
  testing::internal::CaptureStderr();
  EXPECT_FALSE(ctx.store().open(path_));
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("format version"), std::string::npos) << err;
}

// Record kind 5 is retired, and kinds 1-3 (netlists, aged libraries, STA
// delays) are never written since format 5 (see RecordKind in
// engine/persist.hpp). A current-format file that carries any of them must
// still open: each such record is dropped and counted, and the surface is
// served from disk exactly as before.
TEST_F(PersistTest, RetiredRecordKindIsDroppedRestIsServed) {
  const Warmed cold = warm_and_save();
  engine::StoreFileData data = engine::load_store_file(path_);
  ASSERT_TRUE(data.header_ok);
  std::vector<engine::RawRecord> records = std::move(data.records);
  std::set<engine::RecordKind> kinds;
  for (const engine::RawRecord& r : records) kinds.insert(r.kind);
  EXPECT_EQ(kinds,
            (std::set<engine::RecordKind>{engine::RecordKind::surface}));
  const std::size_t live = records.size();
  const std::uint32_t retired[] = {1, 2, 3, 5};
  for (const std::uint32_t kind : retired) {
    records.push_back({static_cast<engine::RecordKind>(kind),
                       0x5352303030ULL + kind, std::string(64, '\x5a')});
  }
  ASSERT_GT(engine::write_store_file(path_, records), 0u);

  Context ctx;
  bool clean = true;
  testing::internal::CaptureStderr();
  ASSERT_NO_THROW(clean = ctx.store().open(path_));
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_FALSE(clean);  // the dropped records are reported, not hidden
  for (const std::uint32_t kind : retired) {
    EXPECT_NE(err.find("unknown record kind " + std::to_string(kind)),
              std::string::npos)
        << err;
  }
  obs::MetricsRegistry& m = ctx.metrics();
  EXPECT_EQ(m.counter("engine.store.persist.records_dropped").value(), 4u);
  EXPECT_EQ(m.counter("engine.store.persist.records_loaded").value(), live);

  Warmed warm;
  ASSERT_NO_THROW(warm = query(ctx));
  expect_bit_identical(cold, warm);
  const engine::DesignStore::Stats stats = ctx.store().stats();
  // The surface is served from disk; the intermediates are recomputed.
  EXPECT_EQ(stats.persist_hits, 1u);
  EXPECT_EQ(stats.surface_hits, 1u);
  EXPECT_EQ(stats.surface_misses, 0u);
  EXPECT_EQ(m.counter("engine.store.persist.records_dropped").value(), 4u);
}

// A well-formed record (valid checksum) whose enums name no real value is
// corrupt, not a surface: the spec decoder range-checks ComponentKind and the
// surface decoder each scenario's StressMode, so a library query never
// serves a component kind 99 or a stress mode 7.
TEST_F(PersistTest, OutOfRangeEnumSurfaceRecordIsDropped) {
  warm_and_save();
  const engine::StoreFileData saved = engine::load_store_file(path_);
  ASSERT_TRUE(saved.header_ok);
  const auto corrupt = [&](const auto& edit) {
    std::vector<engine::RawRecord> records = saved.records;
    int surfaces = 0;
    for (engine::RawRecord& r : records) {
      if (r.kind != engine::RecordKind::surface) continue;
      engine::SurfacePayload p = engine::decode_surface_payload(r.payload);
      edit(p);
      r.payload = engine::encode_surface_payload(p);
      ++surfaces;
    }
    ASSERT_EQ(surfaces, 1);
    ASSERT_GT(engine::write_store_file(path_, records), 0u);
    Context ctx;
    ASSERT_TRUE(ctx.store().open(path_));  // checksums hold: all staged
    EXPECT_TRUE(ctx.store().surface_snapshot().empty());
  };
  corrupt([](engine::SurfacePayload& p) {
    p.surface.base.kind = static_cast<ComponentKind>(99);
  });
  corrupt([](engine::SurfacePayload& p) {
    p.scenarios[0].mode = static_cast<StressMode>(7);
  });
}

TEST_F(PersistTest, StaleRecordIsColdMissNotWrongHit) {
  warm_and_save();

  // A query the file does not answer — the same surface under a hotter BTI
  // parameter set — must recompute honestly: the staged record (keyed by
  // the nominal model's content) may not be served for it.
  AgingParams hot = model_.params();
  hot.bti.a_pmos *= 2.0;
  const AgingModel hot_model{hot};
  const auto hot_surface = [&](const Context& ctx) {
    return ctx.store().surface(
        lib_, hot_model, adder8(), scenarios_, 4, 1, sta_,
        [&] { return sweep_directly(ctx, hot_model, 4); });
  };

  Context probe_ctx;
  const Warmed honest{0, 0.0, 0.0, hot_surface(probe_ctx)};

  Context ctx;
  ctx.store().open(path_);
  const Warmed recomputed{0, 0.0, 0.0, hot_surface(ctx)};
  expect_bit_identical(honest, recomputed);
  // No surface record keyed to the nominal model may be served.
  EXPECT_EQ(ctx.store().stats().surface_hits, 0u);
  EXPECT_EQ(ctx.store().stats().surface_misses, 1u);
  EXPECT_EQ(ctx.store().stats().persist_hits, 0u);
}

// A file that holds both queried surface keys, but under each other's
// payloads, reaches the staged-record key-material check itself. Each
// swapped record carries the other query's key material, so both queries
// must count as misses (never hits), drop their record as stale and
// reproduce the cold bytes.
TEST_F(PersistTest, SwappedSurfaceRecordsAreStaleColdMisses) {
  std::string cold;
  {
    Context ctx;
    cold = two_surfaces(ctx);
    ASSERT_TRUE(ctx.store().save(path_));
  }
  engine::StoreFileData data = engine::load_store_file(path_);
  ASSERT_EQ(data.records.size(), 2u);
  ASSERT_NE(data.records[0].payload, data.records[1].payload);
  std::swap(data.records[0].payload, data.records[1].payload);
  ASSERT_GT(engine::write_store_file(path_, data.records), 0u);

  Context ctx;
  ASSERT_TRUE(ctx.store().open(path_));  // well-formed: nothing dropped yet
  obs::Counter& dropped =
      ctx.metrics().counter("engine.store.persist.records_dropped");
  const std::uint64_t dropped_at_open = dropped.value();
  testing::internal::CaptureStderr();
  const std::string warm = two_surfaces(ctx);
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(cold, warm);
  EXPECT_EQ(dropped.value() - dropped_at_open, 2u);
  const engine::DesignStore::Stats stats = ctx.store().stats();
  EXPECT_EQ(stats.surface_hits, 0u);
  EXPECT_EQ(stats.surface_misses, 2u);
  EXPECT_NE(err.find("stale key material"), std::string::npos) << err;
}

}  // namespace
}  // namespace aapx
