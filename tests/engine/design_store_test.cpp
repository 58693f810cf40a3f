// Unit tests for the content-addressed DesignStore: identity of returned
// references, content (not object) addressing, hit/miss accounting, the
// fresh-delay-shared-across-models keying rule, and the measured-mode guard.
#include "engine/design_store.hpp"

#include <gtest/gtest.h>
#include <malloc.h>

#include <stdexcept>
#include <string_view>
#include <thread>
#include <vector>

#include "aging/aging_model.hpp"
#include "cell/library.hpp"
#include "engine/context.hpp"
#include "engine/key.hpp"
#include "service/protocol.hpp"
#include "sta/sta.hpp"
#include "synth/components.hpp"

namespace aapx {
namespace {

ComponentSpec adder8() {
  return {ComponentKind::adder, 8, 0, AdderArch::ripple, MultArch::array};
}
ComponentSpec adder8_trunc2() {
  return {ComponentKind::adder, 8, 2, AdderArch::ripple, MultArch::array};
}

class DesignStoreTest : public ::testing::Test {
 protected:
  DesignStoreTest() : lib_(make_nangate45_like()) {}

  Context ctx_;
  CellLibrary lib_;
};

TEST_F(DesignStoreTest, NetlistIsBuiltOnceAndServedByReference) {
  engine::DesignStore& store = ctx_.store();
  const Netlist& first = store.netlist(lib_, adder8());
  const Netlist& second = store.netlist(lib_, adder8());
  EXPECT_EQ(&first, &second);  // one entry, stable reference

  const auto stats = store.stats();
  EXPECT_EQ(stats.netlist_misses, 1u);
  EXPECT_EQ(stats.netlist_hits, 1u);

  // The cached artifact is the same netlist the synth layer produces.
  const Netlist direct = make_component(ctx_, lib_, adder8());
  EXPECT_EQ(first.num_gates(), direct.num_gates());
}

TEST_F(DesignStoreTest, DistinctSpecsGetDistinctEntries) {
  engine::DesignStore& store = ctx_.store();
  const Netlist& full = store.netlist(lib_, adder8());
  const Netlist& trunc = store.netlist(lib_, adder8_trunc2());
  EXPECT_NE(&full, &trunc);
  EXPECT_EQ(store.stats().netlist_misses, 2u);
  EXPECT_EQ(store.stats().netlist_hits, 0u);
  EXPECT_EQ(store.entries(), 2u);
}

TEST_F(DesignStoreTest, AgedLibraryIsContentAddressed) {
  engine::DesignStore& store = ctx_.store();
  // Two distinct AgingModel objects with equal parameters must share one
  // entry: the key is the parameter content, not the object identity.
  const AgingModel a;
  const AgingModel b;
  const DegradationAwareLibrary& first = store.aged_library(lib_, a, 10.0);
  const DegradationAwareLibrary& second = store.aged_library(lib_, b, 10.0);
  EXPECT_EQ(&first, &second);
  EXPECT_EQ(store.stats().library_misses, 1u);
  EXPECT_EQ(store.stats().library_hits, 1u);

  // A different lifetime is a different artifact.
  const DegradationAwareLibrary& other = store.aged_library(lib_, a, 1.0);
  EXPECT_NE(&first, &other);

  // A different parameter set is a different artifact.
  AgingParams hot = a.params();
  hot.bti.a_pmos *= 2.0;
  const DegradationAwareLibrary& stressed =
      store.aged_library(lib_, AgingModel(hot), 10.0);
  EXPECT_NE(&first, &stressed);
  EXPECT_EQ(store.stats().library_misses, 3u);
}

TEST_F(DesignStoreTest, DelayCacheMatchesDirectSta) {
  engine::DesignStore& store = ctx_.store();
  const AgingModel model;
  const StaOptions sta;

  const double fresh =
      store.aged_sta_delay(lib_, adder8(), model, StressMode::worst, 0.0, sta);
  const double aged =
      store.aged_sta_delay(lib_, adder8(), model, StressMode::worst, 10.0, sta);
  EXPECT_GT(aged, fresh);  // aging only slows gates down

  // Both queries must agree with an uncached STA run on the same netlist.
  const Netlist nl = make_component(ctx_, lib_, adder8());
  const Sta direct(nl, sta);
  EXPECT_DOUBLE_EQ(fresh, direct.run_fresh().max_delay);
  const DegradationAwareLibrary aged_lib(lib_, model, 10.0);
  const StressProfile stress =
      StressProfile::uniform(StressMode::worst, nl.num_gates());
  EXPECT_DOUBLE_EQ(aged, direct.run_aged(aged_lib, stress).max_delay);

  // Re-querying serves from cache.
  const auto before = store.stats();
  EXPECT_DOUBLE_EQ(fresh, store.aged_sta_delay(lib_, adder8(), model,
                                               StressMode::worst, 0.0, sta));
  EXPECT_EQ(store.stats().delay_hits, before.delay_hits + 1);
  EXPECT_EQ(store.stats().delay_misses, before.delay_misses);
}

TEST_F(DesignStoreTest, MemoizedStaMatchesFreshStaPerQuery) {
  engine::DesignStore& store = ctx_.store();
  const AgingModel model;
  StaOptions heavy;
  heavy.primary_output_load = 12.0;
  const Netlist& nl = store.netlist(lib_, adder8());
  // Two passes over 9 distinct scenarios (fresh + 2 modes x 4 lifetimes;
  // the balanced fresh query shares the worst one's entry) per options set.
  for (const StaOptions& opts : {StaOptions{}, heavy}) {
    for (int pass = 0; pass < 2; ++pass) {
      for (const StressMode mode : {StressMode::worst, StressMode::balanced}) {
        for (const double years : {0.0, 0.5, 1.0, 3.0, 10.0}) {
          const double cached =
              store.aged_sta_delay(lib_, adder8(), model, mode, years, opts);
          const Sta direct(nl, opts);
          const double expected =
              years == 0.0
                  ? direct.run_fresh().max_delay
                  : direct
                        .run_aged(DegradationAwareLibrary(lib_, model, years),
                                  StressProfile::uniform(mode, nl.num_gates()))
                        .max_delay;
          EXPECT_EQ(cached, expected)
              << to_string(mode) << " " << years << "y pass " << pass;
        }
      }
    }
  }
  // The memoized Sta is keyed by the options: the same spec and scenario
  // under a heavier PO load is slower.
  EXPECT_LT(store.aged_sta_delay(lib_, adder8(), model, StressMode::worst,
                                 10.0, StaOptions{}),
            store.aged_sta_delay(lib_, adder8(), model, StressMode::worst,
                                 10.0, heavy));
  // Counts as without the memo: one miss per distinct (scenario, options),
  // a hit for every repeat.
  EXPECT_EQ(store.stats().delay_misses, 18u);
  EXPECT_EQ(store.stats().delay_hits, 24u);
}

TEST_F(DesignStoreTest, ConcurrentMissesShareTheMemoizedSta) {
  engine::DesignStore& store = ctx_.store();
  const AgingModel model;
  const std::vector<double> years = {0.5, 1.0, 2.0, 3.0, 5.0, 10.0};
  const auto query = [&](engine::DesignStore& s, std::size_t i) {
    const StressMode mode = i % 2 == 0 ? StressMode::worst
                                       : StressMode::balanced;
    return s.aged_sta_delay(lib_, adder8(), model, mode, years[i / 2],
                            StaOptions{});
  };
  // Every query is a miss on one netlist, so the threads race to build
  // and then share its one Sta.
  std::vector<double> got(2 * years.size());
  std::vector<std::thread> workers;
  for (std::size_t i = 0; i < got.size(); ++i) {
    workers.emplace_back([&, i] { got[i] = query(store, i); });
  }
  for (std::thread& w : workers) w.join();
  Context serial;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], query(serial.store(), i)) << i;
  }
}

TEST_F(DesignStoreTest, FreshDelayIsSharedAcrossModels) {
  engine::DesignStore& store = ctx_.store();
  // years == 0 excludes the model from the key: a second model's fresh
  // query is a hit on the first model's entry.
  AgingParams hot;
  hot.bti.a_pmos *= 3.0;
  const double d1 = store.aged_sta_delay(lib_, adder8(), AgingModel{},
                                         StressMode::worst, 0.0, StaOptions{});
  const double d2 = store.aged_sta_delay(lib_, adder8(), AgingModel(hot),
                                         StressMode::balanced, 0.0,
                                         StaOptions{});
  EXPECT_DOUBLE_EQ(d1, d2);
  EXPECT_EQ(store.stats().delay_misses, 1u);
  EXPECT_EQ(store.stats().delay_hits, 1u);
}

TEST_F(DesignStoreTest, MeasuredModeIsRejected) {
  EXPECT_THROW(ctx_.store().aged_sta_delay(lib_, adder8(), AgingModel{},
                                           StressMode::measured, 10.0,
                                           StaOptions{}),
               std::invalid_argument);
}

TEST_F(DesignStoreTest, FingerprintIsStablePerLibraryContent) {
  engine::DesignStore& store = ctx_.store();
  const std::uint64_t fp1 = store.fingerprint(lib_);
  const std::uint64_t fp2 = store.fingerprint(lib_);
  EXPECT_EQ(fp1, fp2);  // memoized

  // An equal-content library object fingerprints identically (content, not
  // address), through a second store so neither memo is reused.
  Context other;
  const CellLibrary twin = make_nangate45_like();
  EXPECT_EQ(fp1, other.store().fingerprint(twin));
}

TEST_F(DesignStoreTest, KeyOfEqualValuesAgrees) {
  EXPECT_EQ(engine::key_of(adder8()), engine::key_of(adder8()));
  EXPECT_NE(engine::key_of(adder8()), engine::key_of(adder8_trunc2()));
  EXPECT_EQ(engine::key_of(AgingModel{}), engine::key_of(AgingModel{}));
  AgingParams hot;
  hot.bti.a_nmos *= 2.0;
  EXPECT_NE(engine::key_of(AgingModel{}), engine::key_of(AgingModel(hot)));
}

TEST_F(DesignStoreTest, ContextsDoNotShareEntries) {
  Context other;
  const Netlist& mine = ctx_.store().netlist(lib_, adder8());
  const Netlist& theirs = other.store().netlist(lib_, adder8());
  EXPECT_NE(&mine, &theirs);
  // Each store counted its own (single) miss into its own registry.
  EXPECT_EQ(ctx_.store().stats().netlist_misses, 1u);
  EXPECT_EQ(other.store().stats().netlist_misses, 1u);
  EXPECT_EQ(ctx_.store().stats().netlist_hits, 0u);
}

// Footprint guard: an aged library holds one set of factor rows per
// sensitivity class, about 5 KB, and the store holds it by value. Per-cell
// 11x11 grids took about 156 KB each, so 100 libraries grew the heap by
// about 15.6 MB; this bound catches any return of per-cell storage.
TEST_F(DesignStoreTest, AgedLibrariesStaySmall) {
  if (std::string_view(AAPX_SANITIZE_MODE) != "OFF") {
    GTEST_SKIP() << "mallinfo2 does not see a sanitizer's allocator";
  }
  engine::DesignStore& store = ctx_.store();
  const AgingModel model;
  store.aged_library(lib_, model, 0.05);  // fingerprint and first-use setup
  const std::size_t before = mallinfo2().uordblks;
  for (int k = 1; k <= 100; ++k) {
    store.aged_library(lib_, model, 0.1 * k);
  }
  const std::size_t grown = mallinfo2().uordblks - before;
  EXPECT_EQ(store.stats().library_misses, 101u);
  EXPECT_LT(grown, std::size_t{2} << 20) << grown << " bytes for 100 libraries";
}

TEST_F(DesignStoreTest, SurfaceSnapshotOrderIgnoresInsertionOrder) {
  // Surfaces of one base spec that differ only in scenarios, minimum
  // precision or STA options tie on (kind, width, spec key); the record key
  // breaks the tie. Twenty-four of them share the 16 shards, so some share a
  // shard, whose iteration order follows insertion order.
  struct Sweep {
    std::vector<AgingScenario> scenarios;
    int min_precision;
    StaOptions sta;
  };
  std::vector<Sweep> sweeps;
  for (const double years : {1.0, 3.0, 10.0}) {
    for (const StressMode mode : {StressMode::worst, StressMode::balanced}) {
      for (const double load : {4.0, 8.0}) {
        for (const int min_precision : {4, 6}) {
          StaOptions sta;
          sta.primary_output_load = load;
          sweeps.push_back({{{mode, years}}, min_precision, sta});
        }
      }
    }
  }
  const AgingModel model;
  const auto fill = [&](const Context& ctx, bool reversed) {
    for (std::size_t i = 0; i < sweeps.size(); ++i) {
      const Sweep& s = sweeps[reversed ? sweeps.size() - 1 - i : i];
      const auto build = [&] {
        ComponentCharacterization c;
        c.base = adder8();
        c.scenarios = s.scenarios;
        return c;
      };
      ctx.store().surface(lib_, model, adder8(), s.scenarios, s.min_precision, 1, s.sta, build);
    }
  };
  const Context forward;
  const Context backward;
  fill(forward, false);
  fill(backward, true);
  const std::vector<engine::SurfacePayload> a =
      forward.store().surface_snapshot();
  const std::vector<engine::SurfacePayload> b =
      backward.store().surface_snapshot();
  ASSERT_EQ(a.size(), sweeps.size());
  ASSERT_EQ(b.size(), sweeps.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(engine::encode_surface_payload(a[i]),
              engine::encode_surface_payload(b[i]))
        << i;
  }
  // The library_query response a server sends for this store.
  EXPECT_EQ(service::encode_surfaces_response(a),
            service::encode_surfaces_response(b));
}

}  // namespace
}  // namespace aapx
