#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <stdexcept>

#include "obs/json.hpp"
#include "util/parallel.hpp"

namespace aapx::obs {
namespace {

/// The registry is process-global; each test starts and ends from zeroed
/// values so ordering cannot leak counts between tests (handles survive).
class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override { metrics().reset(); }
  void TearDown() override { metrics().reset(); }
};

TEST_F(MetricsTest, CounterAccumulatesAndResets) {
  Counter& c = metrics().counter("test.counter");
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  metrics().reset();
  EXPECT_EQ(c.value(), 0u);
  // Same name returns the same object — the idiomatic static-handle pattern.
  EXPECT_EQ(&metrics().counter("test.counter"), &c);
}

TEST_F(MetricsTest, GaugeTracksValueAndMax) {
  Gauge& g = metrics().gauge("test.gauge");
  g.set(3.0);
  g.set(1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.0);
  EXPECT_DOUBLE_EQ(g.max(), 3.0);
  g.update_max(10.0);
  EXPECT_DOUBLE_EQ(g.max(), 10.0);
  g.update_max(2.0);  // never lowers
  EXPECT_DOUBLE_EQ(g.max(), 10.0);
}

TEST_F(MetricsTest, HistogramBucketsByPowerOfTwo) {
  Histogram& h = metrics().histogram("test.hist");
  h.observe(0.5);   // bucket 0: v < 1
  h.observe(1.0);   // bucket 1: [1, 2)
  h.observe(3.0);   // bucket 2: [2, 4)
  h.observe(3.9);   // bucket 2
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 8.4);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(2), 2u);
  EXPECT_DOUBLE_EQ(Histogram::bucket_floor(0), 0.0);
  EXPECT_DOUBLE_EQ(Histogram::bucket_floor(1), 1.0);
  EXPECT_DOUBLE_EQ(Histogram::bucket_floor(3), 4.0);
}

TEST_F(MetricsTest, NameCollisionAcrossKindsThrows) {
  metrics().counter("test.collision");
  EXPECT_THROW(metrics().gauge("test.collision"), std::logic_error);
  EXPECT_THROW(metrics().histogram("test.collision"), std::logic_error);
}

TEST_F(MetricsTest, SnapshotAndJsonAgree) {
  metrics().counter("test.a").add(5);
  metrics().gauge("test.b").update_max(2.5);
  metrics().histogram("test.c").observe(7.0);
  const MetricsSnapshot snap = metrics().snapshot();
  bool saw_counter = false;
  for (const auto& [name, v] : snap.counters) {
    if (name == "test.a") {
      saw_counter = true;
      EXPECT_EQ(v, 5u);
    }
  }
  EXPECT_TRUE(saw_counter);

  const auto doc = json_parse(metrics().to_json());
  ASSERT_TRUE(doc.has_value());
  const JsonValue* counters = doc->find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_DOUBLE_EQ(counters->num_or("test.a", 0), 5.0);
  const JsonValue* gauge = doc->find("gauges")->find("test.b");
  ASSERT_NE(gauge, nullptr);
  EXPECT_DOUBLE_EQ(gauge->num_or("max", 0), 2.5);
  const JsonValue* hist = doc->find("histograms")->find("test.c");
  ASSERT_NE(hist, nullptr);
  EXPECT_DOUBLE_EQ(hist->num_or("count", 0), 1.0);

  std::ostringstream os;
  metrics().write_json(os);
  EXPECT_EQ(os.str(), metrics().to_json() + "\n");
}

// Satellite: registry under parallel_for workers. Counts must be exact (the
// relaxed fetch_add still totals correctly) and TSan-clean when the suite is
// built with -DAAPX_SANITIZE=thread.
TEST_F(MetricsTest, CountersAreExactUnderParallelWorkers) {
  constexpr std::size_t n = 20'000;
  Counter& hits = metrics().counter("test.parallel_hits");
  Gauge& peak = metrics().gauge("test.parallel_peak");
  Histogram& sizes = metrics().histogram("test.parallel_sizes");
  parallel_for(n, [&](std::size_t i) {
    hits.add();
    peak.update_max(static_cast<double>(i));
    sizes.observe(static_cast<double>(i % 8));
  }, 4);
  EXPECT_EQ(hits.value(), n);
  EXPECT_DOUBLE_EQ(peak.max(), static_cast<double>(n - 1));
  EXPECT_EQ(sizes.count(), n);
}

TEST_F(MetricsTest, HistogramTracksExactMinAndMax) {
  Histogram& h = metrics().histogram("test.minmax");
  // Untouched: accessors report 0, not the infinity sentinels.
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  h.observe(7.25);
  EXPECT_DOUBLE_EQ(h.min(), 7.25);
  EXPECT_DOUBLE_EQ(h.max(), 7.25);
  h.observe(3.5);
  h.observe(900.0);
  EXPECT_DOUBLE_EQ(h.min(), 3.5);
  EXPECT_DOUBLE_EQ(h.max(), 900.0);
  const MetricsSnapshot snap = metrics().snapshot();
  bool seen = false;
  for (const auto& [name, sample] : snap.histograms) {
    if (name != "test.minmax") continue;
    seen = true;
    EXPECT_DOUBLE_EQ(sample.min, 3.5);
    EXPECT_DOUBLE_EQ(sample.max, 900.0);
    EXPECT_DOUBLE_EQ(sample.sum, 910.75);
  }
  EXPECT_TRUE(seen);
  metrics().reset();
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  h.observe(2.0);  // post-reset the sentinels must rearm
  EXPECT_DOUBLE_EQ(h.min(), 2.0);
  EXPECT_DOUBLE_EQ(h.max(), 2.0);
}

TEST_F(MetricsTest, MinMaxAreExactUnderParallelWorkers) {
  Histogram& h = metrics().histogram("test.minmax_par");
  constexpr std::size_t n = 20'000;
  parallel_for(n, [&](std::size_t i) {
    h.observe(static_cast<double>(i) + 1.0);
  }, 4);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), static_cast<double>(n));
  EXPECT_EQ(h.count(), n);
}

TEST_F(MetricsTest, HistogramQuantileInterpolatesWithinBuckets) {
  Histogram& h = metrics().histogram("test.quant");
  for (int i = 1; i <= 100; ++i) h.observe(static_cast<double>(i));
  const MetricsSnapshot snap = metrics().snapshot();
  const HistogramSample* sample = nullptr;
  for (const auto& [name, s] : snap.histograms) {
    if (name == "test.quant") sample = &s;
  }
  ASSERT_NE(sample, nullptr);
  // Exact at the edges, clamped to the true extremes.
  EXPECT_DOUBLE_EQ(histogram_quantile(*sample, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(histogram_quantile(*sample, 1.0), 100.0);
  // Interior quantiles are bucket-interpolated: right bucket, right order,
  // and within the log2 bucket's bounds of the true value.
  const double p50 = histogram_quantile(*sample, 0.50);
  const double p95 = histogram_quantile(*sample, 0.95);
  EXPECT_GE(p50, 32.0);   // true p50 = 50, bucket [32, 64)
  EXPECT_LT(p50, 64.0);
  EXPECT_GE(p95, 64.0);   // true p95 = 95, bucket [64, 100]
  EXPECT_LE(p95, 100.0);
  EXPECT_LT(p50, p95);
  // Empty histogram: all quantiles are 0.
  const HistogramSample empty;
  EXPECT_DOUBLE_EQ(histogram_quantile(empty, 0.5), 0.0);
}

TEST_F(MetricsTest, HandleRegistrationIsSafeFromWorkers) {
  // First-use registration takes the registry lock; hammer it from a pool.
  parallel_for(256, [&](std::size_t i) {
    metrics().counter("test.reg." + std::to_string(i % 7)).add();
  }, 4);
  std::uint64_t total = 0;
  for (int k = 0; k < 7; ++k) {
    total += metrics().counter("test.reg." + std::to_string(k)).value();
  }
  EXPECT_EQ(total, 256u);
}

}  // namespace
}  // namespace aapx::obs
