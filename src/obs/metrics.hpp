// Process-wide metrics registry: counters, gauges and log2-bucketed
// histograms, addressable by name from anywhere in the flow.
//
// Overhead discipline — the registry is always on (there is no enable flag)
// because the steady-state cost is designed to be unmeasurable:
//
//  * hot paths hold a reference obtained once (`static obs::Counter& c =
//    obs::metrics().counter("x");`) so the name lookup happens one time,
//  * Counter::add is a single relaxed atomic fetch_add,
//  * per-object statistics (TimedSim events, PackedFuncSim lanes) accumulate
//    in plain members and are flushed into the registry once, at object
//    destruction — never per event.
//
// Values never feed back into any analysis, so instrumentation cannot change
// results; reset() zeroes values but keeps every handle valid (node-stable
// map of unique_ptrs).
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace aapx::obs {

/// Monotonic event count. Relaxed increments: totals are exact, ordering
/// against other metrics is not promised (and not needed).
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written value plus a running maximum (CAS loop, contention-free in
/// practice: gauges are written at coarse grains).
class Gauge {
 public:
  void set(double v) noexcept;
  /// Raises the running maximum (and the value) to at least `v`.
  void update_max(double v) noexcept;
  double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  double max() const noexcept { return max_.load(std::memory_order_relaxed); }
  void reset() noexcept;

 private:
  std::atomic<double> value_{0.0};
  std::atomic<double> max_{0.0};
};

struct HistogramSample;

/// Histogram over non-negative measures with power-of-two buckets: bucket 0
/// counts v < 1, bucket i (i >= 1) counts v in [2^(i-1), 2^i). Alongside the
/// buckets it tracks the exact sum, minimum and maximum (relaxed atomics /
/// contention-free CAS, same overhead discipline as the buckets), so the
/// exact mean is always derivable and the extremes are not quantized.
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  void observe(double v) noexcept;
  std::uint64_t count() const noexcept;
  double sum() const noexcept { return sum_.load(std::memory_order_relaxed); }
  /// Smallest / largest value observed; 0 when the histogram is empty.
  double min() const noexcept;
  double max() const noexcept;
  std::uint64_t bucket(int i) const noexcept {
    return buckets_[static_cast<std::size_t>(i)].load(
        std::memory_order_relaxed);
  }
  /// Lower edge of bucket i (0 for bucket 0).
  static double bucket_floor(int i) noexcept;
  void reset() noexcept;
  /// Copy of the current state, non-empty buckets only.
  HistogramSample sample() const;

 private:
  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
  std::atomic<double> sum_{0.0};
  /// min_/max_ start at +/-inf so the first observe() always wins the CAS
  /// race — the accessors translate the untouched sentinels back to 0.
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

struct HistogramSample {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  ///< exact smallest observation (0 when empty)
  double max = 0.0;  ///< exact largest observation (0 when empty)
  /// (bucket index, count) for non-empty buckets only.
  std::vector<std::pair<int, std::uint64_t>> buckets;
};

/// Quantile estimate (q in [0, 1]) from the log2 buckets: the bucket holding
/// the q-th observation is found exactly, the position inside it is linearly
/// interpolated, and the result is clamped to the exact [min, max] — so p0
/// and p100 are exact and every estimate is off by at most one bucket width.
double histogram_quantile(const HistogramSample& sample, double q);

/// Point-in-time copy of every registered metric, in name order.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  /// name -> (value, max)
  std::vector<std::pair<std::string, std::pair<double, double>>> gauges;
  std::vector<std::pair<std::string, HistogramSample>> histograms;
};

class MetricsRegistry {
 public:
  /// Registries are constructible: each aapx::Context owns a private one
  /// unless it is handed one, so concurrent tenants never share counters.
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Returns the metric with this name, creating it on first use. The
  /// returned reference stays valid for the process lifetime (including
  /// across reset()). Creating the same name as two different kinds throws.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  MetricsSnapshot snapshot() const;
  /// One JSON object: {"counters":{...},"gauges":{...},"histograms":{...}}.
  std::string to_json() const;
  void write_json(std::ostream& os) const;
  /// Zeroes every metric value; handles remain valid. Test isolation only.
  void reset();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// The process registry: where layers without a Context count (gatesim,
/// the thread pool, aging lifetime, an Sta with no Context). The CLI and
/// bench root Contexts use it as their registry too.
MetricsRegistry& metrics();

}  // namespace aapx::obs
