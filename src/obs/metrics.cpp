#include "obs/metrics.hpp"

#include <cmath>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "obs/json.hpp"

namespace aapx::obs {

void Gauge::set(double v) noexcept {
  value_.store(v, std::memory_order_relaxed);
  update_max(v);
}

void Gauge::update_max(double v) noexcept {
  double cur = max_.load(std::memory_order_relaxed);
  while (v > cur &&
         !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
  double val = value_.load(std::memory_order_relaxed);
  while (v > val &&
         !value_.compare_exchange_weak(val, v, std::memory_order_relaxed)) {
  }
}

void Gauge::reset() noexcept {
  value_.store(0.0, std::memory_order_relaxed);
  max_.store(0.0, std::memory_order_relaxed);
}

namespace {

int bucket_index(double v) {
  if (!(v >= 1.0)) return 0;  // v < 1 and NaN both land in bucket 0
  const int e = std::ilogb(v) + 1;
  return e >= Histogram::kBuckets ? Histogram::kBuckets - 1 : e;
}

}  // namespace

void Histogram::observe(double v) noexcept {
  buckets_[static_cast<std::size_t>(bucket_index(v))].fetch_add(
      1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
  double lo = min_.load(std::memory_order_relaxed);
  while (v < lo &&
         !min_.compare_exchange_weak(lo, v, std::memory_order_relaxed)) {
  }
  double hi = max_.load(std::memory_order_relaxed);
  while (v > hi &&
         !max_.compare_exchange_weak(hi, v, std::memory_order_relaxed)) {
  }
}

double Histogram::min() const noexcept {
  const double m = min_.load(std::memory_order_relaxed);
  return std::isinf(m) ? 0.0 : m;
}

double Histogram::max() const noexcept {
  const double m = max_.load(std::memory_order_relaxed);
  return std::isinf(m) ? 0.0 : m;
}

std::uint64_t Histogram::count() const noexcept {
  std::uint64_t total = 0;
  for (const auto& b : buckets_) total += b.load(std::memory_order_relaxed);
  return total;
}

double Histogram::bucket_floor(int i) noexcept {
  return i <= 0 ? 0.0 : std::ldexp(1.0, i - 1);
}

void Histogram::reset() noexcept {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
}

HistogramSample Histogram::sample() const {
  HistogramSample s;
  s.count = count();
  s.sum = sum();
  s.min = min();
  s.max = max();
  for (int i = 0; i < kBuckets; ++i) {
    const std::uint64_t n = bucket(i);
    if (n > 0) s.buckets.emplace_back(i, n);
  }
  return s;
}

double histogram_quantile(const HistogramSample& sample, double q) {
  if (sample.count == 0) return 0.0;
  if (q <= 0.0) return sample.min;
  if (q >= 1.0) return sample.max;
  // Rank of the target observation (1-based, nearest-rank with interpolation
  // inside the owning bucket).
  const double rank = q * static_cast<double>(sample.count);
  double seen = 0.0;
  for (const auto& [index, n] : sample.buckets) {
    const double next = seen + static_cast<double>(n);
    if (rank <= next) {
      const double lo = Histogram::bucket_floor(index);
      const double hi = index + 1 >= Histogram::kBuckets
                            ? sample.max
                            : Histogram::bucket_floor(index + 1);
      const double frac = (rank - seen) / static_cast<double>(n);
      double est = lo + (hi - lo) * frac;
      if (est < sample.min) est = sample.min;
      if (est > sample.max) est = sample.max;
      return est;
    }
    seen = next;
  }
  return sample.max;
}

MetricsRegistry& metrics() {
  static MetricsRegistry* registry = new MetricsRegistry();  // leaked on exit
  return *registry;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (gauges_.count(name) || histograms_.count(name)) {
    throw std::logic_error("metric '" + name + "' already has another kind");
  }
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (counters_.count(name) || histograms_.count(name)) {
    throw std::logic_error("metric '" + name + "' already has another kind");
  }
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (counters_.count(name) || gauges_.count(name)) {
    throw std::logic_error("metric '" + name + "' already has another kind");
  }
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot snap;
  for (const auto& [name, c] : counters_) {
    snap.counters.emplace_back(name, c->value());
  }
  for (const auto& [name, g] : gauges_) {
    snap.gauges.emplace_back(name, std::make_pair(g->value(), g->max()));
  }
  for (const auto& [name, h] : histograms_) {
    snap.histograms.emplace_back(name, h->sample());
  }
  return snap;
}

std::string MetricsRegistry::to_json() const {
  const MetricsSnapshot snap = snapshot();
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : snap.counters) {
    if (!first) out += ',';
    first = false;
    out += '"' + json_escape(name) + "\":" + std::to_string(value);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, vm] : snap.gauges) {
    if (!first) out += ',';
    first = false;
    out += '"' + json_escape(name) + "\":{\"value\":" + json_num(vm.first) +
           ",\"max\":" + json_num(vm.second) + "}";
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : snap.histograms) {
    if (!first) out += ',';
    first = false;
    out += '"' + json_escape(name) +
           "\":{\"count\":" + std::to_string(h.count) +
           ",\"sum\":" + json_num(h.sum) + ",\"min\":" + json_num(h.min) +
           ",\"max\":" + json_num(h.max) + ",\"buckets\":[";
    bool bfirst = true;
    for (const auto& [index, n] : h.buckets) {
      if (!bfirst) out += ',';
      bfirst = false;
      out += '[';
      out += std::to_string(index);
      out += ',';
      out += std::to_string(n);
      out += ']';
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

void MetricsRegistry::write_json(std::ostream& os) const {
  os << to_json() << "\n";
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

}  // namespace aapx::obs
