// Offline analysis of the instrumentation artifacts: schema validation and
// summarization of Chrome trace files, JSONL run logs and metrics snapshots.
// Consumed by the `aapx report` subcommand and by the trace_schema tests;
// returns plain data so callers own the presentation.
#pragma once

#include <cstdint>
#include <istream>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace aapx::obs {

// --- trace files -----------------------------------------------------------

/// Structural validation of a Chrome trace-event document as this layer
/// emits it: object with a traceEvents array; every event an object with
/// string "ph"/"name" and numeric "pid"/"tid" (plus numeric "ts" on B/E);
/// per-tid B/E events balanced in stack (LIFO, matching names) order.
/// Returns one message per violation; empty = valid.
std::vector<std::string> validate_trace(const JsonValue& doc);

/// Aggregated statistics of one span name.
struct SpanStat {
  std::string name;
  std::uint64_t count = 0;
  double incl_us = 0.0;  ///< summed inclusive time
  double max_us = 0.0;   ///< longest single span
};

struct TraceSummary {
  std::vector<SpanStat> spans;  ///< sorted by inclusive time, descending
  std::size_t events = 0;       ///< B/E events (metadata excluded)
  std::size_t threads = 0;      ///< distinct tids with at least one span
  double wall_us = 0.0;         ///< max E timestamp seen
};

/// Summarizes a (valid) trace; unbalanced remnants are skipped, not fatal.
TraceSummary summarize_trace(const JsonValue& doc);

// --- JSONL run logs --------------------------------------------------------

/// Reads one record per line. Blank lines are skipped; parse failures are
/// reported into `errors` (line-numbered) and omitted from the result.
std::vector<JsonValue> parse_jsonl(std::istream& is,
                                   std::vector<std::string>* errors);

/// Validates one run-log record: must be an object with a string "type";
/// known types must carry their required fields with the right JSON types
/// (unknown types are allowed — the schema is open). Empty = valid.
std::vector<std::string> validate_log_record(const JsonValue& record);

/// One row of the controller decision timeline (type == "control_event").
struct DecisionRow {
  int epoch = 0;
  double years = 0.0;
  double sensor_years = 0.0;
  std::string trigger;
  std::string outcome;
  int from_precision = 0;
  int to_precision = 0;
  double sta_delay_ps = 0.0;
};

struct LogSummary {
  /// (type, count) in first-appearance order.
  std::vector<std::pair<std::string, std::uint64_t>> type_counts;
  std::vector<DecisionRow> decisions;
};

LogSummary summarize_log(const std::vector<JsonValue>& records);

// --- metrics snapshots -----------------------------------------------------

/// Hit/miss pair derived from counters named "<name>_hits"/"<name>_misses".
struct CacheRate {
  std::string name;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;

  double rate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) / static_cast<double>(total);
  }
};

/// Extracts every *_hits/*_misses counter pair from a metrics JSON document
/// (as MetricsRegistry::to_json emits), sorted by name.
std::vector<CacheRate> cache_rates_from_metrics(const JsonValue& doc);

/// One aging-engine counter (the aging.* namespace: per-mechanism
/// drift/hazard evaluation counts, lifetime Monte-Carlo dies, controller
/// failover decisions).
struct AgingCounterRow {
  std::string name;
  std::uint64_t value = 0;
};

/// Extracts every aging.* counter from a metrics JSON document,
/// name-ordered. Empty for runs under the default BTI-only model — those
/// register no aging.* counters, which is what keeps their snapshots
/// byte-identical to the pre-mechanism engine.
std::vector<AgingCounterRow> aging_counters_from_metrics(const JsonValue& doc);

/// One histogram from a metrics JSON document, with the exact aggregates
/// (count/sum/min/max travel losslessly through the snapshot) and the
/// bucket-interpolated quantiles.
struct HistogramRow {
  std::string name;
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;

  double mean() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
};

/// Extracts every histogram from a metrics JSON document (as
/// MetricsRegistry::to_json emits), name-ordered. Histograms with a zero
/// count are skipped.
std::vector<HistogramRow> histograms_from_metrics(const JsonValue& doc);

// --- service run-log directories -------------------------------------------

/// Aggregate view over `aapx serve --log-dir` per-request run logs
/// (req_<seq>.jsonl files, concatenated into one record stream).
struct ServiceLogSummary {
  std::uint64_t requests = 0;   ///< "request" records seen
  std::uint64_t cancelled = 0;  ///< "cancelled" records seen
  /// Request counts by op ("characterize", ...), first-appearance order.
  std::vector<std::pair<std::string, std::uint64_t>> ops;
  /// Response counts by response msg ("ok_surface", "error", ...), plus one
  /// "cancelled" entry when any request was cancelled.
  std::vector<std::pair<std::string, std::uint64_t>> outcomes;
};
ServiceLogSummary summarize_service_log(const std::vector<JsonValue>& records);

// --- snapshot diffing -------------------------------------------------------

/// One metric's value in two artifacts being diffed. `in_a`/`in_b` mark
/// presence: a metric present on only one side diffs as appeared/vanished
/// rather than as a delta from zero.
struct MetricDelta {
  std::string name;
  double a = 0.0;
  double b = 0.0;
  bool in_a = false;
  bool in_b = false;

  double delta() const { return b - a; }
  /// Relative change in percent; 0 when the base is 0 or a side is missing.
  double pct() const {
    return (!in_a || !in_b || a == 0.0) ? 0.0 : (b - a) / a * 100.0;
  }
};

/// Flattens every numeric leaf of a JSON document into ("dotted.path",
/// value) pairs, name-ordered. Arrays are skipped (histogram bucket lists
/// are positional, not metrics). Works on metrics snapshots and
/// BENCH_*.json files alike.
std::vector<std::pair<std::string, double>> flatten_numeric(
    const JsonValue& doc);

/// Name-joined diff of two flattened documents; metrics present on either
/// side appear exactly once, name-ordered.
std::vector<MetricDelta> diff_numeric(const JsonValue& a, const JsonValue& b);

}  // namespace aapx::obs
