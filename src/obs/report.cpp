#include "obs/report.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "obs/metrics.hpp"

namespace aapx::obs {
namespace {

bool is_num_field(const JsonValue& ev, const char* key) {
  const JsonValue* v = ev.find(key);
  return v != nullptr && v->is_number();
}

bool is_str_field(const JsonValue& ev, const char* key) {
  const JsonValue* v = ev.find(key);
  return v != nullptr && v->is_string();
}

}  // namespace

std::vector<std::string> validate_trace(const JsonValue& doc) {
  std::vector<std::string> errors;
  if (!doc.is_object()) {
    errors.push_back("trace: top level is not an object");
    return errors;
  }
  const JsonValue* events = doc.find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    errors.push_back("trace: missing traceEvents array");
    return errors;
  }
  // Per-tid stack of open span names for balance checking.
  std::map<double, std::vector<std::string>> stacks;
  for (std::size_t i = 0; i < events->array.size(); ++i) {
    const JsonValue& ev = events->array[i];
    const std::string at = "trace event " + std::to_string(i);
    if (!ev.is_object()) {
      errors.push_back(at + ": not an object");
      continue;
    }
    if (!is_str_field(ev, "ph") || !is_str_field(ev, "name")) {
      errors.push_back(at + ": missing ph/name");
      continue;
    }
    if (!is_num_field(ev, "pid") || !is_num_field(ev, "tid")) {
      errors.push_back(at + ": missing pid/tid");
      continue;
    }
    const std::string ph = ev.find("ph")->string;
    if (ph == "M") continue;  // metadata
    if (ph != "B" && ph != "E") {
      errors.push_back(at + ": unexpected ph '" + ph + "'");
      continue;
    }
    if (!is_num_field(ev, "ts")) {
      errors.push_back(at + ": B/E event without ts");
      continue;
    }
    const double tid = ev.find("tid")->number;
    const std::string& name = ev.find("name")->string;
    auto& stack = stacks[tid];
    if (ph == "B") {
      stack.push_back(name);
    } else {
      if (stack.empty()) {
        errors.push_back(at + ": E '" + name + "' with no open span");
      } else if (stack.back() != name) {
        errors.push_back(at + ": E '" + name + "' but open span is '" +
                         stack.back() + "'");
        stack.pop_back();
      } else {
        stack.pop_back();
      }
    }
  }
  for (const auto& [tid, stack] : stacks) {
    for (const std::string& name : stack) {
      errors.push_back("trace: unclosed span '" + name + "' on tid " +
                       std::to_string(static_cast<long>(tid)));
    }
  }
  return errors;
}

TraceSummary summarize_trace(const JsonValue& doc) {
  TraceSummary summary;
  const JsonValue* events =
      doc.is_object() ? doc.find("traceEvents") : nullptr;
  if (events == nullptr || !events->is_array()) return summary;

  struct Open {
    std::string name;
    double ts = 0.0;
  };
  std::map<double, std::vector<Open>> stacks;
  std::map<std::string, SpanStat> stats;
  std::set<double> tids;

  for (const JsonValue& ev : events->array) {
    if (!ev.is_object()) continue;
    const JsonValue* ph = ev.find("ph");
    if (ph == nullptr || !ph->is_string() || ph->string == "M") continue;
    const JsonValue* name = ev.find("name");
    const JsonValue* ts = ev.find("ts");
    const JsonValue* tid = ev.find("tid");
    if (name == nullptr || ts == nullptr || tid == nullptr) continue;
    ++summary.events;
    auto& stack = stacks[tid->number];
    if (ph->string == "B") {
      stack.push_back({name->string, ts->number});
      tids.insert(tid->number);
    } else if (ph->string == "E" && !stack.empty() &&
               stack.back().name == name->string) {
      const double dur = ts->number - stack.back().ts;
      stack.pop_back();
      SpanStat& s = stats[name->string];
      s.name = name->string;
      ++s.count;
      s.incl_us += dur;
      s.max_us = std::max(s.max_us, dur);
      summary.wall_us = std::max(summary.wall_us, ts->number);
    }
  }
  summary.threads = tids.size();
  summary.spans.reserve(stats.size());
  for (auto& [name, stat] : stats) summary.spans.push_back(std::move(stat));
  std::sort(summary.spans.begin(), summary.spans.end(),
            [](const SpanStat& a, const SpanStat& b) {
              if (a.incl_us != b.incl_us) return a.incl_us > b.incl_us;
              return a.name < b.name;
            });
  return summary;
}

std::vector<JsonValue> parse_jsonl(std::istream& is,
                                   std::vector<std::string>* errors) {
  std::vector<JsonValue> records;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    std::string error;
    std::optional<JsonValue> v = json_parse(line, &error);
    if (!v) {
      if (errors != nullptr) {
        errors->push_back("line " + std::to_string(lineno) + ": " + error);
      }
      continue;
    }
    records.push_back(std::move(*v));
  }
  return records;
}

namespace {

/// Required fields per known record type: (field, must_be_string).
struct FieldSpec {
  const char* name;
  bool is_string;
};

const std::map<std::string, std::vector<FieldSpec>>& known_types() {
  static const std::map<std::string, std::vector<FieldSpec>> types = {
      {"manifest", {{"schema", true}}},
      {"campaign_start",
       {{"component", true},
        {"mode", true},
        {"epochs", false},
        {"lifetime_years", false},
        {"constraint_ps", false}}},
      {"epoch",
       {{"epoch", false},
        {"years", false},
        {"precision", false},
        {"vectors", false},
        {"errors", false}}},
      {"control_event",
       {{"epoch", false},
        {"years", false},
        {"sensor_years", false},
        {"trigger", true},
        {"outcome", true},
        {"from_precision", false},
        {"to_precision", false}}},
      {"campaign_end",
       {{"total_errors", false},
        {"total_vectors", false},
        {"final_precision", false},
        {"converged_clean", false}}},
      {"sweep_start",
       {{"component", true}, {"points", false}, {"scenarios", false}}},
      {"sweep_point",
       {{"component", true}, {"precision", false}, {"fresh_ps", false}}},
      {"sta_query", {{"kind", true}, {"gates", false}, {"max_delay_ps", false}}},
      // Service-layer records (aapx serve per-request logs).
      {"request", {{"msg", true}, {"request_id", false}}},
      {"response", {{"msg", true}, {"request_id", false}}},
      {"cancelled", {{"where", true}, {"reason", true}}},
  };
  return types;
}

}  // namespace

std::vector<std::string> validate_log_record(const JsonValue& record) {
  std::vector<std::string> errors;
  if (!record.is_object()) {
    errors.push_back("record is not an object");
    return errors;
  }
  const JsonValue* type = record.find("type");
  if (type == nullptr || !type->is_string()) {
    errors.push_back("record has no string 'type'");
    return errors;
  }
  const auto it = known_types().find(type->string);
  if (it == known_types().end()) return errors;  // open schema
  for (const FieldSpec& spec : it->second) {
    const JsonValue* v = record.find(spec.name);
    if (v == nullptr) {
      errors.push_back(type->string + ": missing field '" + spec.name + "'");
    } else if (spec.is_string ? !v->is_string()
                              : !(v->is_number() || v->is_bool())) {
      errors.push_back(type->string + ": field '" + spec.name +
                       "' has wrong type");
    }
  }
  return errors;
}

LogSummary summarize_log(const std::vector<JsonValue>& records) {
  LogSummary summary;
  for (const JsonValue& record : records) {
    if (!record.is_object()) continue;
    const std::string type = record.str_or("type", "<untyped>");
    auto it = std::find_if(summary.type_counts.begin(),
                           summary.type_counts.end(),
                           [&](const auto& tc) { return tc.first == type; });
    if (it == summary.type_counts.end()) {
      summary.type_counts.emplace_back(type, 1);
    } else {
      ++it->second;
    }
    if (type == "control_event") {
      DecisionRow row;
      row.epoch = static_cast<int>(record.num_or("epoch", 0));
      row.years = record.num_or("years", 0.0);
      row.sensor_years = record.num_or("sensor_years", 0.0);
      row.trigger = record.str_or("trigger", "?");
      row.outcome = record.str_or("outcome", "?");
      row.from_precision = static_cast<int>(record.num_or("from_precision", 0));
      row.to_precision = static_cast<int>(record.num_or("to_precision", 0));
      row.sta_delay_ps = record.num_or("verified_sta_delay_ps", 0.0);
      summary.decisions.push_back(std::move(row));
    }
  }
  return summary;
}

std::vector<CacheRate> cache_rates_from_metrics(const JsonValue& doc) {
  std::vector<CacheRate> rates;
  const JsonValue* counters =
      doc.is_object() ? doc.find("counters") : nullptr;
  if (counters == nullptr || !counters->is_object()) return rates;
  std::map<std::string, CacheRate> by_name;
  for (const auto& [name, value] : counters->object) {
    if (!value.is_number()) continue;
    const auto strip = [&](const char* suffix) -> std::string {
      const std::string_view sv(suffix);
      if (name.size() > sv.size() &&
          name.compare(name.size() - sv.size(), sv.size(), sv) == 0) {
        return name.substr(0, name.size() - sv.size());
      }
      return {};
    };
    if (const std::string base = strip("_hits"); !base.empty()) {
      by_name[base].name = base;
      by_name[base].hits = static_cast<std::uint64_t>(value.number);
    } else if (const std::string base2 = strip("_misses"); !base2.empty()) {
      by_name[base2].name = base2;
      by_name[base2].misses = static_cast<std::uint64_t>(value.number);
    }
  }
  for (auto& [name, rate] : by_name) rates.push_back(std::move(rate));
  return rates;
}

std::vector<AgingCounterRow> aging_counters_from_metrics(
    const JsonValue& doc) {
  std::vector<AgingCounterRow> rows;
  const JsonValue* counters =
      doc.is_object() ? doc.find("counters") : nullptr;
  if (counters == nullptr || !counters->is_object()) return rows;
  std::map<std::string, std::uint64_t> by_name;
  for (const auto& [name, value] : counters->object) {
    if (!value.is_number()) continue;
    if (name.rfind("aging.", 0) != 0) continue;
    by_name[name] = static_cast<std::uint64_t>(value.number);
  }
  for (const auto& [name, count] : by_name) rows.push_back({name, count});
  return rows;
}

std::vector<HistogramRow> histograms_from_metrics(const JsonValue& doc) {
  std::vector<HistogramRow> rows;
  const JsonValue* hists =
      doc.is_object() ? doc.find("histograms") : nullptr;
  if (hists == nullptr || !hists->is_object()) return rows;
  for (const auto& [name, h] : hists->object) {
    if (!h.is_object()) continue;
    HistogramSample sample;
    sample.count = static_cast<std::uint64_t>(h.num_or("count", 0.0));
    if (sample.count == 0) continue;
    sample.sum = h.num_or("sum", 0.0);
    sample.min = h.num_or("min", 0.0);
    sample.max = h.num_or("max", 0.0);
    if (const JsonValue* buckets = h.find("buckets");
        buckets != nullptr && buckets->is_array()) {
      for (const JsonValue& b : buckets->array) {
        if (!b.is_array() || b.array.size() != 2 || !b.array[0].is_number() ||
            !b.array[1].is_number()) {
          continue;
        }
        sample.buckets.emplace_back(
            static_cast<int>(b.array[0].number),
            static_cast<std::uint64_t>(b.array[1].number));
      }
    }
    HistogramRow row;
    row.name = name;
    row.count = sample.count;
    row.sum = sample.sum;
    row.min = sample.min;
    row.max = sample.max;
    row.p50 = histogram_quantile(sample, 0.50);
    row.p95 = histogram_quantile(sample, 0.95);
    row.p99 = histogram_quantile(sample, 0.99);
    rows.push_back(std::move(row));
  }
  return rows;
}

ServiceLogSummary summarize_service_log(const std::vector<JsonValue>& records) {
  ServiceLogSummary summary;
  const auto bump = [](std::vector<std::pair<std::string, std::uint64_t>>& v,
                       const std::string& key) {
    const auto it = std::find_if(
        v.begin(), v.end(), [&](const auto& e) { return e.first == key; });
    if (it == v.end()) {
      v.emplace_back(key, 1);
    } else {
      ++it->second;
    }
  };
  for (const JsonValue& record : records) {
    if (!record.is_object()) continue;
    const std::string type = record.str_or("type", "");
    if (type == "request") {
      ++summary.requests;
      bump(summary.ops, record.str_or("msg", "<unknown>"));
    } else if (type == "response") {
      bump(summary.outcomes, record.str_or("msg", "<unknown>"));
    } else if (type == "cancelled") {
      ++summary.cancelled;
      bump(summary.outcomes, "cancelled");
    }
  }
  return summary;
}

namespace {

void flatten_into(const JsonValue& v, const std::string& prefix,
                  std::vector<std::pair<std::string, double>>& out) {
  if (v.is_number()) {
    out.emplace_back(prefix, v.number);
  } else if (v.is_object()) {
    for (const auto& [key, child] : v.object) {
      flatten_into(child, prefix.empty() ? key : prefix + "." + key, out);
    }
  }
  // Arrays (histogram bucket lists) are positional, not metrics: skipped.
}

}  // namespace

std::vector<std::pair<std::string, double>> flatten_numeric(
    const JsonValue& doc) {
  std::vector<std::pair<std::string, double>> out;
  flatten_into(doc, "", out);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<MetricDelta> diff_numeric(const JsonValue& a, const JsonValue& b) {
  const auto fa = flatten_numeric(a);
  const auto fb = flatten_numeric(b);
  std::vector<MetricDelta> out;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < fa.size() || j < fb.size()) {
    MetricDelta d;
    const bool take_a =
        j >= fb.size() || (i < fa.size() && fa[i].first <= fb[j].first);
    const bool take_b =
        i >= fa.size() || (j < fb.size() && fb[j].first <= fa[i].first);
    d.name = take_a ? fa[i].first : fb[j].first;
    if (take_a) {
      d.in_a = true;
      d.a = fa[i++].second;
    }
    if (take_b) {
      d.in_b = true;
      d.b = fb[j++].second;
    }
    out.push_back(std::move(d));
  }
  return out;
}

}  // namespace aapx::obs
