#include "engine/design_store.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "engine/context.hpp"
#include "engine/key.hpp"
#include "engine/persist.hpp"
#include "obs/runlog.hpp"
#include "util/hash.hpp"
#include "util/parallel.hpp"

namespace aapx::engine {
namespace {

// Family tags keep the four key spaces disjoint inside one digest space.
constexpr std::uint64_t kTagNetlist = 0x4e4c303031ULL;  // "NL001"
constexpr std::uint64_t kTagLibrary = 0x414c303031ULL;  // "AL001"
constexpr std::uint64_t kTagDelay = 0x4454303031ULL;    // "DT001"
constexpr std::uint64_t kTagSurface = 0x5346303031ULL;  // "SF001"

/// Scenario identity under the surface cache: fresh scenarios of any stress
/// mode are the same query (aging-free timing ignores the mode).
bool scenario_equal(const AgingScenario& a, const AgingScenario& b) {
  if (a.is_fresh() || b.is_fresh()) return a.is_fresh() && b.is_fresh();
  return a.mode == b.mode && a.years == b.years;
}

bool scenarios_equal(const std::vector<AgingScenario>& a,
                     const std::vector<AgingScenario>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!scenario_equal(a[i], b[i])) return false;
  }
  return true;
}

std::uint64_t surface_key(std::uint64_t lib_fp, const AgingParams& params,
                          const ComponentSpec& base,
                          const std::vector<AgingScenario>& scenarios,
                          int min_precision, int precision_step,
                          const StaOptions& sta) {
  Hasher h;
  h.u64(kTagSurface)
      .u64(lib_fp)
      .u64(key_of(params))
      .u64(key_of(base))
      .u64(key_of(sta))
      .i32(min_precision)
      .i32(precision_step)
      .u64(scenarios.size());
  for (const AgingScenario& s : scenarios) h.u64(key_of(s));
  return h.digest();
}

/// Stderr note for a staged disk record that could not be served. Never a
/// run-log record: whether it fires depends on store warmth.
void warn_record_dropped(const char* family, std::uint64_t key,
                         const char* why) {
  std::fprintf(stderr,
               "aapx store: %s record %016llx unusable (%s) — recomputing\n",
               family, static_cast<unsigned long long>(key), why);
}

}  // namespace

DesignStore::DesignStore(const Context& ctx) : ctx_(&ctx) {
  obs::MetricsRegistry& m = ctx.metrics();
  netlist_hits_ = &m.counter("engine.store.netlist_hits");
  netlist_misses_ = &m.counter("engine.store.netlist_misses");
  library_hits_ = &m.counter("engine.store.library_hits");
  library_misses_ = &m.counter("engine.store.library_misses");
  delay_hits_ = &m.counter("engine.store.delay_hits");
  delay_misses_ = &m.counter("engine.store.delay_misses");
  surface_hits_ = &m.counter("engine.store.surface_hits");
  surface_misses_ = &m.counter("engine.store.surface_misses");
  persist_hits_ = &m.counter("engine.store.persist.hits");
  persist_misses_ = &m.counter("engine.store.persist.misses");
  persist_loads_ = &m.counter("engine.store.persist.loads");
  persist_saves_ = &m.counter("engine.store.persist.saves");
  persist_records_loaded_ = &m.counter("engine.store.persist.records_loaded");
  persist_records_dropped_ = &m.counter("engine.store.persist.records_dropped");
  persist_bytes_read_ = &m.counter("engine.store.persist.bytes_read");
  persist_bytes_written_ = &m.counter("engine.store.persist.bytes_written");
}

std::optional<std::string> DesignStore::take_staged(std::uint32_t kind,
                                                    std::uint64_t key) {
  if (!store_attached_.load(std::memory_order_relaxed)) return std::nullopt;
  std::lock_guard<std::mutex> lock(staged_mutex_);
  const auto it = staged_.find({kind, key});
  if (it == staged_.end()) return std::nullopt;
  std::string payload = std::move(it->second);
  staged_.erase(it);
  return payload;
}

void DesignStore::count_persist_miss() {
  if (store_attached_.load(std::memory_order_relaxed)) persist_misses_->add();
}

std::uint64_t DesignStore::fingerprint(const CellLibrary& lib) {
  {
    std::lock_guard<std::mutex> lock(fp_mutex_);
    const auto it = fp_cache_.find(&lib);
    if (it != fp_cache_.end()) return it->second;
  }
  // Content walk outside the lock; a racing duplicate computes the same
  // digest (fingerprinting is pure).
  const std::uint64_t fp = engine::fingerprint(lib);
  std::lock_guard<std::mutex> lock(fp_mutex_);
  fp_cache_.emplace(&lib, fp);
  return fp;
}

const Netlist& DesignStore::netlist(const CellLibrary& lib,
                                    const ComponentSpec& spec) {
  const std::uint64_t fp = fingerprint(lib);
  const std::uint64_t key =
      Hasher{}.u64(kTagNetlist).u64(fp).u64(key_of(spec)).digest();
  Shard<NetlistEntry>& shard = netlists_[shard_of(key)];
  // The build runs under the shard lock: a racing requester of the same
  // netlist waits instead of synthesizing a duplicate, and hit/miss totals
  // stay deterministic at any thread count (one miss per distinct key).
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.entries.find(key);
  if (it != shard.entries.end()) {
    const NetlistEntry& e = *it->second;
    if (e.lib_fp != fp || !(e.spec == spec)) {
      throw std::logic_error("DesignStore: netlist key collision");
    }
    netlist_hits_->add();
    return e.netlist;
  }
  if (auto blob = take_staged(
          static_cast<std::uint32_t>(RecordKind::netlist), key)) {
    try {
      NetlistPayload p = decode_netlist_payload(*blob, lib);
      if (p.lib_fp == fp && p.spec == spec) {
        netlist_hits_->add();
        persist_hits_->add();
        auto entry = std::make_unique<NetlistEntry>(
            NetlistEntry{fp, spec, std::move(p.netlist)});
        it = shard.entries.emplace(key, std::move(entry)).first;
        return it->second->netlist;
      }
      warn_record_dropped("netlist", key, "stale key material");
    } catch (const std::exception& e) {
      warn_record_dropped("netlist", key, e.what());
    }
    persist_records_dropped_->add();
  }
  netlist_misses_->add();
  count_persist_miss();
  auto entry = std::make_unique<NetlistEntry>(
      NetlistEntry{fp, spec, make_component(*ctx_, lib, spec)});
  it = shard.entries.emplace(key, std::move(entry)).first;
  return it->second->netlist;
}

const DegradationAwareLibrary& DesignStore::aged_library(const CellLibrary& lib,
                                                         const AgingModel& model,
                                                         double years) {
  const std::uint64_t fp = fingerprint(lib);
  const std::uint64_t key = Hasher{}
                                .u64(kTagLibrary)
                                .u64(fp)
                                .u64(key_of(model))
                                .f64(years)
                                .digest();
  Shard<LibraryEntry>& shard = libraries_[shard_of(key)];
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.entries.find(key);
  if (it != shard.entries.end()) {
    const LibraryEntry& e = *it->second;
    if (e.lib_fp != fp || e.years != years ||
        key_of(e.params) != key_of(model.params())) {
      throw std::logic_error("DesignStore: library key collision");
    }
    library_hits_->add();
    return *e.library;
  }
  if (auto blob = take_staged(
          static_cast<std::uint32_t>(RecordKind::aged_library), key)) {
    try {
      AgedLibraryPayload p = decode_aged_library_payload(*blob, lib);
      if (p.lib_fp == fp && p.years == years &&
          key_of(p.params) == key_of(model.params())) {
        library_hits_->add();
        persist_hits_->add();
        auto entry = std::make_unique<LibraryEntry>();
        entry->lib_fp = fp;
        entry->params = p.params;
        entry->years = years;
        entry->library =
            std::make_unique<DegradationAwareLibrary>(std::move(p.library));
        it = shard.entries.emplace(key, std::move(entry)).first;
        return *it->second->library;
      }
      warn_record_dropped("aged_library", key, "stale key material");
    } catch (const std::exception& e) {
      warn_record_dropped("aged_library", key, e.what());
    }
    persist_records_dropped_->add();
  }
  library_misses_->add();
  count_persist_miss();
  auto entry = std::make_unique<LibraryEntry>();
  entry->lib_fp = fp;
  entry->params = model.params();
  entry->years = years;
  entry->library = std::make_unique<DegradationAwareLibrary>(lib, model, years);
  it = shard.entries.emplace(key, std::move(entry)).first;
  return *it->second->library;
}

double DesignStore::aged_sta_delay(const CellLibrary& lib,
                                   const ComponentSpec& spec,
                                   const AgingModel& model, StressMode mode,
                                   double years, const StaOptions& sta) {
  if (mode == StressMode::measured) {
    throw std::invalid_argument(
        "DesignStore::aged_sta_delay: measured-mode delays are "
        "stimulus-dependent and not cacheable by spec");
  }
  const std::uint64_t netlist_key =
      Hasher{}.u64(fingerprint(lib)).u64(key_of(spec)).digest();
  // Fresh timing does not depend on the aging model or stress mode; keying
  // it as plain "fresh" lets every model share one entry.
  Hasher scenario;
  if (years <= 0.0) {
    scenario.str("fresh");
  } else {
    scenario.u64(key_of(model)).i32(static_cast<int>(mode)).f64(years);
  }
  const std::uint64_t scenario_key = scenario.u64(key_of(sta)).digest();
  const std::uint64_t key = Hasher{}
                                .u64(kTagDelay)
                                .u64(netlist_key)
                                .u64(scenario_key)
                                .digest();

  Shard<DelayEntry>& shard = delays_[shard_of(key)];
  {
    bool hit = false;
    std::uint64_t gates = 0;
    double delay = 0.0;
    {
      std::lock_guard<std::mutex> lock(shard.mutex);
      const auto it = shard.entries.find(key);
      if (it != shard.entries.end()) {
        const DelayEntry& e = *it->second;
        if (e.netlist_key != netlist_key || e.scenario_key != scenario_key) {
          throw std::logic_error("DesignStore: delay key collision");
        }
        delay_hits_->add();
        hit = true;
        gates = e.gates;
        delay = e.delay;
      } else if (auto blob = take_staged(
                     static_cast<std::uint32_t>(RecordKind::sta_delay), key)) {
        try {
          const StaDelayPayload p = decode_sta_delay_payload(*blob);
          if (p.netlist_key == netlist_key && p.scenario_key == scenario_key) {
            delay_hits_->add();
            persist_hits_->add();
            auto entry = std::make_unique<DelayEntry>();
            entry->netlist_key = netlist_key;
            entry->scenario_key = scenario_key;
            entry->delay = p.delay;
            entry->gates = p.gates;
            shard.entries.emplace(key, std::move(entry));
            hit = true;
            gates = p.gates;
            delay = p.delay;
          } else {
            warn_record_dropped("sta_delay", key, "stale key material");
            persist_records_dropped_->add();
          }
        } catch (const std::exception& e) {
          warn_record_dropped("sta_delay", key, e.what());
          persist_records_dropped_->add();
        }
      }
    }
    if (hit) {
      log_delay_query(years > 0.0, gates, delay);
      return delay;
    }
  }
  delay_misses_->add();
  count_persist_miss();
  double delay;
  std::uint64_t gates;
  {
    // Compute outside the lock — netlist()/aged_library() take their own
    // family locks and an STA run is too long to serialize a shard on. A
    // racing duplicate computes the identical value; first insert wins.
    // The fill runs off the serial spine: whether it executes at all depends
    // on process-wide cache history, so the Sta run must not emit its own
    // sta_query record (log_delay_query below reports the query instead,
    // identically for hits and misses).
    const OffSpineGuard off_spine;
    const Netlist& nl = netlist(lib, spec);
    const Sta sta_engine(nl, sta, ctx_);
    gates = static_cast<std::uint64_t>(nl.num_gates());
    if (years <= 0.0) {
      delay = sta_engine.run_fresh().max_delay;
    } else {
      const DegradationAwareLibrary& aged = aged_library(lib, model, years);
      const StressProfile stress =
          StressProfile::uniform(mode, nl.num_gates());
      delay = sta_engine.run_aged(aged, stress).max_delay;
    }
    auto entry = std::make_unique<DelayEntry>();
    entry->netlist_key = netlist_key;
    entry->scenario_key = scenario_key;
    entry->delay = delay;
    entry->gates = gates;
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.entries.emplace(key, std::move(entry));
  }
  log_delay_query(years > 0.0, gates, delay);
  return delay;
}

const ComponentCharacterization& DesignStore::surface(
    const CellLibrary& lib, const AgingModel& model,
    const ComponentSpec& base,
    const std::vector<AgingScenario>& scenarios, int min_precision,
    int precision_step, const StaOptions& sta,
    const std::function<ComponentCharacterization()>& build) {
  for (const AgingScenario& s : scenarios) {
    if (!s.is_fresh() && s.mode == StressMode::measured) {
      throw std::invalid_argument(
          "DesignStore::surface: measured-mode scenarios are "
          "stimulus-dependent and not cacheable");
    }
  }
  const std::uint64_t fp = fingerprint(lib);
  const std::uint64_t key = surface_key(fp, model.params(), base, scenarios,
                                        min_precision, precision_step, sta);
  Shard<SurfaceEntry>& shard = surfaces_[shard_of(key)];
  // Like netlists, the build runs under the shard lock: surfaces are the
  // most expensive artifact in the store and must never be computed twice.
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.entries.find(key);
  if (it != shard.entries.end()) {
    const SurfaceEntry& e = *it->second;
    if (e.lib_fp != fp || key_of(e.params) != key_of(model.params()) ||
        key_of(e.sta) != key_of(sta) || e.min_precision != min_precision ||
        e.precision_step != precision_step || !(e.surface.base == base) ||
        !scenarios_equal(e.scenarios, scenarios)) {
      throw std::logic_error("DesignStore: surface key collision");
    }
    surface_hits_->add();
    return e.surface;
  }
  if (auto blob = take_staged(
          static_cast<std::uint32_t>(RecordKind::surface), key)) {
    try {
      SurfacePayload p = decode_surface_payload(*blob);
      if (p.lib_fp == fp && key_of(p.params) == key_of(model.params()) &&
          key_of(p.sta) == key_of(sta) && p.min_precision == min_precision &&
          p.precision_step == precision_step && p.surface.base == base &&
          scenarios_equal(p.scenarios, scenarios)) {
        surface_hits_->add();
        persist_hits_->add();
        auto entry = std::make_unique<SurfaceEntry>(
            SurfaceEntry{fp, p.params, p.sta, min_precision, precision_step,
                         std::move(p.scenarios), std::move(p.surface)});
        it = shard.entries.emplace(key, std::move(entry)).first;
        return it->second->surface;
      }
      warn_record_dropped("surface", key, "stale key material");
    } catch (const std::exception& e) {
      warn_record_dropped("surface", key, e.what());
    }
    persist_records_dropped_->add();
  }
  surface_misses_->add();
  count_persist_miss();
  auto entry = std::make_unique<SurfaceEntry>(
      SurfaceEntry{fp, model.params(), sta, min_precision, precision_step,
                   scenarios, build()});
  it = shard.entries.emplace(key, std::move(entry)).first;
  return it->second->surface;
}

bool DesignStore::open(const std::string& path) {
  // A SIGKILL mid-save leaves the write_store_file temp file behind; the
  // rename never happened, so the main file is intact and the temp is
  // garbage. Reclaim it here — open() marks the start of a new attachment,
  // when no save of ours can be in flight yet.
  {
    std::error_code ec;
    std::filesystem::remove(path + ".tmp", ec);
  }
  StoreFileData data = load_store_file(path);
  for (const std::string& w : data.warnings) {
    std::fprintf(stderr, "aapx store: %s\n", w.c_str());
  }
  persist_loads_->add();
  persist_bytes_read_->add(data.bytes_read);
  persist_records_dropped_->add(data.records_dropped);
  persist_records_loaded_->add(data.records.size());
  {
    std::lock_guard<std::mutex> lock(staged_mutex_);
    for (RawRecord& rec : data.records) {
      // Last record wins for duplicate keys; `aapx library merge` warns on
      // genuine conflicts before they ever reach a store file.
      staged_[{static_cast<std::uint32_t>(rec.kind), rec.key}] =
          std::move(rec.payload);
    }
  }
  store_attached_.store(true, std::memory_order_relaxed);
  log_persist("store_load", path);
  return data.warnings.empty();
}

bool DesignStore::save(const std::string& path) const {
  std::vector<RawRecord> records;
  for (const auto& shard : netlists_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (const auto& [key, e] : shard.entries) {
      records.push_back(
          {RecordKind::netlist, key,
           encode_netlist_payload(e->lib_fp, e->spec, e->netlist)});
    }
  }
  for (const auto& shard : libraries_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (const auto& [key, e] : shard.entries) {
      records.push_back({RecordKind::aged_library, key,
                         encode_aged_library_payload(e->lib_fp, e->params,
                                                     e->years, *e->library)});
    }
  }
  for (const auto& shard : delays_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (const auto& [key, e] : shard.entries) {
      records.push_back({RecordKind::sta_delay, key,
                         encode_sta_delay_payload({e->netlist_key,
                                                   e->scenario_key, e->delay,
                                                   e->gates})});
    }
  }
  for (const auto& shard : surfaces_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (const auto& [key, e] : shard.entries) {
      records.push_back(
          {RecordKind::surface, key,
           encode_surface_payload({e->lib_fp, e->params, e->sta,
                                   e->min_precision, e->precision_step,
                                   e->scenarios, e->surface})});
    }
  }
  {
    // Records loaded but never queried this run ride along unchanged, so a
    // warm run never shrinks the store it was given.
    std::lock_guard<std::mutex> lock(staged_mutex_);
    for (const auto& [k, payload] : staged_) {
      records.push_back(
          {static_cast<RecordKind>(k.first), k.second, payload});
    }
  }
  std::sort(records.begin(), records.end(),
            [](const RawRecord& a, const RawRecord& b) {
              if (a.kind != b.kind) return a.kind < b.kind;
              return a.key < b.key;
            });
  const std::uint64_t bytes = write_store_file(path, records);
  if (bytes == 0) {
    std::fprintf(stderr, "aapx store: cannot write '%s'\n", path.c_str());
    return false;
  }
  persist_saves_->add();
  persist_bytes_written_->add(bytes);
  log_persist("store_save", path);
  return true;
}

void DesignStore::log_persist(const char* type, const std::string& path) const {
  obs::RunLog& log = ctx_->runlog();
  if (!log.enabled() || in_parallel_region()) return;
  // Only warmth-invariant fields: record/byte counts would differ between a
  // cold and a warm run of the same command, and the run-log contract is
  // byte-identical output either way (counts live in metrics instead).
  obs::JsonWriter w;
  w.field("path", path)
      .field("format", static_cast<std::uint64_t>(kStoreFormatVersion));
  log.emit(type, w);
}

void DesignStore::log_delay_query(bool aged, std::uint64_t gates,
                                  double delay) const {
  obs::RunLog& log = ctx_->runlog();
  if (!log.enabled() || in_parallel_region()) return;
  obs::JsonWriter w;
  w.field("kind", aged ? "aged" : "fresh")
      .field("gates", gates)
      .field("max_delay_ps", delay);
  log.emit("sta_query", w);
}

std::vector<SurfacePayload> DesignStore::surface_snapshot() const {
  std::vector<SurfacePayload> out;
  for (const auto& shard : surfaces_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (const auto& [key, e] : shard.entries) {
      out.push_back({e->lib_fp, e->params, e->sta, e->min_precision,
                     e->precision_step, e->scenarios, e->surface});
    }
  }
  {
    // Staged disk records count too: a `serve` on a freshly opened store
    // should answer library queries without anyone forcing materialization.
    std::lock_guard<std::mutex> lock(staged_mutex_);
    for (const auto& [k, payload] : staged_) {
      if (static_cast<RecordKind>(k.first) != RecordKind::surface) continue;
      try {
        out.push_back(decode_surface_payload(payload));
      } catch (const std::exception&) {
        // Damaged staged record: the query path would drop it too.
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const SurfacePayload& a, const SurfacePayload& b) {
              if (a.surface.base.kind != b.surface.base.kind) {
                return a.surface.base.kind < b.surface.base.kind;
              }
              if (a.surface.base.width != b.surface.base.width) {
                return a.surface.base.width < b.surface.base.width;
              }
              return key_of(a.surface.base) < key_of(b.surface.base);
            });
  return out;
}

DesignStore::Stats DesignStore::stats() const {
  Stats s;
  s.netlist_hits = netlist_hits_->value();
  s.netlist_misses = netlist_misses_->value();
  s.library_hits = library_hits_->value();
  s.library_misses = library_misses_->value();
  s.delay_hits = delay_hits_->value();
  s.delay_misses = delay_misses_->value();
  s.surface_hits = surface_hits_->value();
  s.surface_misses = surface_misses_->value();
  s.persist_hits = persist_hits_->value();
  return s;
}

std::size_t DesignStore::entries() const {
  std::size_t n = 0;
  const auto count = [&n](const auto& family) {
    for (const auto& shard : family) {
      std::lock_guard<std::mutex> lock(shard.mutex);
      n += shard.entries.size();
    }
  };
  count(netlists_);
  count(libraries_);
  count(delays_);
  count(surfaces_);
  return n;
}

}  // namespace aapx::engine
