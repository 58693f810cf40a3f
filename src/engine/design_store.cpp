#include "engine/design_store.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <tuple>
#include <type_traits>
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

std::uint64_t surface_key(std::uint64_t lib_fp, std::uint64_t model_key,
                          const ComponentSpec& base,
                          const std::vector<AgingScenario>& scenarios,
                          int min_precision, int precision_step,
                          std::uint64_t sta_key) {
  Hasher h;
  h.u64(kTagSurface)
      .u64(lib_fp)
      .u64(model_key)
      .u64(key_of(base))
      .u64(sta_key)
      .i32(min_precision)
      .i32(precision_step)
      .u64(scenarios.size());
  for (const AgingScenario& s : scenarios) h.u64(key_of(s));
  return h.digest();
}

/// Stderr note for a staged surface record that could not be served. Never
/// a run-log record: whether it fires depends on store warmth.
void warn_record_dropped(std::uint64_t key, const char* why) {
  std::fprintf(stderr,
               "aapx store: surface record %016llx unusable (%s) — "
               "recomputing\n",
               static_cast<unsigned long long>(key), why);
}

}  // namespace

DesignStore::DesignStore(const Context& ctx)
    : ctx_(&ctx),
      netlists_(ctx.metrics(), "netlist"),
      libraries_(ctx.metrics(), "library"),
      delays_(ctx.metrics(), "delay"),
      surfaces_(ctx.metrics(), "surface") {
  obs::MetricsRegistry& m = ctx.metrics();
  persist_hits_ = &m.counter("engine.store.persist.hits");
  persist_misses_ = &m.counter("engine.store.persist.misses");
  persist_loads_ = &m.counter("engine.store.persist.loads");
  persist_saves_ = &m.counter("engine.store.persist.saves");
  persist_records_loaded_ = &m.counter("engine.store.persist.records_loaded");
  persist_records_dropped_ = &m.counter("engine.store.persist.records_dropped");
  persist_bytes_read_ = &m.counter("engine.store.persist.bytes_read");
  persist_bytes_written_ = &m.counter("engine.store.persist.bytes_written");
}

std::optional<std::string> DesignStore::take_staged(std::uint64_t key) {
  if (!store_attached_.load(std::memory_order_relaxed)) return std::nullopt;
  std::lock_guard<std::mutex> lock(staged_mutex_);
  const auto it = staged_.find(key);
  if (it == staged_.end()) return std::nullopt;
  std::string payload = std::move(it->second);
  staged_.erase(it);
  return payload;
}

template <typename Payload, typename Matches>
const Payload* DesignStore::find(Family<Payload>& family, std::uint64_t key,
                                 const Matches& matches) {
  Shard<Payload>& shard = family.shard(key);
  const auto it = shard.entries.find(key);
  if (it != shard.entries.end()) {
    if (!matches(it->second)) {
      throw std::logic_error("DesignStore: " + family.name +
                             " key collision");
    }
    family.hits->add();
    return &it->second;
  }
  // Surfaces are the only family a store file holds (engine/persist.hpp).
  if constexpr (std::is_same_v<Payload, SurfacePayload>) {
    if (auto blob = take_staged(key)) {
      try {
        SurfacePayload p = decode_surface_payload(*blob);
        if (matches(p)) {
          family.hits->add();
          persist_hits_->add();
          return &shard.entries.emplace(key, std::move(p)).first->second;
        }
        warn_record_dropped(key, "stale key material");
      } catch (const std::exception& e) {
        warn_record_dropped(key, e.what());
      }
      persist_records_dropped_->add();
    }
    if (store_attached_.load(std::memory_order_relaxed)) persist_misses_->add();
  }
  family.misses->add();
  return nullptr;
}

template <typename Payload, typename Matches, typename Build>
const Payload& DesignStore::find_or_build(Family<Payload>& family,
                                          std::uint64_t key,
                                          const Matches& matches,
                                          const Build& build) {
  Shard<Payload>& shard = family.shard(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  if (const Payload* hit = find(family, key, matches)) return *hit;
  return shard.entries.emplace(key, build()).first->second;
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
  return netlist(lib, spec, fingerprint(lib), key_of(spec));
}

const Netlist& DesignStore::netlist(const CellLibrary& lib,
                                    const ComponentSpec& spec,
                                    std::uint64_t fp, std::uint64_t spec_key) {
  const std::uint64_t key =
      Hasher{}.u64(kTagNetlist).u64(fp).u64(spec_key).digest();
  const auto matches = [&](const NetlistEntry& e) {
    return e.lib_fp == fp && e.spec == spec;
  };
  const auto build = [&] {
    return NetlistEntry{fp, spec, make_component(*ctx_, lib, spec)};
  };
  return find_or_build(netlists_, key, matches, build).netlist;
}

const DegradationAwareLibrary& DesignStore::aged_library(const CellLibrary& lib,
                                                         const AgingModel& model,
                                                         double years) {
  return aged_library(lib, model, years, fingerprint(lib));
}

const DegradationAwareLibrary& DesignStore::aged_library(const CellLibrary& lib,
                                                         const AgingModel& model,
                                                         double years,
                                                         std::uint64_t fp) {
  const std::uint64_t key = Hasher{}
                                .u64(kTagLibrary)
                                .u64(fp)
                                .u64(key_of(model))
                                .f64(years)
                                .digest();
  const auto matches = [&](const LibraryEntry& e) {
    return e.lib_fp == fp && e.years == years &&
           key_of(e.library.model()) == key_of(model);
  };
  const auto build = [&] {
    return LibraryEntry{fp, years, DegradationAwareLibrary(lib, model, years)};
  };
  return find_or_build(libraries_, key, matches, build).library;
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
  // Each input is hashed once here; the miss path below reuses the digests.
  const std::uint64_t fp = fingerprint(lib);
  const std::uint64_t spec_key = key_of(spec);
  const std::uint64_t sta_key = key_of(sta);
  const std::uint64_t netlist_key = Hasher{}.u64(fp).u64(spec_key).digest();
  // Fresh timing does not depend on the aging model or stress mode; keying
  // it as plain "fresh" lets every model share one entry.
  Hasher scenario;
  if (years <= 0.0) {
    scenario.str("fresh");
  } else {
    scenario.u64(key_of(model)).i32(static_cast<int>(mode)).f64(years);
  }
  const std::uint64_t scenario_key = scenario.u64(sta_key).digest();
  const std::uint64_t key = Hasher{}
                                .u64(kTagDelay)
                                .u64(netlist_key)
                                .u64(scenario_key)
                                .digest();

  const auto matches = [&](const DelayEntry& e) {
    return e.netlist_key == netlist_key && e.scenario_key == scenario_key;
  };
  Shard<DelayEntry>& shard = delays_.shard(key);
  const DelayEntry* hit;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    hit = find(delays_, key, matches);
  }
  // A stored entry is never modified or erased, so reading it after the
  // lock is released is safe.
  if (hit != nullptr) {
    log_delay_query(years > 0.0, hit->gates, hit->delay);
    return hit->delay;
  }
  DelayEntry filled{netlist_key, scenario_key, 0.0, 0};
  {
    // Compute outside the lock — netlist()/aged_library() take their own
    // family locks and an STA run is too long to serialize a shard on. A
    // racing duplicate computes the identical value; first insert wins.
    // The fill runs off the serial spine: whether it executes at all depends
    // on process-wide cache history, so the Sta run must not emit its own
    // sta_query record (log_delay_query below reports the query instead,
    // identically for hits and misses).
    const OffSpineGuard off_spine;
    const Netlist& nl = netlist(lib, spec, fp, spec_key);
    const Sta& sta_engine = sta_of(nl, netlist_key, sta, sta_key);
    filled.gates = static_cast<std::uint64_t>(nl.num_gates());
    if (years <= 0.0) {
      filled.delay = sta_engine.run_fresh().max_delay;
    } else {
      const DegradationAwareLibrary& aged = aged_library(lib, model, years, fp);
      const StressProfile stress =
          StressProfile::uniform(mode, nl.num_gates());
      filled.delay = sta_engine.run_aged(aged, stress).max_delay;
    }
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.entries.emplace(key, filled);
  }
  log_delay_query(years > 0.0, filled.gates, filled.delay);
  return filled.delay;
}

const Sta& DesignStore::sta_of(const Netlist& nl, std::uint64_t netlist_key,
                               const StaOptions& options,
                               std::uint64_t options_key) {
  const std::uint64_t key = Hasher{}.u64(netlist_key).u64(options_key).digest();
  Shard<Sta>& shard = stas_[key % kShards];
  std::lock_guard<std::mutex> lock(shard.mutex);
  const auto [it, built] = shard.entries.try_emplace(key, nl, options, ctx_);
  const Sta& sta = it->second;
  if (!built &&
      (&sta.netlist() != &nl ||
       sta.options().primary_input_slew != options.primary_input_slew ||
       sta.options().primary_output_load != options.primary_output_load)) {
    throw std::logic_error("DesignStore: sta key collision");
  }
  return sta;
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
  const std::uint64_t params_key = key_of(model);
  const std::uint64_t sta_key = key_of(sta);
  const std::uint64_t key = surface_key(fp, params_key, base, scenarios,
                                        min_precision, precision_step, sta_key);
  const auto matches = [&](const SurfacePayload& p) {
    return p.lib_fp == fp && key_of(p.params) == params_key &&
           key_of(p.sta) == sta_key && p.min_precision == min_precision &&
           p.precision_step == precision_step && p.surface.base == base &&
           scenarios_equal(p.scenarios, scenarios);
  };
  const auto sweep = [&] {
    return SurfacePayload{fp, model.params(), sta, min_precision,
                          precision_step, scenarios, build()};
  };
  // Like netlists, the build runs under the shard lock: surfaces are the
  // most expensive artifact in the store and must never be computed twice.
  const SurfacePayload& p =
      find_or_build(surfaces_, key, matches, sweep);
  return p.surface;
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
      // Every loaded record is a surface (load_store_file drops the rest).
      // Last record wins for duplicate keys; `aapx library merge` warns on
      // genuine conflicts before they ever reach a store file.
      staged_[rec.key] = std::move(rec.payload);
    }
  }
  store_attached_.store(true, std::memory_order_relaxed);
  log_persist("store_load", path);
  return data.warnings.empty();
}

bool DesignStore::save(const std::string& path) const {
  // Surfaces only: the other families are intermediates a reopen rebuilds
  // on their misses (engine/persist.hpp).
  std::vector<RawRecord> records;
  for (const auto& shard : surfaces_.shards) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (const auto& [key, p] : shard.entries) {
      records.push_back({RecordKind::surface, key, encode_surface_payload(p)});
    }
  }
  {
    // Records loaded but never queried this run ride along unchanged, so a
    // warm run never shrinks the store it was given.
    std::lock_guard<std::mutex> lock(staged_mutex_);
    for (const auto& [key, payload] : staged_) {
      records.push_back({RecordKind::surface, key, payload});
    }
  }
  std::sort(records.begin(), records.end(),
            [](const RawRecord& a, const RawRecord& b) {
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
  // Each surface with its record key, the tie-break that makes the order
  // total: surfaces of one base spec differ only in their sweep parameters.
  std::vector<std::pair<std::uint64_t, SurfacePayload>> keyed;
  for (const auto& shard : surfaces_.shards) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (const auto& [key, p] : shard.entries) keyed.emplace_back(key, p);
  }
  {
    // Staged disk records count too: a `serve` on a freshly opened store
    // should answer library queries without anyone forcing materialization.
    std::lock_guard<std::mutex> lock(staged_mutex_);
    for (const auto& [key, payload] : staged_) {
      try {
        keyed.emplace_back(key, decode_surface_payload(payload));
      } catch (const std::exception&) {
        // Damaged staged record: the query path would drop it too.
      }
    }
  }
  const auto rank = [](const std::pair<std::uint64_t, SurfacePayload>& e) {
    const ComponentSpec& base = e.second.surface.base;
    return std::tuple(base.kind, base.width, key_of(base), e.first);
  };
  std::sort(keyed.begin(), keyed.end(),
            [&rank](const auto& a, const auto& b) { return rank(a) < rank(b); });
  std::vector<SurfacePayload> out;
  out.reserve(keyed.size());
  for (auto& e : keyed) out.push_back(std::move(e.second));
  return out;
}

DesignStore::Stats DesignStore::stats() const {
  Stats s;
  s.netlist_hits = netlists_.hits->value();
  s.netlist_misses = netlists_.misses->value();
  s.library_hits = libraries_.hits->value();
  s.library_misses = libraries_.misses->value();
  s.delay_hits = delays_.hits->value();
  s.delay_misses = delays_.misses->value();
  s.surface_hits = surfaces_.hits->value();
  s.surface_misses = surfaces_.misses->value();
  s.persist_hits = persist_hits_->value();
  return s;
}

std::size_t DesignStore::entries() const {
  std::size_t n = 0;
  const auto count = [&n](const auto& family) {
    for (const auto& shard : family.shards) {
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
