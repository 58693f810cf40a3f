// Content-addressed store for the expensive artifacts of the aging flow.
//
// PR 2 memoized re-synthesis and aged STA with three *separate* keyed caches
// buried inside ComponentCharacterizer, ClosedLoopRuntime and FaultInjector.
// Identical (spec, lifetime, model) work was still recomputed across layers,
// and nothing could be shared between concurrent campaigns. The DesignStore
// is the single home for those three families plus the surfaces:
//
//   netlist   : (library fingerprint, ComponentSpec)            -> Netlist
//   library   : (library fingerprint, AgingParams, years)       -> aged lib
//   sta delay : (netlist key, model-or-fresh, stress, years,
//                StaOptions)                                    -> ps
//   surface   : (library fingerprint, AgingParams, base spec,
//                scenarios, min precision, step, StaOptions)    -> surface
//
// Beside the four families, a delay miss reuses one in-memory Sta per
// (netlist entry, StaOptions): built on the first miss on that netlist, it
// holds the netlist's fresh gate delays, so every later aged or fresh query
// on it costs one propagation. It is never persisted and has no counters —
// store files, engine.store.* counts and run logs do not see it.
//
// Keys are stable 64-bit content digests (engine/key.hpp): the characterizer
// warms an entry, the runtime and the fault injector hit it — one unified
// store, cross-layer by construction. A FaultInjector with a nominal
// scenario keys the *same* degradation libraries as the runtime, because the
// key is the model's parameter content, not the object that asked.
//
// One record type, surfaces: the surface family's shards hold the persist
// payload (engine/persist.hpp) itself — the artifact plus its key material
// — so the in-memory entry and the on-disk record are the same struct. The
// netlist, library and delay families hold in-memory entries with their key
// material (NetlistEntry, LibraryEntry, DelayEntry): never saved and never
// read from a file, since each is an intermediate that costs a synthesis or
// an STA run to recompute. One needed after a reopen is rebuilt on its miss.
//
// Footprint: every entry, and every memoized Sta, is held by value in its
// shard's std::unordered_map node — one heap block per entry beside what the
// payload itself owns, plus one bucket pointer per entry. An aged-library
// entry is about 5 KB: one set of factor rows per sensitivity class
// (cell/degradation.hpp) plus its AgingModel.
//
// Concurrency: each family is sharded 16 ways by key; a shard's mutex is
// held across a netlist/library/surface build (so racing requesters wait
// instead of duplicating the expensive work — and hit/miss counts stay
// deterministic), while STA delays are computed outside the lock (racing
// duplicates compute the identical value; first insert wins). A lookup
// hashes its 64-bit key into a bucket instead of walking a tree: serve_mix's
// store holds about 18k entries per shard. Returned references are stable
// for the Context's lifetime: values live in the map's nodes, and a rehash
// relinks nodes into a new bucket array without moving them, so it
// invalidates iterators but never a reference or pointer to an entry.
// Iteration order is therefore insertion- and rehash-dependent; every reader
// that walks the shards sorts by a total order (save() by key,
// surface_snapshot() by spec and then record key).
//
// Collision discipline: each family compares key material (spec / params /
// years / fingerprint / sweep) with one predicate. An in-memory entry that
// fails it throws — a 64-bit collision is astronomically unlikely but must
// never silently serve the wrong artifact — and a staged disk record that
// fails it is dropped as stale.
//
// Persistence (engine/persist.hpp): open(path) stages the surface records
// of a versioned store file; a staged record is materialized lazily, on the
// first query for its key, after re-verifying its embedded key material
// against the live query — so a stale or colliding record degrades to a
// cold miss, never a wrong hit. save(path) snapshots every surface entry
// plus any still-staged record back to disk (byte-deterministic: records
// sorted by key). A characterizer run with a store attached thereby warms a
// file that later runtime / fault-injection runs hit across processes.
// Run logs stay byte-identical cold vs. warm: disk-served queries take the
// exact hit paths (sta_query records carry the same fields either way), and
// the store_load/store_save records contain only warmth-invariant fields.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "aging/aging_model.hpp"
#include "aging/stress.hpp"
#include "approx/characterization.hpp"
#include "cell/degradation.hpp"
#include "engine/persist.hpp"
#include "netlist/netlist.hpp"
#include "obs/metrics.hpp"
#include "sta/sta.hpp"
#include "synth/components.hpp"

namespace aapx {

class Context;

namespace engine {

class DesignStore {
 public:
  /// The store reports hit/miss counters into (and builds artifacts under)
  /// its owning Context; `Context::store()` is the only intended way in.
  explicit DesignStore(const Context& ctx);
  DesignStore(const DesignStore&) = delete;
  DesignStore& operator=(const DesignStore&) = delete;

  /// The synthesized, optimized netlist of `spec` under `lib`. Reference
  /// stays valid for the store's lifetime.
  const Netlist& netlist(const CellLibrary& lib, const ComponentSpec& spec);

  /// The degradation-aware library of `lib` under `model` at `years`.
  /// Models with equal AgingParams key — and therefore hit — identically.
  const DegradationAwareLibrary& aged_library(const CellLibrary& lib,
                                              const AgingModel& model,
                                              double years);

  /// Memoized max-delay of `spec` under uniform stress `mode` at `years`
  /// (fresh STA when years == 0; the model is then irrelevant and excluded
  /// from the key, so fresh delays are shared across models). Measured-mode
  /// queries are stimulus-dependent and must not come through this cache.
  double aged_sta_delay(const CellLibrary& lib, const ComponentSpec& spec,
                        const AgingModel& model, StressMode mode, double years,
                        const StaOptions& sta);

  /// Memoized characterization surface of `base` (delay vs. precision vs.
  /// aging, paper Fig. 3/4/7) under the exact sweep parameters. On a miss,
  /// `build` runs under the key's shard lock (racing requesters wait; one
  /// miss per distinct key). Measured-mode scenarios are stimulus-dependent
  /// and must not come through this cache.
  const ComponentCharacterization& surface(
      const CellLibrary& lib, const AgingModel& model,
      const ComponentSpec& base,
      const std::vector<AgingScenario>& scenarios, int min_precision,
      int precision_step, const StaOptions& sta,
      const std::function<ComponentCharacterization()>& build);

  /// Content fingerprint of `lib`, memoized per library object (libraries
  /// are immutable once built everywhere in this codebase).
  std::uint64_t fingerprint(const CellLibrary& lib);

  /// Stages the records of the store file at `path` for lazy, re-verified
  /// materialization and remembers the attachment for save(). A missing
  /// file is a clean cold start; a corrupt, wrong-version or wrong-build
  /// file degrades to cold with a warning on stderr. Returns false iff the
  /// file existed but some of it had to be discarded.
  bool open(const std::string& path);

  /// Serializes every surface entry plus any still-staged record to `path`
  /// (atomic: temp file + rename); the other families stay in memory.
  /// Output bytes are deterministic for a given store content. Returns false
  /// on I/O failure.
  bool save(const std::string& path) const;

  /// Every characterization surface currently in the store — materialized
  /// entries plus still-staged disk records — sorted by (kind, width, spec
  /// key, record key), a total order, so the output does not depend on the
  /// order the surfaces were inserted in. Serves `aapx serve`'s
  /// library-query requests without forcing materialization.
  std::vector<SurfacePayload> surface_snapshot() const;

  struct Stats {
    std::uint64_t netlist_hits = 0, netlist_misses = 0;
    std::uint64_t library_hits = 0, library_misses = 0;
    std::uint64_t delay_hits = 0, delay_misses = 0;
    std::uint64_t surface_hits = 0, surface_misses = 0;
    std::uint64_t persist_hits = 0;  ///< queries served from a store file

    std::uint64_t hits() const {
      return netlist_hits + library_hits + delay_hits + surface_hits;
    }
    std::uint64_t misses() const {
      return netlist_misses + library_misses + delay_misses + surface_misses;
    }
  };
  Stats stats() const;

  /// Total cached entries across all families (diagnostic).
  std::size_t entries() const;

  static constexpr std::size_t kShards = 16;

 private:
  /// The in-memory entries of the netlist, library and delay families, each
  /// with its key material; never saved.
  struct NetlistEntry {
    std::uint64_t lib_fp = 0;
    ComponentSpec spec;
    Netlist netlist;
  };
  struct LibraryEntry {
    std::uint64_t lib_fp = 0;
    double years = 0.0;
    DegradationAwareLibrary library;
  };
  struct DelayEntry {
    std::uint64_t netlist_key = 0;
    std::uint64_t scenario_key = 0;
    double delay = 0.0;
    std::uint64_t gates = 0;
  };
  template <typename Payload>
  struct Shard {
    mutable std::mutex mutex;
    /// Payloads held by value in the map's own nodes: a rehash moves no
    /// node, so references into them survive every insertion.
    std::unordered_map<std::uint64_t, Payload> entries;
  };
  /// One family: its shards and its hit/miss counters, named
  /// engine.store.<name>_hits / _misses.
  template <typename Payload>
  struct Family {
    Family(obs::MetricsRegistry& m, const std::string& name)
        : name(name),
          hits(&m.counter("engine.store." + name + "_hits")),
          misses(&m.counter("engine.store." + name + "_misses")) {}

    Shard<Payload>& shard(std::uint64_t key) { return shards[key % kShards]; }

    std::string name;
    obs::Counter* hits;
    obs::Counter* misses;
    std::array<Shard<Payload>, kShards> shards;
  };

  /// The lookup every family shares; call it holding `key`'s shard mutex.
  /// `matches` compares a payload's key material with the live query's: an
  /// in-memory payload that fails it is a key collision (throws). The
  /// surface family alone also consults staged disk records; one that fails
  /// `matches` (or does not decode) is dropped as stale and the query
  /// recomputes. Counts a hit and returns the payload, or counts a miss and
  /// returns nullptr.
  template <typename Payload, typename Matches>
  const Payload* find(Family<Payload>& family, std::uint64_t key,
                      const Matches& matches);

  /// find() under the key's shard lock; on a miss, `build` runs under the
  /// same lock (racing requesters wait instead of duplicating the work, so
  /// hit/miss totals stay deterministic: one miss per distinct key).
  template <typename Payload, typename Matches, typename Build>
  const Payload& find_or_build(Family<Payload>& family, std::uint64_t key,
                               const Matches& matches, const Build& build);

  /// netlist() and aged_library() with the library fingerprint `fp` (and
  /// `spec_key` = key_of(spec)) already derived, so aged_sta_delay's miss
  /// hashes its inputs once.
  const Netlist& netlist(const CellLibrary& lib, const ComponentSpec& spec,
                         std::uint64_t fp, std::uint64_t spec_key);
  const DegradationAwareLibrary& aged_library(const CellLibrary& lib,
                                              const AgingModel& model,
                                              double years, std::uint64_t fp);

  /// The memoized Sta of netlist entry `nl` (keyed by `netlist_key`) under
  /// `options` (`options_key` = key_of(options)); built under its shard lock
  /// on first use.
  const Sta& sta_of(const Netlist& nl, std::uint64_t netlist_key,
                    const StaOptions& options, std::uint64_t options_key);

  /// Emits the sta_query run-log record for one delay *query* (hit or miss
  /// alike — the record documents the logical query, so the log stays
  /// byte-identical no matter what warmed the cache). Serial spine only.
  void log_delay_query(bool aged, std::uint64_t gates, double delay) const;

  /// Emits a warmth-invariant store_load / store_save run-log record.
  void log_persist(const char* type, const std::string& path) const;

  /// Pops the staged surface payload for `key`, if any. Call while holding
  /// the surface shard's mutex (lock order is always shard -> staged).
  std::optional<std::string> take_staged(std::uint64_t key);

  const Context* ctx_;
  Family<NetlistEntry> netlists_;
  Family<LibraryEntry> libraries_;
  Family<DelayEntry> delays_;
  Family<SurfacePayload> surfaces_;
  /// In-memory only, never saved or counted (see sta_of).
  std::array<Shard<Sta>, kShards> stas_;

  std::mutex fp_mutex_;
  std::map<const CellLibrary*, std::uint64_t> fp_cache_;

  /// Surface records loaded by open() but not yet requested, by key.
  mutable std::mutex staged_mutex_;
  std::map<std::uint64_t, std::string> staged_;
  std::atomic<bool> store_attached_{false};

  obs::Counter* persist_hits_;
  obs::Counter* persist_misses_;
  obs::Counter* persist_loads_;
  obs::Counter* persist_saves_;
  obs::Counter* persist_records_loaded_;
  obs::Counter* persist_records_dropped_;
  obs::Counter* persist_bytes_read_;
  obs::Counter* persist_bytes_written_;
};

}  // namespace engine
}  // namespace aapx
