// Structured JSONL run log: one JSON object per line, unifying runtime
// control events, characterizer sweep progress and STA queries under one
// open schema (every record has a "type"; see docs/ARCHITECTURE.md for the
// per-type required fields).
//
// Determinism discipline — the log is part of a run's auditable output and
// must be byte-identical across reruns and thread counts, so:
//  * no wall-clock timestamps appear in any record (those belong to the
//    trace file only),
//  * instrumented layers emit only from the serial spine of the flow
//    (call sites skip emission inside parallel_for workers); parallel sweeps
//    report ordered per-index records after the barrier instead.
//
// When no log is open every emission call is one relaxed atomic load.
#pragma once

#include <atomic>
#include <fstream>
#include <mutex>
#include <string>
#include <string_view>

#include "obs/json.hpp"

namespace aapx::obs {

/// Schema identifier written into the manifest record.
inline constexpr const char* kRunLogSchema = "aapx-runlog-v1";

class RunLog {
 public:
  /// Each aapx::Context owns a private log (closed until open()) unless it
  /// is handed one, so concurrent tenants write disjoint files.
  RunLog() = default;
  RunLog(const RunLog&) = delete;
  RunLog& operator=(const RunLog&) = delete;

  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  /// Opens (truncates) `path` and enables logging; false on I/O failure.
  bool open(const std::string& path);
  void close();

  /// Appends one record: {"type":"<type>",<fields...>}. Thread-safe; each
  /// line is written atomically. No-op when disabled.
  void emit(std::string_view type, const JsonWriter& fields);
  void emit(std::string_view type);

 private:
  std::atomic<bool> enabled_{false};
  std::mutex mutex_;
  std::ofstream out_;
};

/// Emits the run manifest into `log`: schema version, build configuration
/// (build type, sanitizer, compiler) plus whatever caller fields are passed
/// in (command, component spec, seed, thread count). Call once, right after
/// open(); the server's per-request logs each start with their own manifest
/// so every file is report --check-valid standalone.
void emit_manifest(RunLog& log, const JsonWriter& caller_fields);

}  // namespace aapx::obs
