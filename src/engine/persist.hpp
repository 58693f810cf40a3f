// Versioned on-disk format for DesignStore snapshots — the persistent form
// of the paper's aging-induced approximation library.
//
// A store file is a header plus a flat sequence of self-describing records:
//
//   header   magic "AAPXSTR\0" (8) | format_version u32 | build_fp u64
//            | record_count u64
//   record   kind u32 | key u64 | payload_size u64 | payload_fnv1a u64
//            | payload bytes
//
// All integers are little-endian on disk (engine/binio.hpp), so files move
// between hosts of any endianness. `key` is the record's content-addressed
// DesignStore digest; `payload_fnv1a` is a per-record checksum of the
// payload bytes. The header's build fingerprint digests the format version,
// compiler and build configuration: floating-point artifacts are only
// guaranteed bit-reproducible within one build, so a file from a different
// build is rejected wholesale (cold start) rather than risking sub-ulp
// drift being mistaken for cached truth.
//
// Failure policy (the load path never throws):
//   * missing file                  -> cold start, no warning
//   * bad magic / version / build   -> whole file rejected, one warning
//   * truncated / checksum-mismatch -> record dropped, warning, rest kept
// A loaded record is still only *staged*: the DesignStore re-verifies its
// full key material against the live query before serving it (see
// design_store.cpp), so a stale-but-well-formed record degrades to a cold
// miss, never a wrong hit.
//
// The one record kind is 4, a characterization surface: the delay vs.
// precision vs. aging table of paper Sec. III plus the key material needed
// for that re-verification; its decode helpers below are the single source
// of truth for the layout. The payload carries one fixed aging block right
// after lib_fp: the mechanism count and list, then every BTI, HCI, EM and
// TDDB parameter, whichever mechanisms are enabled. Every other artifact is
// an intermediate that is cheap to recompute, so no file carries it: kind 1
// held synthesized netlists up to format 3, kinds 2 and 3 held aged-library
// key material and single STA delays up to format 4, and kind 5 is retired.
// A record of any of them is dropped on load, and a query that needs the
// artifact after a reopen rebuilds it on its miss. Payload layout changes
// require bumping kStoreFormatVersion.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "aging/aging_model.hpp"
#include "aging/stress.hpp"
#include "approx/characterization.hpp"
#include "sta/sta.hpp"
#include "synth/components.hpp"

namespace aapx::engine {

inline constexpr char kStoreMagic[8] = {'A', 'A', 'P', 'X',
                                        'S', 'T', 'R', '\0'};
inline constexpr std::uint32_t kStoreFormatVersion = 5;

/// Byte offsets of the header fields, exported so the corruption tests can
/// patch specific fields without re-deriving the layout.
inline constexpr std::size_t kHeaderVersionOffset = 8;
inline constexpr std::size_t kHeaderBuildFpOffset = 12;
inline constexpr std::size_t kHeaderCountOffset = 20;
inline constexpr std::size_t kHeaderSize = 28;

/// Fingerprint of this build: format version, compiler, build type and
/// sanitizer mode. Files are only trusted within one fingerprint.
std::uint64_t build_fingerprint();

enum class RecordKind : std::uint32_t {
  // Values 1-3 (netlists, aged libraries, STA delays) are no longer written
  // and value 5 is retired (learned-surrogate models, which were removed).
  // Never reuse them: a file record of any of them is dropped on load as an
  // unknown kind, a cold miss.
  surface = 4,
};

const char* to_string(RecordKind kind);

struct RawRecord {
  RecordKind kind;
  std::uint64_t key = 0;
  std::string payload;
};

struct StoreFileData {
  bool file_found = false;   ///< false: no file at `path` (clean cold start)
  bool header_read = false;  ///< magic matched and the header fields decoded
  bool header_ok = false;    ///< false: file rejected wholesale
  /// The header as decoded, before the compatibility checks (valid iff
  /// header_read), so a foreign or wrong-version file still reports itself.
  std::uint32_t format_version = 0;
  std::uint64_t build_fp = 0;
  std::uint64_t record_count = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t records_dropped = 0;  ///< bad checksum / truncated tail
  std::vector<RawRecord> records;
  std::vector<std::string> warnings;  ///< human-readable, for stderr
};

/// Reads and checksums `path`. Never throws: every failure mode lands in
/// `warnings` / `records_dropped` and degrades toward a cold start.
StoreFileData load_store_file(const std::string& path);

/// Writes header + records to `path` atomically (temp file + rename).
/// Records are written in the order given — callers sort by (kind, key) so
/// save output is byte-deterministic. Returns bytes written, 0 on I/O error.
std::uint64_t write_store_file(const std::string& path,
                               const std::vector<RawRecord>& records);

class BinReader;
class BinWriter;

/// The ComponentSpec layout every spec-carrying store record and service
/// frame shares: kind, width, truncated_bits, adder_arch, mult_arch and
/// technique as six i32s. The decoder range-checks the four enums and throws
/// std::runtime_error on an unknown value; width and truncation are the
/// caller's to check.
void encode_spec(BinWriter& w, const ComponentSpec& spec);
ComponentSpec decode_spec(BinReader& r);

// --- surface codec ----------------------------------------------------------
// The encoder serializes a surface with its key material; the decoder
// re-verifies structural invariants (counts, enum ranges) and throws
// std::runtime_error on any inconsistency.

struct SurfacePayload {
  std::uint64_t lib_fp = 0;
  AgingParams params;
  StaOptions sta;
  int min_precision = 0;
  int precision_step = 0;
  std::vector<AgingScenario> scenarios;
  ComponentCharacterization surface;  ///< surface.base is the spec key part
};
std::string encode_surface_payload(const SurfacePayload& p);
SurfacePayload decode_surface_payload(const std::string& payload);

}  // namespace aapx::engine
