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
// Record payloads (kinds 2-4) carry the entry plus the key material needed
// for that re-verification; decode helpers below are the single source of
// truth for their layout. Aged-library and surface payloads carry one fixed
// aging block right after lib_fp: the mechanism count and list, then every
// BTI, HCI, EM and TDDB parameter, whichever mechanisms are enabled. Since
// format 3 an aged-library record is that key material alone (lib_fp, aging
// block, years: 260 bytes for BTI alone): the library is a pure function of
// it, so the decoder rebuilds it, bit-identically within one build
// fingerprint. Kind 1 held synthesized netlists up to format 3; since
// format 4 no file carries it: netlists are an intermediate that costs a
// fraction of a millisecond to synthesize, yet made up 95-98 % of a file's
// bytes, so a netlist needed after a reopen is rebuilt on its miss. Payload
// layout changes require bumping kStoreFormatVersion.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "aging/aging_model.hpp"
#include "aging/stress.hpp"
#include "approx/characterization.hpp"
#include "cell/degradation.hpp"
#include "sta/sta.hpp"
#include "synth/components.hpp"

namespace aapx::engine {

inline constexpr char kStoreMagic[8] = {'A', 'A', 'P', 'X',
                                        'S', 'T', 'R', '\0'};
inline constexpr std::uint32_t kStoreFormatVersion = 4;

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
  // Value 1 names the DesignStore's in-memory netlist family, which is never
  // saved since format 4; a file record of kind 1 is dropped on load.
  netlist = 1,
  aged_library = 2,
  sta_delay = 3,
  surface = 4,
  // Value 5 is retired: it held learned-surrogate model records, which
  // were removed. Never reuse it — files that still carry such records
  // drop them on load as an unknown kind, a cold miss.
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

// --- payload codecs ---------------------------------------------------------
// Encoders serialize an entry with its key material; decoders re-verify
// structural invariants (counts, cell ids) and throw std::runtime_error on
// any inconsistency. Decoded libraries attach to the live CellLibrary passed
// in; callers must have checked the payload's library fingerprint against
// that library first.

/// The aging parameters are library.model().params(); the record writes
/// them as its aging block.
struct AgedLibraryPayload {
  std::uint64_t lib_fp = 0;
  double years = 0.0;
  DegradationAwareLibrary library;
};
/// Key material only (lib_fp, aging block, years); the decoder rebuilds the
/// library from it.
std::string encode_aged_library_payload(std::uint64_t lib_fp,
                                        const AgingParams& params,
                                        double years);
AgedLibraryPayload decode_aged_library_payload(const std::string& payload,
                                               const CellLibrary& lib);

struct StaDelayPayload {
  std::uint64_t netlist_key = 0;
  std::uint64_t scenario_key = 0;
  double delay = 0.0;
  std::uint64_t gates = 0;
};
std::string encode_sta_delay_payload(const StaDelayPayload& p);
StaDelayPayload decode_sta_delay_payload(const std::string& payload);

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
