#include "engine/persist.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "engine/binio.hpp"
#include "util/hash.hpp"

namespace aapx::engine {
namespace {

// Build provenance macros come from the top-level CMakeLists (the same pair
// the run-log manifest records).
#ifndef AAPX_BUILD_TYPE
#define AAPX_BUILD_TYPE "unknown"
#endif
#ifndef AAPX_SANITIZE_MODE
#define AAPX_SANITIZE_MODE "unknown"
#endif

// The aging block every surface payload carries right after lib_fp: the
// mechanism list, then every BTI, HCI, EM and TDDB field. All four blocks
// are written whether or not their mechanism is enabled, so the layout is
// fixed; the list says which ones are live.
void encode_aging(BinWriter& w, const AgingParams& p) {
  w.u64(p.mechanisms.size());
  for (const MechanismKind kind : p.mechanisms) {
    w.i32(static_cast<int>(kind));
  }
  w.f64(p.bti.vdd);
  w.f64(p.bti.vth0);
  w.f64(p.bti.a_pmos);
  w.f64(p.bti.a_nmos);
  w.f64(p.bti.time_exponent);
  w.f64(p.bti.stress_exponent);
  w.f64(p.bti.alpha);
  w.f64(p.bti.t_ref_years);
  w.f64(p.bti.temp_kelvin);
  w.f64(p.bti.t_ref_kelvin);
  w.f64(p.bti.activation_ev);
  w.f64(p.hci.a_hci);
  w.f64(p.hci.activity_exponent);
  w.f64(p.hci.time_exponent);
  w.f64(p.hci.t_ref_years);
  w.f64(p.hci.activation_ev);
  w.f64(p.hci.t_ref_kelvin);
  w.f64(p.em.beta);
  w.f64(p.em.eta_ref_years);
  w.f64(p.em.j_ref);
  w.f64(p.em.current_exponent);
  w.f64(p.em.activation_ev);
  w.f64(p.em.t_ref_kelvin);
  w.f64(p.tddb.beta);
  w.f64(p.tddb.eta_ref_years);
  w.f64(p.tddb.vdd_ref);
  w.f64(p.tddb.voltage_exponent);
  w.f64(p.tddb.activation_ev);
  w.f64(p.tddb.t_ref_kelvin);
}

AgingParams decode_aging(BinReader& r) {
  AgingParams p;
  const std::uint64_t n = r.count(r.u64(), 4);
  if (n == 0) {
    throw std::runtime_error("store aging block: empty mechanism set");
  }
  p.mechanisms.clear();
  for (std::uint64_t i = 0; i < n; ++i) {
    const int kind = r.i32();
    if (kind < 0 || kind > static_cast<int>(MechanismKind::tddb)) {
      throw std::runtime_error("store aging block: unknown mechanism");
    }
    const auto mk = static_cast<MechanismKind>(kind);
    if (p.has(mk)) {
      throw std::runtime_error("store aging block: duplicate mechanism");
    }
    p.mechanisms.push_back(mk);
  }
  p.bti.vdd = r.f64();
  p.bti.vth0 = r.f64();
  p.bti.a_pmos = r.f64();
  p.bti.a_nmos = r.f64();
  p.bti.time_exponent = r.f64();
  p.bti.stress_exponent = r.f64();
  p.bti.alpha = r.f64();
  p.bti.t_ref_years = r.f64();
  p.bti.temp_kelvin = r.f64();
  p.bti.t_ref_kelvin = r.f64();
  p.bti.activation_ev = r.f64();
  p.hci.a_hci = r.f64();
  p.hci.activity_exponent = r.f64();
  p.hci.time_exponent = r.f64();
  p.hci.t_ref_years = r.f64();
  p.hci.activation_ev = r.f64();
  p.hci.t_ref_kelvin = r.f64();
  p.em.beta = r.f64();
  p.em.eta_ref_years = r.f64();
  p.em.j_ref = r.f64();
  p.em.current_exponent = r.f64();
  p.em.activation_ev = r.f64();
  p.em.t_ref_kelvin = r.f64();
  p.tddb.beta = r.f64();
  p.tddb.eta_ref_years = r.f64();
  p.tddb.vdd_ref = r.f64();
  p.tddb.voltage_exponent = r.f64();
  p.tddb.activation_ev = r.f64();
  p.tddb.t_ref_kelvin = r.f64();
  return p;
}

/// Normalizes decoder failures to the documented std::runtime_error. The
/// binio reads throw runtime_error already; anything else a decode step
/// raises (a logic_error flavour from a library call) is rewrapped, because
/// callers — the load path and the untrusted-socket protocol layer — are
/// promised runtime_error and nothing else.
template <typename Fn>
auto decode_guarded(const char* what, const Fn& fn) -> decltype(fn()) {
  try {
    return fn();
  } catch (const std::runtime_error&) {
    throw;
  } catch (const std::exception& e) {
    throw std::runtime_error(std::string(what) + ": " + e.what());
  }
}

}  // namespace

void encode_spec(BinWriter& w, const ComponentSpec& spec) {
  w.i32(static_cast<int>(spec.kind));
  w.i32(spec.width);
  w.i32(spec.truncated_bits);
  w.i32(static_cast<int>(spec.adder_arch));
  w.i32(static_cast<int>(spec.mult_arch));
  w.i32(static_cast<int>(spec.technique));
}

ComponentSpec decode_spec(BinReader& r) {
  ComponentSpec spec;
  spec.kind = r.enum32(ComponentKind::clamp, "ComponentKind");
  spec.width = r.i32();
  spec.truncated_bits = r.i32();
  spec.adder_arch = r.enum32(AdderArch::kogge_stone, "AdderArch");
  spec.mult_arch = r.enum32(MultArch::wallace, "MultArch");
  spec.technique =
      r.enum32(ApproxTechnique::pp_truncation, "ApproxTechnique");
  return spec;
}

std::uint64_t build_fingerprint() {
  return Hasher{}
      .str("aapx-store")
      .u32(kStoreFormatVersion)
      .str(__VERSION__)
      .str(AAPX_BUILD_TYPE)
      .str(AAPX_SANITIZE_MODE)
      .digest();
}

const char* to_string(RecordKind kind) {
  return kind == RecordKind::surface ? "surface" : "unknown";
}

StoreFileData load_store_file(const std::string& path) {
  StoreFileData out;
  std::ifstream is(path, std::ios::binary);
  if (!is) return out;  // no file: clean cold start
  out.file_found = true;

  // The file in one read, into a buffer one byte longer than the size the
  // file system reports, so the read meets the end. A path with no size
  // (a pipe) grows the buffer until its end; one that cannot be read (a
  // directory) leaves it empty, which the header check below rejects.
  std::error_code size_ec;
  const std::uintmax_t size = std::filesystem::file_size(path, size_ec);
  std::string bytes(size_ec ? 0 : size + 1, '\0');
  std::size_t got = 0;
  do {
    if (got == bytes.size()) bytes.resize(2 * got + 4096);
    is.read(bytes.data() + got,
            static_cast<std::streamsize>(bytes.size() - got));
    got += static_cast<std::size_t>(is.gcount());
  } while (is);
  bytes.resize(got);
  out.bytes_read = bytes.size();

  const auto reject = [&](const std::string& why) -> StoreFileData& {
    out.warnings.push_back("store " + path + ": " + why +
                           " — starting cold");
    out.records.clear();
    return out;
  };

  try {
    BinReader r(bytes);
    if (r.bytes(sizeof kStoreMagic) !=
        std::string_view(kStoreMagic, sizeof kStoreMagic)) {
      return reject("not a store file (bad magic)");
    }
    out.format_version = r.u32();
    out.build_fp = r.u64();
    out.record_count = r.u64();
    out.header_read = true;
    if (out.format_version != kStoreFormatVersion) {
      return reject("format version " + std::to_string(out.format_version) +
                    " (expected " + std::to_string(kStoreFormatVersion) + ")");
    }
    if (out.build_fp != build_fingerprint()) {
      return reject("built by a different toolchain/configuration");
    }
    out.header_ok = true;

    const std::uint64_t count = out.record_count;
    for (std::uint64_t i = 0; i < count; ++i) {
      RawRecord rec;
      bool framed = false;
      try {
        const std::uint32_t kind = r.u32();
        rec.key = r.u64();
        const std::uint64_t size = r.u64();
        const std::uint64_t checksum = r.u64();
        if (size > r.remaining()) {
          throw std::runtime_error("truncated record");
        }
        rec.payload = r.bytes(size);
        // Past this point the cursor sits at the next record: a content
        // failure below costs only this record, not the tail.
        framed = true;
        if (fnv1a(rec.payload) != checksum) {
          throw std::runtime_error("checksum mismatch");
        }
        // Surfaces are the only kind written (RecordKind): a record of any
        // other kind is dropped like an unknown one.
        if (kind != static_cast<std::uint32_t>(RecordKind::surface)) {
          throw std::runtime_error("unknown record kind " +
                                   std::to_string(kind));
        }
        rec.kind = static_cast<RecordKind>(kind);
      } catch (const std::exception& e) {
        if (!framed) {
          // A framing error means nothing after this point can be trusted:
          // drop this record and the unreadable tail.
          out.records_dropped += count - i;
          out.warnings.push_back("store " + path + ": record " +
                                 std::to_string(i + 1) + "/" +
                                 std::to_string(count) + ": " + e.what() +
                                 " — dropping it and the remaining tail");
          return out;
        }
        ++out.records_dropped;
        out.warnings.push_back("store " + path + ": record " +
                               std::to_string(i + 1) + "/" +
                               std::to_string(count) + ": " + e.what() +
                               " — dropping it");
        continue;
      }
      out.records.push_back(std::move(rec));
    }
  } catch (const std::exception& e) {
    return reject(std::string("corrupt header: ") + e.what());
  }
  return out;
}

std::uint64_t write_store_file(const std::string& path,
                               const std::vector<RawRecord>& records) {
  // Per record: kind u32, key u64, payload size u64, checksum u64, payload.
  std::size_t total = kHeaderSize;
  for (const RawRecord& rec : records) total += 4 + 3 * 8 + rec.payload.size();
  BinWriter w;
  w.reserve(total);
  w.bytes(std::string_view(kStoreMagic, sizeof kStoreMagic));
  w.u32(kStoreFormatVersion);
  w.u64(build_fingerprint());
  w.u64(records.size());
  for (const RawRecord& rec : records) {
    w.u32(static_cast<std::uint32_t>(rec.kind));
    w.u64(rec.key);
    w.u64(rec.payload.size());
    w.u64(fnv1a(rec.payload));
    w.bytes(rec.payload);
  }

  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os) return 0;
    os.write(w.data().data(), static_cast<std::streamsize>(w.data().size()));
    if (!os) return 0;
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    return 0;
  }
  return w.data().size();
}

// --- characterization surface -----------------------------------------------

std::string encode_surface_payload(const SurfacePayload& p) {
  BinWriter w;
  w.u64(p.lib_fp);
  encode_aging(w, p.params);
  w.f64(p.sta.primary_input_slew);
  w.f64(p.sta.primary_output_load);
  w.i32(p.min_precision);
  w.i32(p.precision_step);
  w.u64(p.scenarios.size());
  for (const AgingScenario& s : p.scenarios) {
    w.i32(static_cast<int>(s.mode));
    w.f64(s.years);
  }
  encode_spec(w, p.surface.base);
  w.u64(p.surface.points.size());
  for (const PrecisionPoint& pt : p.surface.points) {
    w.i32(pt.precision);
    w.f64(pt.fresh_delay);
    w.f64(pt.area);
    w.u64(pt.gates);
    w.f64_vec(pt.aged_delay);
  }
  return w.take();
}

SurfacePayload decode_surface_payload(const std::string& payload) {
  return decode_guarded("store surface record", [&]() -> SurfacePayload {
    BinReader r(payload);
    SurfacePayload p;
    p.lib_fp = r.u64();
    p.params = decode_aging(r);
    p.sta.primary_input_slew = r.f64();
    p.sta.primary_output_load = r.f64();
    p.min_precision = r.i32();
    p.precision_step = r.i32();
    const std::uint64_t nscen = r.count(r.u64(), 12);
    p.scenarios.reserve(nscen);
    for (std::uint64_t i = 0; i < nscen; ++i) {
      AgingScenario s;
      s.mode = r.enum32(StressMode::measured, "StressMode");
      s.years = r.f64();
      p.scenarios.push_back(s);
    }
    p.surface.base = decode_spec(r);
    p.surface.scenarios = p.scenarios;
    const std::uint64_t npoints = r.count(r.u64(), 36);
    p.surface.points.reserve(npoints);
    for (std::uint64_t i = 0; i < npoints; ++i) {
      PrecisionPoint pt;
      pt.precision = r.i32();
      pt.fresh_delay = r.f64();
      pt.area = r.f64();
      pt.gates = r.u64();
      pt.aged_delay = r.f64_vec();
      if (pt.aged_delay.size() != nscen) {
        throw std::runtime_error("store surface scenario columns mismatch");
      }
      p.surface.points.push_back(std::move(pt));
    }
    r.expect_end();
    return p;
  });
}

}  // namespace aapx::engine
