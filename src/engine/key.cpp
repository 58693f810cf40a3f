#include "engine/key.hpp"

#include "cell/library.hpp"
#include "util/hash.hpp"

namespace aapx::engine {
namespace {

// Domain-separation tags: two key families can never collide just because
// their field streams coincide.
constexpr std::uint64_t kTagSpec = 0x5350454331ULL;      // "SPEC1"
constexpr std::uint64_t kTagSta = 0x5354413131ULL;       // "STA11"
constexpr std::uint64_t kTagScenario = 0x5343454e31ULL;  // "SCEN1"
constexpr std::uint64_t kTagLibrary = 0x4c49423131ULL;   // "LIB11"

void feed(Hasher& h, const Table2D& t) {
  h.u64(t.axis1().size()).u64(t.axis2().size());
  for (const double v : t.axis1()) h.f64(v);
  for (const double v : t.axis2()) h.f64(v);
  for (std::size_t i = 0; i < t.axis1().size(); ++i) {
    for (std::size_t j = 0; j < t.axis2().size(); ++j) {
      h.f64(t.at(i, j));
    }
  }
}

}  // namespace

std::uint64_t key_of(const ComponentSpec& spec) {
  return Hasher{}
      .u64(kTagSpec)
      .i32(static_cast<int>(spec.kind))
      .i32(spec.width)
      .i32(spec.truncated_bits)
      .i32(static_cast<int>(spec.adder_arch))
      .i32(static_cast<int>(spec.mult_arch))
      .i32(static_cast<int>(spec.technique))
      .digest();
}

std::uint64_t key_of(const StaOptions& options) {
  return Hasher{}
      .u64(kTagSta)
      .f64(options.primary_input_slew)
      .f64(options.primary_output_load)
      .digest();
}

std::uint64_t key_of(const AgingScenario& scenario) {
  Hasher h;
  h.u64(kTagScenario);
  if (scenario.is_fresh()) {
    h.str("fresh");
  } else {
    h.i32(static_cast<int>(scenario.mode)).f64(scenario.years);
  }
  return h.digest();
}

std::uint64_t fingerprint(const CellLibrary& lib) {
  Hasher h;
  h.u64(kTagLibrary).u64(lib.size());
  for (const Cell& cell : lib.cells()) {
    h.str(cell.name)
        .i32(static_cast<int>(cell.fn))
        .i32(cell.drive)
        .f64(cell.area)
        .f64(cell.pin_cap)
        .f64(cell.max_load)
        .f64(cell.aging_sensitivity);
    h.u64(cell.leakage_per_state.size());
    for (const double v : cell.leakage_per_state) h.f64(v);
    h.u64(cell.arcs.size());
    for (const TimingArc& arc : cell.arcs) {
      h.i32(arc.input_pin);
      feed(h, arc.rise_delay);
      feed(h, arc.fall_delay);
      feed(h, arc.rise_slew);
      feed(h, arc.fall_slew);
    }
  }
  const DffSpec& dff = lib.dff();
  h.str(dff.name)
      .f64(dff.area)
      .f64(dff.pin_cap)
      .f64(dff.leakage)
      .f64(dff.clk_to_q)
      .f64(dff.setup)
      .f64(dff.cap_per_bit);
  return h.digest();
}

}  // namespace aapx::engine
