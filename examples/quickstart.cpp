// Quickstart: characterize one RTL component for aging and find the
// precision that removes its guardband (paper Eq. 2 in ~40 lines).
//
//   build/examples/quickstart
//
// Walks the full pipeline: generate the cell library, synthesize a 16-bit
// adder, sweep truncated variants, run fresh and aging-aware STA, and report
// the precision at which the aged circuit meets the fresh clock.
#include <cstdio>

#include "approx/error_bounds.hpp"
#include "cell/library.hpp"
#include "core/characterizer.hpp"
#include "engine/context.hpp"
#include "synth/components.hpp"

int main() {
  using namespace aapx;

  // 1. Substrates: an execution Context (the cache/metrics/thread-pool home
  //    of one evaluation session), a NanGate-45-like cell library and the
  //    BTI aging model.
  const Context ctx;
  const CellLibrary lib = make_nangate45_like();
  const AgingModel aging;  // calibrated defaults (see DESIGN.md Sec. 5)

  // 2. The component under study: a 16-bit carry-lookahead adder.
  const ComponentSpec adder{ComponentKind::adder, 16, 0, AdderArch::cla4,
                            MultArch::array};

  // 3. Characterize delay vs precision vs aging (paper Fig. 3).
  CharacterizerOptions options;
  options.min_precision = 8;
  const ComponentCharacterizer characterizer(ctx, lib, aging, options);
  const ComponentCharacterization c = characterizer.characterize(
      adder, {{StressMode::worst, 1.0}, {StressMode::worst, 10.0}});

  std::printf("component: %s\n", adder.name().c_str());
  std::printf("fresh critical path (the lifetime timing constraint): %.1f ps\n\n",
              c.full_fresh_delay());
  std::printf("precision  fresh[ps]  1Y-worst[ps]  10Y-worst[ps]\n");
  for (const PrecisionPoint& p : c.points) {
    std::printf("   %2d       %7.1f       %7.1f        %7.1f%s\n", p.precision,
                p.fresh_delay, p.aged_delay[0], p.aged_delay[1],
                p.aged_delay[1] <= c.full_fresh_delay() ? "  <- timing clean"
                                                        : "");
  }

  // 4. The paper's Eq. 2: the largest K whose aged delay meets the fresh
  //    constraint. Operating at that precision removes the guardband while
  //    guaranteeing that no timing error can ever occur.
  const int k1 = c.required_precision(0);
  const int k10 = c.required_precision(1);
  std::printf("\nguardband-free precision after 1 year:   %d bits (drop %d)\n",
              k1, 16 - k1);
  std::printf("guardband-free precision after 10 years: %d bits (drop %d)\n",
              k10, 16 - k10);
  std::printf("max truncation error at 10-year precision: +/- %lld\n",
              static_cast<long long>(adder_error_bound(16 - k10)));
  return 0;
}
