// Guardband explorer: the paper's closing vision — "systems that gradually
// degrade in quality as they age over time".
//
//   build/examples/guardband_explorer
//
// Sweeps the projected lifetime and prints, per component, the guardband a
// conventional design would need versus the precision schedule an
// aging-induced-approximation design follows instead. An adaptive system
// would walk down this schedule at run time, keeping full speed forever.
#include <cstdio>

#include "cell/library.hpp"
#include "core/characterizer.hpp"
#include "engine/context.hpp"
#include "synth/components.hpp"
#include "util/table.hpp"

#include <iostream>

int main() {
  using namespace aapx;
  // One Context for the whole sweep: the three characterizers below share
  // its DesignStore, so the synthesized netlists and aged libraries of one
  // component row are cache hits for the next.
  const Context ctx;
  const CellLibrary lib = make_nangate45_like();
  const AgingModel aging;

  const struct {
    const char* label;
    ComponentSpec spec;
    int min_precision;
  } components[] = {
      {"adder32 (CLA)",
       {ComponentKind::adder, 32, 0, AdderArch::cla4, MultArch::array}, 20},
      {"mult32 (array)",
       {ComponentKind::multiplier, 32, 0, AdderArch::cla4, MultArch::array}, 26},
      {"mac32 (ripple acc)",
       {ComponentKind::mac, 32, 0, AdderArch::ripple, MultArch::array}, 26},
  };
  const double lifetimes[] = {0.5, 1.0, 2.0, 5.0, 10.0, 15.0};

  for (const auto& comp : components) {
    CharacterizerOptions options;
    options.min_precision = comp.min_precision;
    const ComponentCharacterizer characterizer(ctx, lib, aging, options);
    std::vector<AgingScenario> scenarios;
    for (const double y : lifetimes) {
      scenarios.push_back({StressMode::worst, y});
    }
    const ComponentCharacterization c =
        characterizer.characterize(comp.spec, scenarios);

    std::printf("%s — fresh critical path %.1f ps\n", comp.label,
                c.full_fresh_delay());
    TextTable table({"lifetime [y]", "guardband [ps]", "guardband [%]",
                     "precision schedule", "quality cost [bits]"});
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      const double gb = c.guardband(comp.spec.width, i);
      const int k = c.required_precision(i);
      table.add_row({TextTable::num(lifetimes[i], 1), TextTable::num(gb, 1),
                     TextTable::pct(gb / c.full_fresh_delay()),
                     k > 0 ? std::to_string(k) + " bits" : "unreachable",
                     k > 0 ? std::to_string(comp.spec.width - k) : "-"});
    }
    table.print(std::cout);
    std::printf("\n");
  }
  std::printf("A conventional design pays the 15-year guardband on day one; "
              "an adaptive approximate design runs guardband-free and sheds "
              "LSBs only as the silicon actually ages.\n");
  return 0;
}
