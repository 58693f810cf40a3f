// Pins the DesignStore's key digests to fixed hex values.
//
// A store file is only as reusable as its keys. The build fingerprint in
// the file header covers the format version and the compiler, not how keys
// are derived, so a digest that drifts would silently turn every existing
// store file into cold misses. These values must only change together with
// kStoreFormatVersion. The surface key also depends on the cell-library
// fingerprint, pinned here too so a failure says which input moved.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "aging/aging_model.hpp"
#include "cell/library.hpp"
#include "engine/context.hpp"
#include "engine/design_store.hpp"
#include "engine/key.hpp"
#include "engine/persist.hpp"
#include "synth/components.hpp"

namespace aapx {
namespace {

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

AgingParams all_mechanisms() {
  AgingParams p;
  p.mechanisms = {MechanismKind::bti, MechanismKind::hci, MechanismKind::em,
                  MechanismKind::tddb};
  return p;
}

TEST(StoreKeyPin, AgingModelKeys) {
  EXPECT_EQ(hex(engine::key_of(AgingModel{})), "de6e97f300a517c6");
  EXPECT_EQ(hex(engine::key_of(AgingModel(all_mechanisms()))), "4ab62d8b4b4f3529");
  EXPECT_EQ(engine::key_of(AgingParams{}), engine::key_of(AgingModel{}));
  EXPECT_EQ(engine::key_of(all_mechanisms()),
            engine::key_of(AgingModel(all_mechanisms())));
}

TEST(StoreKeyPin, CopiedAssignedAndMovedModelsKeepTheirKey) {
  const AgingModel multi(all_mechanisms());
  const std::uint64_t key = engine::key_of(multi);
  ASSERT_NE(key, engine::key_of(AgingModel{}));

  AgingModel copy(multi);
  EXPECT_EQ(engine::key_of(copy), key);
  AgingModel assigned;
  assigned = multi;
  EXPECT_EQ(engine::key_of(assigned), key);
  const AgingModel moved(std::move(copy));
  EXPECT_EQ(engine::key_of(moved), key);
  AgingModel move_assigned;
  move_assigned = std::move(assigned);
  EXPECT_EQ(engine::key_of(move_assigned), key);
  // Assigning back over a multi-mechanism model takes the default's key.
  move_assigned = AgingModel{};
  EXPECT_EQ(engine::key_of(move_assigned), engine::key_of(AgingModel{}));
}

TEST(StoreKeyPin, RecordKeys) {
  const CellLibrary lib = make_nangate45_like();
  EXPECT_EQ(hex(engine::fingerprint(lib)), "f331e8262fc5c406");

  const ComponentSpec adder8{ComponentKind::adder, 8, 0, AdderArch::ripple,
                             MultArch::array};
  const std::vector<AgingScenario> scenarios = {{StressMode::worst, 10.0}};
  const AgingModel model;
  const StaOptions sta;
  const std::string path =
      ::testing::TempDir() + "key_pin_test_store.aapx";
  std::remove(path.c_str());
  {
    // The aged delay query builds a netlist, an aged library and a delay
    // entry, all kept in memory only: the file holds the surface alone.
    Context ctx;
    ctx.store().aged_sta_delay(lib, adder8, model, StressMode::worst, 10.0,
                               sta);
    ctx.store().surface(lib, model, adder8, scenarios, 6, 1, sta, [&] {
      ComponentCharacterization c;
      c.base = adder8;
      c.scenarios = scenarios;
      return c;
    });
    ASSERT_TRUE(ctx.store().save(path));
  }
  const engine::StoreFileData data = engine::load_store_file(path);
  std::remove(path.c_str());
  ASSERT_TRUE(data.header_ok);
  ASSERT_EQ(data.records.size(), 1u);
  EXPECT_EQ(data.records[0].kind, engine::RecordKind::surface);
  EXPECT_EQ(hex(data.records[0].key), "ea32545e8cbfde24");
}

}  // namespace
}  // namespace aapx
