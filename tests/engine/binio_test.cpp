// Byte layout of the store codec. Round-trip tests cannot see a writer and
// reader that agree on a wrong layout (say, both swapping bytes), so these
// pin the exact LSB-first bytes of each primitive and of one surface payload
// (the one store record kind), and check that every truncated word read
// throws.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>

#include "aging/aging_model.hpp"
#include "engine/binio.hpp"
#include "engine/persist.hpp"

namespace aapx {
namespace {

std::string to_hex(const std::string& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out += kDigits[b >> 4];
    out += kDigits[b & 0xfU];
  }
  return out;
}

TEST(CodecLayoutTest, WriterEmitsPinnedLsbFirstBytes) {
  engine::BinWriter w;
  w.u32(0x04030201U);
  EXPECT_EQ(to_hex(w.take()), "01020304");
  w.u64(0x0807060504030201ULL);
  EXPECT_EQ(to_hex(w.take()), "0102030405060708");
  w.i32(-2);
  EXPECT_EQ(to_hex(w.take()), "feffffff");
  w.f64(1.0);
  EXPECT_EQ(to_hex(w.take()), "000000000000f03f");
  w.f64(-2.5);
  EXPECT_EQ(to_hex(w.take()), "00000000000004c0");
  w.str("ab");
  EXPECT_EQ(to_hex(w.take()), "02000000000000006162");
  w.f64_vec({0.5});
  EXPECT_EQ(to_hex(w.take()), "0100000000000000000000000000e03f");
}

TEST(CodecLayoutTest, ReaderDecodesPinnedBytes) {
  const std::string bytes =
      std::string("\x01\x02\x03\x04", 4) +
      std::string("\x01\x02\x03\x04\x05\x06\x07\x08", 8) +
      std::string("\x00\x00\x00\x00\x00\x00\xf0\x3f", 8) +
      std::string("\x02\x00\x00\x00\x00\x00\x00\x00", 8) + "ab";
  engine::BinReader r(bytes);
  EXPECT_EQ(r.u32(), 0x04030201U);
  EXPECT_EQ(r.u64(), 0x0807060504030201ULL);
  EXPECT_EQ(r.f64(), 1.0);
  EXPECT_EQ(r.str(), "ab");
  EXPECT_TRUE(r.at_end());
}

TEST(CodecLayoutTest, EveryTruncatedWordReadThrows) {
  const std::string bytes(8, '\x5a');
  for (std::size_t left = 0; left < 8; ++left) {
    const std::string cut = bytes.substr(0, left);
    if (left < 4) {
      engine::BinReader r(cut);
      EXPECT_THROW(r.u32(), std::runtime_error) << left << " bytes left";
    }
    engine::BinReader r64(cut);
    EXPECT_THROW(r64.u64(), std::runtime_error) << left << " bytes left";
    engine::BinReader rf(cut);
    EXPECT_THROW(rf.f64(), std::runtime_error) << left << " bytes left";
  }
  // The same at an offset: one word read, then the truncated one.
  const std::string seven = bytes.substr(0, 4 + 3);
  engine::BinReader r(seven);
  EXPECT_EQ(r.u32(), 0x5a5a5a5aU);
  EXPECT_THROW(r.u32(), std::runtime_error);
}

TEST(CodecLayoutTest, RecordPayloadsMatchPinnedBytes) {
  constexpr std::uint64_t kLibFp = 0x1122334455667788ULL;
  const ComponentSpec spec{ComponentKind::adder, 2, 0, AdderArch::ripple,
                           MultArch::array};

  engine::SurfacePayload s;
  s.lib_fp = kLibFp;
  s.min_precision = 1;
  s.precision_step = 1;
  s.scenarios = {AgingScenario::fresh(), {StressMode::balanced, 5.0}};
  s.surface.base = spec;
  s.surface.scenarios = s.scenarios;
  s.surface.points = {{2, 80.5, 3.5, 2, {80.5, 90.25}}};
  EXPECT_EQ(to_hex(engine::encode_surface_payload(s)),
            "88776655443322110100000000000000000000009a9999999999f13fcdcccccc"
            "ccccdc3f174850fc1873a73f295c8fc2f5289c3f7b14ae47e17ac43f00000000"
            "0000e03fcdccccccccccf43f000000000000f03f666666666662764066666666"
            "666276407b14ae47e17ab43ffa7e6abc7493783f666666666666e63fcdcccccc"
            "ccccdc3f000000000000f03f9a9999999999a9bf666666666662764000000000"
            "000000400000000000407f40000000000000f03f0000000000000040cdcccccc"
            "ccccec3f6666666666627640000000000000f83f00000000000089409a999999"
            "9999f13f0000000000003e40333333333333e33f666666666662764000000000"
            "0000344000000000000010400100000001000000020000000000000000000000"
            "0000000000000000010000000000000000001440000000000200000000000000"
            "0000000000000000000000000100000000000000020000000000000000205440"
            "0000000000000c40020000000000000002000000000000000000000000205440"
            "0000000000905640");
}

}  // namespace
}  // namespace aapx
