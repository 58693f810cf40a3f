#include "image/synthetic.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>

#include "util/hash.hpp"

namespace aapx {
namespace {

TEST(SyntheticTest, AllNineSequencesPresent) {
  const auto& names = video_trace_names();
  ASSERT_EQ(names.size(), 9u);
  EXPECT_EQ(names.front(), "akiyo");
  EXPECT_EQ(names.back(), "suzie");
}

TEST(SyntheticTest, Deterministic) {
  const Image a = make_video_trace_frame("foreman", 64, 48);
  const Image b = make_video_trace_frame("foreman", 64, 48);
  EXPECT_EQ(a.data(), b.data());
}

TEST(SyntheticTest, DistinctSequencesDiffer) {
  const Image a = make_video_trace_frame("akiyo", 64, 48);
  const Image b = make_video_trace_frame("mobile", 64, 48);
  EXPECT_NE(a.data(), b.data());
}

TEST(SyntheticTest, UnknownNameThrows) {
  EXPECT_THROW(make_video_trace_frame("bogus"), std::invalid_argument);
  EXPECT_THROW(sequence_detail_level("bogus"), std::invalid_argument);
}

TEST(SyntheticTest, RequestedDimensions) {
  const Image img = make_video_trace_frame("suzie", 120, 96);
  EXPECT_EQ(img.width(), 120);
  EXPECT_EQ(img.height(), 96);
}

TEST(SyntheticTest, MobileIsMostDetailed) {
  for (const auto& name : video_trace_names()) {
    EXPECT_LE(sequence_detail_level(name), sequence_detail_level("mobile"));
  }
  EXPECT_LT(sequence_detail_level("miss"), sequence_detail_level("foreman"));
}

/// High-frequency energy proxy: mean absolute horizontal gradient.
double gradient_energy(const Image& img) {
  double acc = 0.0;
  for (int y = 0; y < img.height(); ++y) {
    for (int x = 1; x < img.width(); ++x) {
      acc += std::abs(static_cast<int>(img.at(x, y)) -
                      static_cast<int>(img.at(x - 1, y)));
    }
  }
  return acc / (img.width() * img.height());
}

TEST(SyntheticTest, DetailLevelOrdersActualFrequencyContent) {
  // mobile (detail 1.0) must carry far more high-frequency energy than the
  // smooth head-and-shoulders sequences — the property behind the Fig. 8b
  // per-image PSNR spread.
  const double mobile = gradient_energy(make_video_trace_frame("mobile", 96, 80));
  const double miss = gradient_energy(make_video_trace_frame("miss", 96, 80));
  const double akiyo = gradient_energy(make_video_trace_frame("akiyo", 96, 80));
  EXPECT_GT(mobile, 2.0 * miss);
  EXPECT_GT(mobile, 2.0 * akiyo);
}

TEST(SyntheticTest, PixelsUseFullRangeSensibly) {
  const Image img = make_video_trace_frame("carphone", 96, 80);
  int lo = 255;
  int hi = 0;
  for (const std::uint8_t p : img.data()) {
    lo = std::min<int>(lo, p);
    hi = std::max<int>(hi, p);
  }
  EXPECT_LT(lo, 80);   // has dark content
  EXPECT_GT(hi, 180);  // has bright content
}

TEST(SyntheticTest, FramesArePinned) {
  // FNV-1a digests of every frame at CIF and QCIF. The frames feed every
  // PSNR baseline in bench/results, so any change to the generator must
  // keep them bit-identical.
  const std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> kWant = {
      {"akiyo", {0x134369ed6880054eULL, 0x985aa9accf5b6e33ULL}},
      {"carphone", {0xf796509b82b58f29ULL, 0x7c917d27cda24929ULL}},
      {"foreman", {0xa5faaf5623bc76f9ULL, 0x11eeecd4afb991cdULL}},
      {"grand", {0x3e9783373a085a50ULL, 0x0b5f14d2188809fcULL}},
      {"miss", {0x82fb0ebd0afc2ab8ULL, 0x7c521141775e4513ULL}},
      {"mobile", {0x82669d60ab91e8a4ULL, 0x62b82d91aa3e9166ULL}},
      {"mother", {0xf52b6bf55c6d3b36ULL, 0xb2b9dbbb6c98d019ULL}},
      {"salesman", {0x1176b28018b06248ULL, 0x54df69b68ed9e462ULL}},
      {"suzie", {0x482249379893e17bULL, 0x785265e0dd7206e8ULL}},
  };
  for (const auto& name : video_trace_names()) {
    const Image cif = make_video_trace_frame(name, 352, 288);
    const Image qcif = make_video_trace_frame(name, 176, 144);
    const std::uint64_t got_cif =
        Hasher{}.bytes(cif.data().data(), cif.data().size()).digest();
    const std::uint64_t got_qcif =
        Hasher{}.bytes(qcif.data().data(), qcif.data().size()).digest();
    ASSERT_EQ(kWant.count(name), 1u) << name;
    EXPECT_EQ(got_cif, kWant.at(name).first) << name << " 352x288";
    EXPECT_EQ(got_qcif, kWant.at(name).second) << name << " 176x144";
  }
}

}  // namespace
}  // namespace aapx
