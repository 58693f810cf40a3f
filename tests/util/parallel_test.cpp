#include "util/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace aapx {
namespace {

TEST(ParallelTest, CallsEveryIndexExactlyOnce) {
  constexpr std::size_t n = 10'000;
  std::vector<std::atomic<int>> hits(n);
  parallel_for(n, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelTest, ZeroIterationsIsANoOp) {
  std::atomic<int> calls{0};
  parallel_for(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelTest, ResultsIdenticalAcrossThreadCounts) {
  constexpr std::size_t n = 4096;
  const auto body = [](std::size_t i) {
    return std::sin(static_cast<double>(i)) * 1e9;
  };
  std::vector<double> serial(n), pooled(n);
  parallel_for(n, [&](std::size_t i) { serial[i] = body(i); }, 1);
  for (const int threads : {2, 4, 8}) {
    parallel_for(n, [&](std::size_t i) { pooled[i] = body(i); }, threads);
    // Bit-identical, not approximately equal: each slot is written by the
    // same pure computation regardless of which worker ran it.
    ASSERT_EQ(serial, pooled) << threads << " threads";
  }
}

TEST(ParallelTest, NestedLoopsSerializeAndStayCorrect) {
  constexpr std::size_t outer = 8, inner = 64;
  std::vector<std::vector<int>> grid(outer, std::vector<int>(inner, 0));
  std::atomic<int> nested_regions{0};
  parallel_for(outer, [&](std::size_t o) {
    EXPECT_TRUE(in_parallel_region());
    parallel_for(inner, [&](std::size_t i) {
      grid[o][i] = static_cast<int>(o * inner + i);
    });
    ++nested_regions;
  }, 4);
  EXPECT_FALSE(in_parallel_region());
  EXPECT_EQ(nested_regions.load(), static_cast<int>(outer));
  for (std::size_t o = 0; o < outer; ++o) {
    for (std::size_t i = 0; i < inner; ++i) {
      ASSERT_EQ(grid[o][i], static_cast<int>(o * inner + i));
    }
  }
}

TEST(ParallelTest, ExceptionPropagatesAndPoolStaysUsable) {
  std::vector<std::atomic<int>> hits(512);
  EXPECT_THROW(
      parallel_for(hits.size(), [&](std::size_t i) {
        hits[i].fetch_add(1);
        if (i == 100) throw std::runtime_error("body failed");
      }, 4),
      std::runtime_error);
  // A failed loop stops handing out chunks but never runs an index twice.
  EXPECT_EQ(hits[100].load(), 1);
  for (std::size_t i = 0; i < hits.size(); ++i) {
    ASSERT_LE(hits[i].load(), 1) << "index " << i;
  }
  // The pool survives the failure and serves the next loop normally.
  std::atomic<int> calls{0};
  parallel_for(256, [&](std::size_t) { ++calls; }, 4);
  EXPECT_EQ(calls.load(), 256);
}

}  // namespace
}  // namespace aapx
