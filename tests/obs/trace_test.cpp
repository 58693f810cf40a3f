#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>

#include "obs/json.hpp"
#include "obs/report.hpp"
#include "util/parallel.hpp"

namespace aapx::obs {
namespace {

class TraceTest : public ::testing::Test {
 protected:
  JsonValue collect() {
    std::ostringstream os;
    tracer_.stop_and_write(os);
    auto doc = json_parse(os.str());
    EXPECT_TRUE(doc.has_value()) << os.str();
    return doc.value_or(JsonValue{});
  }

  Tracer tracer_;
};

TEST_F(TraceTest, DisabledSpansRecordNothing) {
  ASSERT_FALSE(tracer_.enabled());
  {
    Span a(&tracer_, "outer");
    Span b(&tracer_, "inner", 42);
    Span c(nullptr, "no tracer");
  }
  EXPECT_EQ(tracer_.event_count(), 0u);
}

TEST_F(TraceTest, NeverStartedWritesAnEmptyValidDocument) {
  const JsonValue doc = collect();
  EXPECT_TRUE(validate_trace(doc).empty());
  EXPECT_EQ(summarize_trace(doc).events, 0u);
}

TEST_F(TraceTest, NestedSpansBalanceAndValidate) {
  tracer_.start();
  EXPECT_TRUE(tracer_.enabled());
  {
    Span outer(&tracer_, "outer");
    { Span inner(&tracer_, "inner", 7); }
    { Span inner(&tracer_, "inner"); }
  }
  const JsonValue doc = collect();
  EXPECT_FALSE(tracer_.enabled());
  EXPECT_TRUE(validate_trace(doc).empty()) << validate_trace(doc).front();

  const TraceSummary sum = summarize_trace(doc);
  EXPECT_EQ(sum.events, 6u);  // 3 spans x (B + E)
  ASSERT_EQ(sum.spans.size(), 2u);
  // Sorted by inclusive time: outer contains both inners.
  EXPECT_EQ(sum.spans[0].name, "outer");
  EXPECT_EQ(sum.spans[0].count, 1u);
  EXPECT_EQ(sum.spans[1].name, "inner");
  EXPECT_EQ(sum.spans[1].count, 2u);
  EXPECT_GE(sum.spans[0].incl_us, sum.spans[1].incl_us);
  EXPECT_GE(sum.spans[0].max_us, 0.0);
}

TEST_F(TraceTest, SpanArgumentAppearsOnBeginEvent) {
  tracer_.start();
  { Span s(&tracer_, "sized", 12345); }
  const JsonValue doc = collect();
  const JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  bool found = false;
  for (const JsonValue& e : events->array) {
    if (e.str_or("ph", "") == "B" && e.str_or("name", "") == "sized") {
      const JsonValue* args = e.find("args");
      ASSERT_NE(args, nullptr);
      EXPECT_DOUBLE_EQ(args->num_or("n", 0), 12345.0);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(TraceTest, WorkerSpansLandOnTheirOwnThreadRows) {
  // Worker spawn is driven by the requested thread count, not the core
  // count, so this holds even on a single-core host.
  tracer_.start();
  parallel_for(64, [&](std::size_t i) {
    Span s(&tracer_, "grain", static_cast<std::uint64_t>(i));
  }, 4, &tracer_);
  const JsonValue doc = collect();
  EXPECT_TRUE(validate_trace(doc).empty());
  std::set<std::string> names;
  for (const SpanStat& st : summarize_trace(doc).spans) names.insert(st.name);
  EXPECT_EQ(names, (std::set<std::string>{"grain", "parallel_for",
                                          "parallel_for.work"}));

  std::set<double> tids;
  std::set<std::string> thread_names;
  const JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  for (const JsonValue& e : events->array) {
    const std::string ph = e.str_or("ph", "");
    if (ph == "B") tids.insert(e.num_or("tid", -1));
    if (ph == "M" && e.str_or("name", "") == "thread_name") {
      const JsonValue* args = e.find("args");
      if (args != nullptr) thread_names.insert(args->str_or("name", ""));
    }
  }
  // The caller participates in the loop alongside the workers; with 64
  // grains and chunked handout at least two threads must have run spans.
  EXPECT_GE(tids.size(), 2u);
  EXPECT_GE(summarize_trace(doc).threads, 2u);
  // Workers named themselves at spawn.
  bool saw_worker = false;
  for (const std::string& n : thread_names) {
    if (n.rfind("aapx-worker-", 0) == 0) saw_worker = true;
  }
  EXPECT_TRUE(saw_worker);
}

TEST_F(TraceTest, DiscardDropsEverything) {
  tracer_.start();
  { Span s(&tracer_, "dropped"); }
  EXPECT_GT(tracer_.event_count(), 0u);
  tracer_.discard();
  EXPECT_FALSE(tracer_.enabled());
  EXPECT_EQ(tracer_.event_count(), 0u);
}

TEST_F(TraceTest, AlternatingTracersOnOneThreadStayDisjoint) {
  // One thread switching between two live tracers misses its buffer cache
  // on every switch; each event must still land in its own tracer.
  Tracer other;
  tracer_.start();
  other.start();
  for (int i = 0; i < 3; ++i) {
    Span a(&tracer_, "mine");
    Span b(&other, "theirs");
  }
  EXPECT_EQ(tracer_.event_count(), 6u);
  EXPECT_EQ(other.event_count(), 6u);
  const TraceSummary sum = summarize_trace(collect());
  ASSERT_EQ(sum.spans.size(), 1u);
  EXPECT_EQ(sum.spans[0].name, "mine");
  EXPECT_EQ(sum.spans[0].count, 3u);
  other.discard();
}

TEST_F(TraceTest, RestartClearsPreviousEvents) {
  tracer_.start();
  { Span s(&tracer_, "first"); }
  tracer_.start();
  { Span s(&tracer_, "second"); }
  const JsonValue doc = collect();
  const TraceSummary sum = summarize_trace(doc);
  ASSERT_EQ(sum.spans.size(), 1u);
  EXPECT_EQ(sum.spans[0].name, "second");
}

}  // namespace
}  // namespace aapx::obs
