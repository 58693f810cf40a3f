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

/// The tracer is process-global; every test leaves it disabled and empty.
class TraceTest : public ::testing::Test {
 protected:
  void TearDown() override { Tracer::instance().discard(); }

  static JsonValue collect() {
    std::ostringstream os;
    Tracer::instance().stop_and_write(os);
    auto doc = json_parse(os.str());
    EXPECT_TRUE(doc.has_value()) << os.str();
    return doc.value_or(JsonValue{});
  }
};

TEST_F(TraceTest, DisabledSpansRecordNothing) {
  ASSERT_FALSE(Tracer::instance().enabled());
  {
    Span a("outer");
    Span b("inner", 42);
  }
  EXPECT_EQ(Tracer::instance().event_count(), 0u);
}

TEST_F(TraceTest, NeverStartedWritesAnEmptyValidDocument) {
  const JsonValue doc = collect();
  EXPECT_TRUE(validate_trace(doc).empty());
  EXPECT_EQ(summarize_trace(doc).events, 0u);
}

TEST_F(TraceTest, NestedSpansBalanceAndValidate) {
  Tracer::instance().start();
  EXPECT_TRUE(Tracer::instance().enabled());
  {
    Span outer("outer");
    { Span inner("inner", 7); }
    { Span inner("inner"); }
  }
  const JsonValue doc = collect();
  EXPECT_FALSE(Tracer::instance().enabled());
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
  Tracer::instance().start();
  { Span s("sized", 12345); }
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
  Tracer::instance().start();
  parallel_for(64, [&](std::size_t i) {
    Span s("grain", static_cast<std::uint64_t>(i));
  }, 4);
  const JsonValue doc = collect();
  EXPECT_TRUE(validate_trace(doc).empty());

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
  Tracer::instance().start();
  { Span s("dropped"); }
  EXPECT_GT(Tracer::instance().event_count(), 0u);
  Tracer::instance().discard();
  EXPECT_FALSE(Tracer::instance().enabled());
  EXPECT_EQ(Tracer::instance().event_count(), 0u);
}

TEST_F(TraceTest, SpanCaptureRecordsSpansWithGlobalTracerOff) {
  ASSERT_FALSE(Tracer::instance().enabled());
  SpanCapture capture;
  {
    Span outer("outer");
    { Span inner("inner"); }
  }
  ASSERT_EQ(capture.spans().size(), 2u);
  EXPECT_EQ(capture.dropped(), 0u);
  // Begin order, with nesting depth; both closed before we looked.
  EXPECT_STREQ(capture.spans()[0].name, "outer");
  EXPECT_EQ(capture.spans()[0].depth, 0);
  EXPECT_STREQ(capture.spans()[1].name, "inner");
  EXPECT_EQ(capture.spans()[1].depth, 1);
  EXPECT_GE(capture.spans()[0].dur_us, capture.spans()[1].dur_us);
  EXPECT_GE(capture.spans()[1].dur_us, 0.0);
  EXPECT_GE(capture.spans()[1].start_us, capture.spans()[0].start_us);
  // The sink never fed the global tracer.
  EXPECT_EQ(Tracer::instance().event_count(), 0u);
}

TEST_F(TraceTest, SpanCaptureDropsBeyondMaxSpansWithoutLeakingDepth) {
  SpanCapture capture(2);
  { Span a("kept-1"); }
  {
    Span b("kept-2");
    { Span c("dropped-child"); }  // over capacity: counted, not stored
  }
  { Span d("dropped-sibling"); }
  ASSERT_EQ(capture.spans().size(), 2u);
  EXPECT_EQ(capture.dropped(), 2u);
  EXPECT_STREQ(capture.spans()[0].name, "kept-1");
  EXPECT_STREQ(capture.spans()[1].name, "kept-2");
  // The dropped child must not have left the depth counter raised.
  EXPECT_EQ(capture.spans()[1].depth, 0);
}

TEST_F(TraceTest, SpanCaptureSinksNestAndRestore) {
  SpanCapture outer_sink;
  { Span a("to-outer"); }
  {
    SpanCapture inner_sink;
    { Span b("to-inner"); }
    ASSERT_EQ(inner_sink.spans().size(), 1u);
    EXPECT_STREQ(inner_sink.spans()[0].name, "to-inner");
  }
  { Span c("to-outer-again"); }
  // The inner sink shadowed the outer one only while alive.
  ASSERT_EQ(outer_sink.spans().size(), 2u);
  EXPECT_STREQ(outer_sink.spans()[0].name, "to-outer");
  EXPECT_STREQ(outer_sink.spans()[1].name, "to-outer-again");
}

TEST_F(TraceTest, SpanCaptureAlsoFeedsTheGlobalTracer) {
  Tracer::instance().start();
  {
    SpanCapture capture;
    { Span s("both"); }
    ASSERT_EQ(capture.spans().size(), 1u);
  }
  // "ALSO recorded here": the global tracer got its B/E pair too.
  EXPECT_EQ(Tracer::instance().event_count(), 2u);
  const JsonValue doc = collect();
  EXPECT_TRUE(validate_trace(doc).empty());
}

TEST_F(TraceTest, RestartClearsPreviousEvents) {
  Tracer::instance().start();
  { Span s("first"); }
  Tracer::instance().start();
  { Span s("second"); }
  const JsonValue doc = collect();
  const TraceSummary sum = summarize_trace(doc);
  ASSERT_EQ(sum.spans.size(), 1u);
  EXPECT_EQ(sum.spans[0].name, "second");
}

}  // namespace
}  // namespace aapx::obs
