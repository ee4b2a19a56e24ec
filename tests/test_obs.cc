// Unit tests for oct::obs: metrics registry (counters, gauges, histograms,
// exemplars, concurrency), scoped trace spans (nesting, explicit parent
// ids, cross-thread trace contexts, enable gate), tail-based sampling, the
// SLO burn-rate engine, the pump watchdog, and the JSON / Chrome-trace
// exporters (validated with a small JSON parser).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "fault/failpoint.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/slow_log.h"
#include "obs/span_ring.h"
#include "obs/tail_sampler.h"
#include "obs/trace.h"
#include "obs/trace_context.h"
#include "obs/watchdog.h"

namespace oct {
namespace obs {
namespace {

// ---------------------------------------------------------------------------
// Minimal recursive-descent JSON validator (syntax only). Good enough to
// prove exporter output parses; not a general-purpose parser.
// ---------------------------------------------------------------------------

class JsonValidator {
 public:
  explicit JsonValidator(const std::string& text) : text_(text) {}

  bool Valid() {
    pos_ = 0;
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == text_.size();
  }

 private:
  void SkipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  bool Literal(const char* lit) {
    const size_t len = std::char_traits<char>::length(lit);
    if (text_.compare(pos_, len, lit) != 0) return false;
    pos_ += len;
    return true;
  }
  bool String() {
    if (pos_ >= text_.size() || text_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
      }
      ++pos_;
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // Closing quote.
    return true;
  }
  bool Number() {
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    size_t digits = 0;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
      ++digits;
    }
    if (digits == 0) {
      pos_ = start;
      return false;
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    return true;
  }
  bool Value() {
    SkipWs();
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }
  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != ':') return false;
      ++pos_;
      if (!Value()) return false;
      SkipWs();
      if (pos_ >= text_.size()) return false;
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }
  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      if (!Value()) return false;
      SkipWs();
      if (pos_ >= text_.size()) return false;
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

TEST(Counter, AccumulatesAcrossThreads) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("test.counter");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([counter] {
      for (int i = 0; i < kPerThread; ++i) counter->Increment();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter->Value(), static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(Counter, IncrementWithDelta) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("test.delta");
  counter->Increment(5);
  counter->Increment();
  counter->Increment(100);
  EXPECT_EQ(counter->Value(), 106u);
}

TEST(MetricsRegistry, SameNameReturnsSamePointer) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.GetCounter("x"), registry.GetCounter("x"));
  EXPECT_EQ(registry.GetGauge("x"), registry.GetGauge("x"));
  EXPECT_EQ(registry.GetHistogram("x"), registry.GetHistogram("x"));
  EXPECT_NE(registry.GetCounter("x"), registry.GetCounter("y"));
}

TEST(MetricsRegistry, ConcurrentGetOrCreateIsSafe) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  std::vector<Counter*> seen(kThreads, nullptr);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, &seen, t] {
      for (int i = 0; i < 1000; ++i) {
        Counter* c = registry.GetCounter("contended");
        c->Increment();
        seen[t] = c;
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t], seen[0]);
  EXPECT_EQ(seen[0]->Value(), 8000u);
}

TEST(Gauge, SetAddValue) {
  MetricsRegistry registry;
  Gauge* gauge = registry.GetGauge("test.gauge");
  EXPECT_EQ(gauge->Value(), 0);
  gauge->Set(42);
  EXPECT_EQ(gauge->Value(), 42);
  gauge->Add(-50);
  EXPECT_EQ(gauge->Value(), -8);
}

TEST(Histogram, SnapshotCountsSumMinMax) {
  MetricsRegistry registry;
  Histogram* hist = registry.GetHistogram("test.hist");
  hist->Record(1.5);
  hist->Record(3.0);
  hist->Record(100.0);
  const HistogramSnapshot snap = hist->Snapshot();
  EXPECT_EQ(snap.count, 3u);
  EXPECT_DOUBLE_EQ(snap.sum, 104.5);
  EXPECT_DOUBLE_EQ(snap.min, 1.5);
  EXPECT_DOUBLE_EQ(snap.max, 100.0);
  EXPECT_NEAR(snap.Mean(), 104.5 / 3.0, 1e-12);
}

TEST(Histogram, PercentilesBracketBimodalDistribution) {
  MetricsRegistry registry;
  Histogram* hist = registry.GetHistogram("test.p");
  // 90 fast ops (~1.5us) and 10 slow ops (~1000us): p50 must sit in the
  // fast bucket, p99 near the slow mode.
  for (int i = 0; i < 90; ++i) hist->Record(1.5);
  for (int i = 0; i < 10; ++i) hist->Record(1000.0);
  const HistogramSnapshot snap = hist->Snapshot();
  EXPECT_GE(snap.p50, 1.5);
  EXPECT_LE(snap.p50, 2.0);  // Bucket [1, 2), clamped to observed min.
  EXPECT_GE(snap.p99, 512.0);   // Slow mode's bucket is [512, 1024).
  EXPECT_LE(snap.p99, 1000.0);  // Clamped to observed max.
  EXPECT_GE(snap.p95, snap.p50);
  EXPECT_GE(snap.p99, snap.p95);
}

TEST(Histogram, PercentileOfEmptyIsZero) {
  MetricsRegistry registry;
  Histogram* hist = registry.GetHistogram("test.empty");
  EXPECT_EQ(hist->Count(), 0u);
  EXPECT_DOUBLE_EQ(hist->Percentile(50.0), 0.0);
}

TEST(Histogram, OverflowBucketUsesObservedMax) {
  MetricsRegistry registry;
  Histogram* hist = registry.GetHistogram("test.overflow");
  const double huge = 1e30;  // Far beyond the last finite bucket bound.
  hist->Record(huge);
  EXPECT_DOUBLE_EQ(hist->Percentile(99.0), huge);
}

TEST(Histogram, BucketBoundsArePowersOfTwo) {
  EXPECT_DOUBLE_EQ(Histogram::BucketLowerBound(0), 0.0);
  EXPECT_DOUBLE_EQ(Histogram::BucketUpperBound(0), 1.0);
  EXPECT_DOUBLE_EQ(Histogram::BucketLowerBound(1), 1.0);
  EXPECT_DOUBLE_EQ(Histogram::BucketUpperBound(1), 2.0);
  EXPECT_DOUBLE_EQ(Histogram::BucketLowerBound(10), 512.0);
  EXPECT_DOUBLE_EQ(Histogram::BucketUpperBound(10), 1024.0);
}

TEST(MetricsRegistry, ResetZeroesEverything) {
  MetricsRegistry registry;
  registry.GetCounter("c")->Increment(7);
  registry.GetGauge("g")->Set(7);
  registry.GetHistogram("h")->Record(7.0);
  registry.Reset();
  EXPECT_EQ(registry.GetCounter("c")->Value(), 0u);
  EXPECT_EQ(registry.GetGauge("g")->Value(), 0);
  EXPECT_EQ(registry.GetHistogram("h")->Count(), 0u);
}

TEST(MetricsRegistry, ValuesAreNameSorted) {
  MetricsRegistry registry;
  registry.GetCounter("zeta")->Increment();
  registry.GetCounter("alpha")->Increment(2);
  const auto values = registry.CounterValues();
  ASSERT_EQ(values.size(), 2u);
  EXPECT_EQ(values[0].first, "alpha");
  EXPECT_EQ(values[0].second, 2u);
  EXPECT_EQ(values[1].first, "zeta");
}

TEST(MetricsRegistry, DefaultIsSingleton) {
  EXPECT_EQ(MetricsRegistry::Default(), MetricsRegistry::Default());
}

// ---------------------------------------------------------------------------
// Trace spans
// ---------------------------------------------------------------------------

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ClearSpans();
    SetTracingEnabled(true);
  }
  void TearDown() override {
    SetTracingEnabled(false);
    ClearSpans();
  }
};

TEST_F(TraceTest, NestedSpansRecordDepthAndContainment) {
  {
    OCT_SPAN("outer");
    {
      OCT_SPAN("middle");
      { OCT_SPAN("inner"); }
    }
    { OCT_SPAN("sibling"); }
  }
  const std::vector<SpanEvent> spans = CollectSpans();
  ASSERT_EQ(spans.size(), 4u);
  const SpanEvent* outer = nullptr;
  const SpanEvent* middle = nullptr;
  const SpanEvent* inner = nullptr;
  const SpanEvent* sibling = nullptr;
  for (const SpanEvent& e : spans) {
    const std::string name = e.name;
    if (name == "outer") outer = &e;
    if (name == "middle") middle = &e;
    if (name == "inner") inner = &e;
    if (name == "sibling") sibling = &e;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(middle, nullptr);
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(sibling, nullptr);
  EXPECT_EQ(outer->depth, 0u);
  EXPECT_EQ(middle->depth, 1u);
  EXPECT_EQ(inner->depth, 2u);
  EXPECT_EQ(sibling->depth, 1u);
  // Time containment: children within parents.
  EXPECT_GE(middle->start_ns, outer->start_ns);
  EXPECT_LE(middle->end_ns, outer->end_ns);
  EXPECT_GE(inner->start_ns, middle->start_ns);
  EXPECT_LE(inner->end_ns, middle->end_ns);
  // All on one thread.
  EXPECT_EQ(middle->thread_id, outer->thread_id);
  EXPECT_EQ(inner->thread_id, outer->thread_id);
}

TEST_F(TraceTest, DisabledTracingRecordsNothing) {
  SetTracingEnabled(false);
  { OCT_SPAN("invisible"); }
  EXPECT_TRUE(CollectSpans().empty());
}

TEST_F(TraceTest, SpanOpenAcrossDisableStillCloses) {
  std::vector<SpanEvent> spans;
  {
    OCT_SPAN("closing");
    SetTracingEnabled(false);
  }
  spans = CollectSpans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_STREQ(spans[0].name, "closing");
}

TEST_F(TraceTest, CompletedSpansFeedTheInstalledRingAndCollection) {
  SpanRing ring(64);
  SpanRing::InstallGlobal(&ring);
  { OCT_SPAN("ringed"); }
  SpanRing::InstallGlobal(nullptr);

  const auto latest = ring.Latest(8);
  ASSERT_EQ(latest.size(), 1u);
  EXPECT_STREQ(latest[0].name, "ringed");
  // The ring is a copy, not a diversion: collection still sees the span.
  const auto spans = CollectSpans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_STREQ(spans[0].name, "ringed");
}

TEST_F(TraceTest, SpanFinishingAfterRingUninstallIsSafe) {
  // The exposition server's Stop() (or a test tearing its ring down) can
  // race a span that is still open; the span must complete into the
  // collection buffer without touching the departed ring.
  SpanRing ring(64);
  {
    SpanRing::InstallGlobal(&ring);
    OCT_SPAN("outlives_ring");
    SpanRing::InstallGlobal(nullptr);
  }
  EXPECT_EQ(ring.total_added(), 0u);
  const auto spans = CollectSpans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_STREQ(spans[0].name, "outlives_ring");
}

TEST_F(TraceTest, PerThreadBufferCapDropsAreCounted) {
  // Mirrors kMaxEventsPerThread in trace.cc: a runaway traced loop stops
  // growing its buffer at the cap and counts the overflow instead of
  // silently discarding it.
  constexpr size_t kCap = 1 << 20;
  constexpr size_t kOverflow = 10;
  Counter* dropped = MetricsRegistry::Default()->GetCounter(
      "obs.spans_dropped");
  const uint64_t dropped_before = dropped->Value();

  std::thread flood([] {
    for (size_t i = 0; i < kCap + kOverflow; ++i) {
      OCT_SPAN("flood");
    }
  });
  flood.join();  // Thread exit flushes the capped buffer into the orphans.

  EXPECT_GE(dropped->Value() - dropped_before, kOverflow);
  ClearSpans();  // Discard the ~1M orphaned flood spans without sorting.
}

TEST_F(TraceTest, ThreadsGetDistinctIdsAndAllSpansCollect) {
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] { OCT_SPAN("worker"); });
  }
  for (auto& t : threads) t.join();
  { OCT_SPAN("main"); }
  const std::vector<SpanEvent> spans = CollectSpans();
  ASSERT_EQ(spans.size(), static_cast<size_t>(kThreads) + 1);
  std::vector<uint32_t> tids;
  for (const SpanEvent& e : spans) tids.push_back(e.thread_id);
  std::sort(tids.begin(), tids.end());
  EXPECT_EQ(std::unique(tids.begin(), tids.end()), tids.end());
}

TEST_F(TraceTest, CollectDrainsAndSortsByStart) {
  { OCT_SPAN("a"); }
  { OCT_SPAN("b"); }
  const std::vector<SpanEvent> spans = CollectSpans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_LE(spans[0].start_ns, spans[1].start_ns);
  EXPECT_TRUE(CollectSpans().empty());  // Drained.
}

TEST_F(TraceTest, CoverageOfFullyInstrumentedRootIsNearOne) {
  // Each phase does real work so span durations are nonzero even on coarse
  // clocks.
  volatile double sink = 0.0;
  {
    OCT_SPAN("root");
    {
      OCT_SPAN("phase1");
      for (int i = 0; i < 20000; ++i) sink = sink + i * 0.5;
    }
    {
      OCT_SPAN("phase2");
      for (int i = 0; i < 20000; ++i) sink = sink + i * 0.25;
    }
  }
  const std::vector<SpanEvent> spans = CollectSpans();
  const double coverage = SpanTreeCoverage(spans, "root");
  EXPECT_GT(coverage, 0.0);
  EXPECT_LE(coverage, 1.0 + 1e-9);
  EXPECT_DOUBLE_EQ(SpanTreeCoverage(spans, "missing"), 0.0);
}

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

TEST(Export, MetricsToJsonIsValidAndContainsPercentiles) {
  MetricsRegistry registry;
  registry.GetCounter("runs")->Increment(3);
  registry.GetGauge("depth")->Set(-2);
  Histogram* hist = registry.GetHistogram("lat_us");
  for (int i = 0; i < 100; ++i) hist->Record(i < 90 ? 1.5 : 1000.0);
  const std::string json = MetricsToJson(registry);
  EXPECT_TRUE(JsonValidator(json).Valid()) << json;
  EXPECT_NE(json.find("\"runs\":3"), std::string::npos);
  EXPECT_NE(json.find("\"depth\":-2"), std::string::npos);
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  EXPECT_NE(json.find("\"buckets\""), std::string::npos);
}

TEST(Export, JsonWriterEscapesSpecials) {
  JsonWriter w;
  w.BeginObject();
  w.Key("quote\"back\\slash").String("line\nbreak\ttab");
  w.Key("nan").Double(std::nan(""));
  w.EndObject();
  EXPECT_TRUE(JsonValidator(w.str()).Valid()) << w.str();
  EXPECT_NE(w.str().find("\\n"), std::string::npos);
  EXPECT_NE(w.str().find("\"nan\":null"), std::string::npos);
}

TEST(Export, ChromeTraceHasCompleteEvents) {
  SetTracingEnabled(true);
  ClearSpans();
  {
    OCT_SPAN("outer");
    { OCT_SPAN("inner"); }
  }
  SetTracingEnabled(false);
  const std::vector<SpanEvent> spans = CollectSpans();
  ASSERT_EQ(spans.size(), 2u);
  const std::string json = SpansToChromeTrace(spans);
  EXPECT_TRUE(JsonValidator(json).Valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"outer\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"inner\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":"), std::string::npos);
}

TEST(Export, AggregateSpansSumsByName) {
  std::vector<SpanEvent> events;
  events.push_back({"a", 0, 1000, 0, 1});
  events.push_back({"a", 2000, 5000, 0, 1});
  events.push_back({"b", 0, 10000, 0, 2});
  const std::vector<SpanAggregate> aggs = AggregateSpans(events);
  ASSERT_EQ(aggs.size(), 2u);
  EXPECT_EQ(aggs[0].name, "b");  // Sorted by total time desc.
  EXPECT_EQ(aggs[0].total_ns, 10000u);
  EXPECT_EQ(aggs[1].name, "a");
  EXPECT_EQ(aggs[1].count, 2u);
  EXPECT_EQ(aggs[1].total_ns, 4000u);
  const std::string json = SpansToJson(events);
  EXPECT_TRUE(JsonValidator(json).Valid()) << json;
}

TEST(Export, SpanTreeCoverageCountsDirectChildrenOnly) {
  std::vector<SpanEvent> events;
  events.push_back({"root", 0, 1000, 0, 1});
  events.push_back({"child1", 0, 400, 1, 1});
  events.push_back({"child2", 500, 900, 1, 1});
  events.push_back({"grandchild", 0, 400, 2, 1});  // Not double counted.
  events.push_back({"other_thread", 0, 1000, 1, 2});  // Different tid.
  EXPECT_DOUBLE_EQ(SpanTreeCoverage(events, "root"), 0.8);
}

TEST(Export, WriteStringToFileRoundTrips) {
  const std::string path =
      ::testing::TempDir() + "/oct_obs_export_test.json";
  const std::string content = "{\"hello\":\"world\"}";
  ASSERT_TRUE(WriteStringToFile(path, content).ok());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char buf[64] = {0};
  const size_t n = std::fread(buf, 1, sizeof(buf), f);
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(std::string(buf, n), content);
}

TEST(Export, WriteStringToFileFailsOnBadPath) {
  EXPECT_FALSE(
      WriteStringToFile("/nonexistent-dir-xyz/file.json", "x").ok());
}

// ---------------------------------------------------------------------------
// Trace context and explicit span parenting
// ---------------------------------------------------------------------------

TEST(TraceContext, MintsUniqueIdsAndScopesNestAndRestore) {
  const TraceContext a = StartRequestTrace(nullptr);
  const TraceContext b = StartRequestTrace(nullptr);
  EXPECT_NE(a.trace_id, 0u);
  EXPECT_NE(b.trace_id, 0u);
  EXPECT_NE(a.trace_id, b.trace_id);
  EXPECT_EQ(a.sampler, nullptr);  // No sampler passed.
  EXPECT_FALSE(CurrentTraceContext().valid());
  {
    TraceContextScope outer(a);
    EXPECT_EQ(CurrentTraceContext().trace_id, a.trace_id);
    {
      TraceContextScope inner(b);
      EXPECT_EQ(CurrentTraceContext().trace_id, b.trace_id);
    }
    EXPECT_EQ(CurrentTraceContext().trace_id, a.trace_id);
  }
  EXPECT_FALSE(CurrentTraceContext().valid());
}

TEST(TraceContext, HexRoundTripsAndRejectsGarbage) {
  const uint64_t id = 0xdeadbeefcafef00dULL;
  EXPECT_EQ(TraceIdFromHex(TraceIdToHex(id)), id);
  EXPECT_EQ(TraceIdFromHex("0x" + TraceIdToHex(id)), id);
  EXPECT_EQ(TraceIdFromHex(""), 0u);
  EXPECT_EQ(TraceIdFromHex("not-hex"), 0u);
}

TEST_F(TraceTest, SpansCarryExplicitParentIds) {
  uint64_t outer_id = 0;
  {
    OCT_NAMED_SPAN(outer, "parent/outer");
    outer_id = outer.span_id();
    EXPECT_NE(outer_id, 0u);
    { OCT_SPAN("parent/inner"); }
  }
  const std::vector<SpanEvent> spans = CollectSpans();
  ASSERT_EQ(spans.size(), 2u);
  const SpanEvent* outer = nullptr;
  const SpanEvent* inner = nullptr;
  for (const SpanEvent& e : spans) {
    if (std::string(e.name) == "parent/outer") outer = &e;
    if (std::string(e.name) == "parent/inner") inner = &e;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->span_id, outer_id);
  EXPECT_EQ(outer->parent_id, 0u);
  EXPECT_EQ(inner->parent_id, outer->span_id);
  EXPECT_NE(inner->span_id, outer->span_id);
}

TEST_F(TraceTest, LinkedSpanAttachesUnderExplicitParent) {
  RecordLinkedSpan("link", 10, 20, /*parent_id=*/777);
  const std::vector<SpanEvent> spans = CollectSpans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].parent_id, 777u);
  EXPECT_NE(spans[0].span_id, 0u);
  EXPECT_EQ(spans[0].start_ns, 10u);
  EXPECT_EQ(spans[0].end_ns, 20u);
}

TEST_F(TraceTest, CrossThreadSpansShareTraceViaExplicitContext) {
  const TraceContext ctx = StartRequestTrace(nullptr);
  {
    TraceContextScope scope(ctx);
    OCT_SPAN("trace/caller");
  }
  std::thread worker([&ctx] {
    TraceContextScope scope(ctx);
    OCT_SPAN("trace/worker");
  });
  worker.join();
  { OCT_SPAN("trace/outside"); }

  const std::vector<SpanEvent> spans = CollectSpans();
  ASSERT_EQ(spans.size(), 3u);
  uint32_t caller_tid = 0;
  uint32_t worker_tid = 0;
  for (const SpanEvent& e : spans) {
    const std::string name = e.name;
    if (name == "trace/outside") {
      EXPECT_EQ(e.trace_id, 0u);  // No context installed.
    } else {
      EXPECT_EQ(e.trace_id, ctx.trace_id);
      if (name == "trace/caller") caller_tid = e.thread_id;
      if (name == "trace/worker") worker_tid = e.thread_id;
    }
  }
  // Same request trace reassembled across two distinct threads.
  EXPECT_NE(caller_tid, worker_tid);
}

// ---------------------------------------------------------------------------
// Tail-based sampling
// ---------------------------------------------------------------------------

TEST(TailSampler, PromotesBadTracesDiscardsGoodOnes) {
  SpanRing ring(128);
  SlowLog slow_log(16);
  TailSamplerOptions options;
  options.slow_threshold_us = 1000.0;
  TailSampler sampler(options, ring, slow_log);

  // Fast, clean request: spans buffer pending, the verdict discards them.
  // Tracing is globally off — the tail path alone must record.
  {
    const TraceContext ctx = StartRequestTrace(&sampler);
    EXPECT_EQ(ctx.sampler, &sampler);
    {
      TraceContextScope scope(ctx);
      OCT_SPAN("tail/fast");
    }
    TraceFinish fin;
    fin.total_us = 10.0;
    EXPECT_FALSE(FinishRequestTrace(ctx, fin));
    EXPECT_EQ(ring.total_added(), 0u);
    EXPECT_EQ(slow_log.total_added(), 0u);
  }

  // Slow request: promoted with its spans and a full slow-log entry.
  {
    const TraceContext ctx = StartRequestTrace(&sampler);
    {
      TraceContextScope scope(ctx);
      OCT_SPAN("tail/slow");
    }
    TraceFinish fin;
    fin.total_us = 5000.0;
    fin.query = "red shoes";
    fin.version = 7;
    fin.score_us = 4000.0;
    EXPECT_TRUE(FinishRequestTrace(ctx, fin));
    const auto latest = ring.Latest(8);
    ASSERT_EQ(latest.size(), 1u);
    EXPECT_STREQ(latest[0].name, "tail/slow");
    EXPECT_EQ(latest[0].trace_id, ctx.trace_id);
    const auto entries = slow_log.Latest(8);
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_EQ(entries[0].trace_id, ctx.trace_id);
    EXPECT_EQ(entries[0].query, "red shoes");
    EXPECT_EQ(entries[0].version, 7u);
    EXPECT_EQ(entries[0].reason, TailReason::kSlow);
    EXPECT_DOUBLE_EQ(entries[0].score_us, 4000.0);
  }

  // Shed promotes regardless of latency, even with no spans recorded
  // (rejected at admission), and the worst condition labels the entry.
  {
    const TraceContext ctx = StartRequestTrace(&sampler);
    TraceFinish fin;
    fin.total_us = 5.0;
    fin.shed = true;
    EXPECT_TRUE(FinishRequestTrace(ctx, fin));
    EXPECT_EQ(slow_log.Latest(1)[0].reason, TailReason::kShed);
  }
  {
    const TraceContext ctx = StartRequestTrace(&sampler);
    TraceFinish fin;
    fin.total_us = 5.0;
    fin.errored = true;
    fin.shed = true;  // Error outranks shed.
    EXPECT_TRUE(FinishRequestTrace(ctx, fin));
    EXPECT_EQ(slow_log.Latest(1)[0].reason, TailReason::kError);
  }

  EXPECT_EQ(sampler.traces_started(), 4u);
  EXPECT_EQ(sampler.traces_promoted(), 3u);
  EXPECT_EQ(sampler.traces_discarded(), 1u);
}

TEST(TailSampler, PendingShardBoundEvictsOldest) {
  TailSamplerOptions options;
  options.max_pending_per_shard = 2;
  SpanRing ring(16);
  SlowLog slow_log(4);
  TailSampler sampler(options, ring, slow_log);
  for (int i = 0; i < 64; ++i) (void)StartRequestTrace(&sampler);
  // 64 opens over 8 shards bounded at 2 pending each: evictions must have
  // happened, and the leak is bounded by construction.
  EXPECT_GE(sampler.traces_evicted(), 64u - 8u * 2u);
}

TEST(TailSampler, PerTraceSpanCapDropsExcessSpans) {
  SpanRing ring(256);
  TailSamplerOptions options;
  options.max_spans_per_trace = 4;
  SlowLog slow_log(4);
  TailSampler sampler(options, ring, slow_log);
  const TraceContext ctx = StartRequestTrace(&sampler);
  {
    TraceContextScope scope(ctx);
    for (int i = 0; i < 10; ++i) {
      OCT_SPAN("tail/capped");
    }
  }
  TraceFinish fin;
  fin.errored = true;
  EXPECT_TRUE(FinishRequestTrace(ctx, fin));
  EXPECT_EQ(ring.total_added(), 4u);
}

// ---------------------------------------------------------------------------
// SLO burn-rate engine
// ---------------------------------------------------------------------------

TEST(SloEngine, BurnRateAlertsWhenBothWindowsExceedThreshold) {
  SloEngine engine;
  SloObjectiveSpec spec;
  spec.name = "test.avail";
  spec.description = "test availability";
  spec.target = 0.9;  // Error budget: 10%.
  spec.window_seconds = 300;
  spec.short_window_seconds = 60;
  spec.burn_alert_threshold = 2.0;
  engine.AddObjective(spec);
  EXPECT_EQ(engine.num_objectives(), 1u);

  for (int i = 0; i < 100; ++i) engine.Record("test.avail", true);
  std::vector<SloStatus> status = engine.Check();
  ASSERT_EQ(status.size(), 1u);
  EXPECT_EQ(status[0].total, 100u);
  EXPECT_EQ(status[0].good, 100u);
  EXPECT_DOUBLE_EQ(status[0].burn_long, 0.0);
  EXPECT_FALSE(status[0].alerting);
  EXPECT_FALSE(engine.AnyAlerting());

  // Half the samples go bad: burn = 0.5 / 0.1 = 5x budget in both windows
  // (every sample is recent, so short and long agree) -> alert.
  for (int i = 0; i < 100; ++i) engine.Record("test.avail", false);
  status = engine.Check();
  EXPECT_EQ(status[0].total, 200u);
  EXPECT_GT(status[0].burn_long, 2.0);
  EXPECT_GT(status[0].burn_short, 2.0);
  EXPECT_TRUE(status[0].alerting);
  EXPECT_TRUE(engine.AnyAlerting());
}

TEST(SloEngine, LatencyObjectiveCountsThresholdAndIgnoresUnknownNames) {
  SloEngine engine;
  SloObjectiveSpec spec;
  spec.name = "test.lat";
  spec.target = 0.99;
  spec.latency_threshold_us = 100.0;
  engine.AddObjective(spec);

  engine.RecordLatency("test.lat", 50.0);    // Good.
  engine.RecordLatency("test.lat", 100.0);   // Good (<=).
  engine.RecordLatency("test.lat", 5000.0);  // Bad.
  engine.Record("no.such.objective", false);  // Silently ignored.
  engine.RecordLatency("no.such.objective", 1.0);

  const std::vector<SloStatus> status = engine.Check();
  ASSERT_EQ(status.size(), 1u);
  EXPECT_EQ(status[0].total, 3u);
  EXPECT_EQ(status[0].good, 2u);
}

// ---------------------------------------------------------------------------
// Watchdog
// ---------------------------------------------------------------------------

TEST(Watchdog, NeverBeatenPumpIsIdleNotStalled) {
  const Watchdog dog(/*stall_threshold_seconds=*/0.0);
  Heartbeat idle;
  const PumpStatus status = dog.Check("idle.pump", idle);
  EXPECT_EQ(status.name, "idle.pump");
  EXPECT_EQ(status.beats, 0u);
  EXPECT_FALSE(status.stalled);
  EXPECT_DOUBLE_EQ(status.age_seconds, 0.0);
  // Beats land only on the heartbeat that was beaten: another pump's beat
  // leaves this one idle.
  Heartbeat other;
  other.Beat();
  EXPECT_EQ(dog.Check("idle.pump", idle).beats, 0u);
  EXPECT_EQ(dog.Check("other.pump", other).beats, 1u);
}

TEST(Watchdog, DelayFailpointStallsThePumpThenHeals) {
  const Watchdog dog(/*stall_threshold_seconds=*/0.05);
  Heartbeat heartbeat;
  // One pump iteration wedges on a one-shot 300 ms delay failpoint — well
  // past the 50 ms stall threshold — then resumes beating.
  ASSERT_TRUE(fault::FailPointRegistry::Default()
                  ->Arm("obs.test.pump", "delay:300:x1")
                  .ok());
  std::atomic<bool> stop{false};
  std::thread pump([&stop, &heartbeat] {
    while (!stop.load(std::memory_order_acquire)) {
      heartbeat.Beat();
      (void)OCT_FAILPOINT("obs.test.pump");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool saw_stall = false;
  while (std::chrono::steady_clock::now() < deadline) {
    if (dog.Check("test.pump", heartbeat).stalled) {
      saw_stall = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(saw_stall);
  // The wedge is one-shot: beats resume and the stall heals.
  bool healed = false;
  while (std::chrono::steady_clock::now() < deadline) {
    if (!dog.Check("test.pump", heartbeat).stalled) {
      healed = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(healed);
  stop.store(true, std::memory_order_release);
  pump.join();
  fault::FailPointRegistry::Default()->DisarmAll();
  EXPECT_GE(dog.Check("test.pump", heartbeat).beats, 2u);
}

// ---------------------------------------------------------------------------
// Histogram exemplars and explicit-parent coverage
// ---------------------------------------------------------------------------

TEST(Histogram, RecordWithExemplarAttachesTraceToItsBucket) {
  MetricsRegistry registry;
  Histogram* hist = registry.GetHistogram("ex_us");
  hist->Record(10.0);  // Plain record: no exemplar.
  EXPECT_TRUE(hist->Snapshot().exemplars.empty());

  hist->RecordWithExemplar(100.0, 0xabcdefULL);
  hist->RecordWithExemplar(50.0, 0);  // Trace id 0: counted, no exemplar.
  const HistogramSnapshot snap = hist->Snapshot();
  EXPECT_EQ(snap.count, 3u);
  ASSERT_FALSE(snap.exemplars.empty());
  bool found = false;
  for (const Exemplar& e : snap.exemplars) {
    if (e.trace_id == 0xabcdefULL) {
      found = true;
      EXPECT_DOUBLE_EQ(e.value, 100.0);
      EXPECT_GT(e.timestamp, 0.0);
    }
  }
  EXPECT_TRUE(found);
}

TEST(Export, SpanTreeCoverageUsesExplicitParentIdsAcrossThreads) {
  // A root with an id parents children by span id, not by thread + depth:
  // the cross-thread child counts, the grandchild and the unrelated span
  // do not.
  std::vector<SpanEvent> events;
  events.push_back({"root", 0, 1000, 0, 1, 42, 100, 0});
  events.push_back({"same_thread_child", 0, 400, 1, 1, 42, 101, 100});
  events.push_back({"cross_thread_child", 500, 900, 0, 2, 42, 102, 100});
  events.push_back({"grandchild", 0, 400, 2, 1, 42, 103, 101});
  events.push_back({"unrelated", 0, 1000, 1, 2, 42, 104, 999});
  EXPECT_DOUBLE_EQ(SpanTreeCoverage(events, "root"), 0.8);
}

}  // namespace
}  // namespace obs
}  // namespace oct
