#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/monitor/stream.h"

namespace rpcscope {
namespace {

// ---- Streaming pipeline (src/monitor/stream.h) ----

Span MakeSpan(SimTime start, SimDuration total, int32_t method = 1, uint64_t id = 0) {
  Span s;
  s.trace_id = id == 0 ? static_cast<uint64_t>(start) | 1 : id;
  s.span_id = s.trace_id + 1;
  s.method_id = method;
  s.start_time = start;
  s.latency[RpcComponent::kServerApp] = total;
  return s;
}

TEST(StreamWindowTest, WindowBoundaryFlushClosesExactlyElapsedWindows) {
  ObservabilityOptions options;
  ObservabilityHub hub(options);
  ShardStreamSink sink(options);
  std::vector<SimTime> closed;
  hub.SetWindowCloseTap([&closed](const WindowStats& w) { closed.push_back(w.window_start); });

  sink.OnSpan(MakeSpan(Minutes(10), Micros(100)));  // Window [0, 30min).
  sink.OnSpan(MakeSpan(Minutes(30), Micros(200)));  // Exactly on the boundary:
                                                    // half-open => [30, 60min).
  sink.OnSpan(MakeSpan(Minutes(70), Micros(300)));  // Window [60, 90min).
  sink.FlushInto(hub, Minutes(60));
  hub.AdvanceWatermark(Minutes(60));

  // Windows ending at or before the watermark close and fire the tap once,
  // in ascending order; the window still in progress stays open.
  EXPECT_EQ(closed, (std::vector<SimTime>{0, Minutes(30)}));
  EXPECT_EQ(hub.windows_closed(), 2);
  ASSERT_NE(hub.FindWindow(0), nullptr);
  EXPECT_TRUE(hub.FindWindow(0)->closed);
  EXPECT_EQ(hub.FindWindow(0)->spans, 1);
  ASSERT_NE(hub.FindWindow(Minutes(30)), nullptr);
  EXPECT_TRUE(hub.FindWindow(Minutes(30))->closed);
  EXPECT_EQ(hub.FindWindow(Minutes(30))->spans, 1) << "boundary span belongs to the later window";
  ASSERT_NE(hub.FindWindow(Minutes(60)), nullptr);
  EXPECT_FALSE(hub.FindWindow(Minutes(60))->closed);

  // Advancing again over the same ground re-fires nothing (idempotent).
  hub.AdvanceWatermark(Minutes(60));
  EXPECT_EQ(hub.windows_closed(), 2);
}

TEST(StreamWindowTest, ClosedWindowsRetireEagerlyAndAbsorbLateUpdates) {
  ObservabilityOptions options;
  ObservabilityHub hub(options);
  ShardStreamSink sink(options);
  int tap_fires = 0;
  hub.SetWindowCloseTap([&tap_fires](const WindowStats&) { ++tap_fires; });

  sink.OnSpan(MakeSpan(Minutes(5), Micros(100)));
  sink.FlushInto(hub, Minutes(30));
  hub.AdvanceWatermark(Minutes(30));
  EXPECT_EQ(tap_fires, 1);
  // Eager retirement: the flushed delta left the sink entirely.
  EXPECT_EQ(sink.buffered_spans(), 0u);

  // An in-flight straggler whose start fell in the closed window completes
  // later: it merges into the closed summary (counted), the tap does NOT
  // re-fire, and the aggregate state still gains the span.
  sink.OnSpan(MakeSpan(Minutes(8), Micros(900)));
  sink.FlushInto(hub, Minutes(60));
  hub.AdvanceWatermark(Minutes(60));
  EXPECT_EQ(tap_fires, 1);
  const WindowStats* w0 = hub.FindWindow(0);
  ASSERT_NE(w0, nullptr);
  EXPECT_EQ(w0->spans, 2);
  EXPECT_EQ(w0->late_updates, 1);
  EXPECT_EQ(hub.late_window_updates(), 1);
}

TEST(StreamWindowTest, RetentionEvictionIsCountedAndStillTapsOpenWindows) {
  ObservabilityOptions options;
  options.max_windows = 3;
  ObservabilityHub hub(options);
  ShardStreamSink sink(options);
  int tap_fires = 0;
  hub.SetWindowCloseTap([&tap_fires](const WindowStats&) { ++tap_fires; });

  for (int w = 0; w < 10; ++w) {
    sink.OnSpan(MakeSpan(Minutes(30 * w + 1), Micros(50)));
  }
  sink.FlushInto(hub, kMaxSimTime);
  hub.AdvanceWatermark(kMaxSimTime);

  EXPECT_EQ(hub.windows().size(), 3u);
  EXPECT_EQ(hub.windows_evicted(), 7);
  // No window vanished silently: every one of the 10 went through the tap,
  // whether it closed by watermark or was evicted while still open.
  EXPECT_EQ(tap_fires, 10);
  EXPECT_EQ(hub.windows_closed(), 10);
  EXPECT_EQ(hub.windows().front().window_start, Minutes(30 * 7));
}

TEST(StreamWindowTest, CrossShardDeltaMergeMatchesPostRunReplay) {
  // Four "shards" streaming at different barrier schedules must aggregate to
  // the same bits as one post-run pass over the canonically merged stream —
  // the monitor-level version of the parallel_test equivalence.
  ObservabilityOptions options;
  options.window = Minutes(1);
  std::vector<Span> all;
  for (int i = 0; i < 1000; ++i) {
    all.push_back(MakeSpan(Seconds(i), Micros(10 + 7 * (i % 13)), /*method=*/i % 5,
                           /*id=*/static_cast<uint64_t>(i) + 1));
  }

  auto stream_with_barriers = [&options, &all](int num_shards, SimDuration barrier_every) {
    ObservabilityHub hub(options);
    std::vector<ShardStreamSink> sinks(static_cast<size_t>(num_shards),
                                       ShardStreamSink(options));
    SimTime next_barrier = barrier_every;
    for (const Span& span : all) {
      // Round-robin shard assignment; barrier flush in canonical shard order
      // whenever virtual time passes the next barrier.
      while (span.start_time >= next_barrier) {
        for (ShardStreamSink& sink : sinks) {
          sink.FlushInto(hub, next_barrier);
        }
        hub.AdvanceWatermark(next_barrier);
        next_barrier += barrier_every;
      }
      sinks[span.trace_id % sinks.size()].OnSpan(span);
    }
    for (ShardStreamSink& sink : sinks) {
      sink.FlushInto(hub, kMaxSimTime);
    }
    hub.AdvanceWatermark(kMaxSimTime);
    return hub.AggregateDigest();
  };

  // Replay ingests in a different order (sorted by start time) than either
  // streaming schedule — aggregate state is order-independent by design.
  std::vector<Span> sorted = all;
  std::sort(sorted.begin(), sorted.end(),
            [](const Span& a, const Span& b) { return a.start_time < b.start_time; });
  const uint64_t replayed = ReplayIntoHub(sorted, options).AggregateDigest();

  EXPECT_EQ(stream_with_barriers(4, Seconds(30)), replayed);
  EXPECT_EQ(stream_with_barriers(2, Seconds(171)), replayed);
  EXPECT_EQ(stream_with_barriers(1, Seconds(999)), replayed);
}

TEST(StreamWindowTest, ReplayFlushesEveryBufferFullAndMatchesOneUncappedFlush) {
  // ReplayIntoHub flushes its sink whenever max_buffered_spans spans are
  // buffered. Over many buffer-fulls and windows, in an order that is not
  // sorted by time, both digests must equal one flush of an uncapped buffer,
  // and nothing may be dropped.
  ObservabilityOptions options;
  options.window = Minutes(1);
  options.max_buffered_spans = 16;
  options.reservoir_per_method = 3;
  std::vector<Span> spans;
  for (int i = 0; i < 1000; ++i) {
    spans.push_back(MakeSpan(Seconds((i * 37) % 720), Micros(10 + 7 * (i % 13)),
                             /*method=*/i % 5, /*id=*/static_cast<uint64_t>(i) + 1));
  }
  ObservabilityOptions uncapped = options;
  uncapped.max_buffered_spans = spans.size() + 1;
  ObservabilityHub oracle(uncapped);
  ShardStreamSink sink(uncapped);
  for (const Span& span : spans) {
    sink.OnSpan(span);
  }
  sink.FlushInto(oracle, kMaxSimTime);
  oracle.AdvanceWatermark(kMaxSimTime);

  const ObservabilityHub replayed = ReplayIntoHub(spans, options);
  EXPECT_EQ(replayed.AggregateDigest(), oracle.AggregateDigest());
  EXPECT_EQ(replayed.ExemplarDigest(), oracle.ExemplarDigest());
  EXPECT_EQ(replayed.span_buffer_drops(), 0u);
  EXPECT_EQ(replayed.exemplars_ingested(), 1000);
  EXPECT_GT(replayed.reservoir_drops(), 0);
  EXPECT_EQ(replayed.windows().size(), 12u);
  EXPECT_EQ(replayed.windows_closed(), 12);
  EXPECT_EQ(replayed.late_window_updates(), 0);

  // A zero cap still replays every exemplar, one flush per span.
  options.max_buffered_spans = 0;
  const ObservabilityHub unbuffered = ReplayIntoHub(spans, options);
  EXPECT_EQ(unbuffered.AggregateDigest(), oracle.AggregateDigest());
  EXPECT_EQ(unbuffered.ExemplarDigest(), oracle.ExemplarDigest());
  EXPECT_EQ(unbuffered.span_buffer_drops(), 0u);
}

TEST(StreamWindowTest, ReservoirIsBoundedDeterministicAndDropCounted) {
  ObservabilityOptions options;
  options.reservoir_per_method = 4;
  auto run = [&options]() {
    ObservabilityHub hub(options);
    ShardStreamSink sink(options);
    for (int i = 0; i < 500; ++i) {
      sink.OnSpan(MakeSpan(Seconds(i), Micros(100), /*method=*/1,
                           /*id=*/static_cast<uint64_t>(i) + 1));
    }
    sink.FlushInto(hub, kMaxSimTime);
    hub.AdvanceWatermark(kMaxSimTime);
    EXPECT_EQ(hub.methods().at(1).reservoir.size(), 4u);
    EXPECT_EQ(hub.reservoir_drops(), 500 - 4);
    return hub.ExemplarDigest();
  };
  EXPECT_EQ(run(), run());  // Same stream, same seed => same exemplars.
}

TEST(StreamWindowTest, BufferCapDropsExemplarsButNeverCounts) {
  ObservabilityOptions options;
  options.max_buffered_spans = 8;
  ObservabilityHub hub(options);
  ShardStreamSink sink(options);
  for (int i = 0; i < 100; ++i) {
    sink.OnSpan(MakeSpan(Seconds(i), Micros(100)));
  }
  EXPECT_EQ(sink.buffered_spans(), 8u);
  EXPECT_EQ(sink.peak_buffered_spans(), 8u);
  EXPECT_EQ(sink.dropped_spans(), 92u);
  sink.FlushInto(hub, kMaxSimTime);
  hub.AdvanceWatermark(kMaxSimTime);
  // Every span is in the aggregates; the drops are surfaced, not silent.
  EXPECT_EQ(hub.spans_ingested(), 100);
  EXPECT_EQ(hub.span_buffer_drops(), 92u);
  EXPECT_EQ(hub.exemplars_ingested(), 8);
}

}  // namespace
}  // namespace rpcscope
