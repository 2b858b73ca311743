#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/checkpoint/checkpoint.h"
#include "src/trace/collector.h"
#include "src/trace/span.h"
#include "src/trace/storage.h"
#include "src/trace/tree.h"
#include "src/wire/varint.h"

namespace rpcscope {
namespace {

TEST(LatencyBreakdownTest, TotalsTaxAndGroups) {
  LatencyBreakdown b;
  b[RpcComponent::kClientSendQueue] = 1;
  b[RpcComponent::kRequestProcStack] = 2;
  b[RpcComponent::kRequestWire] = 3;
  b[RpcComponent::kServerRecvQueue] = 4;
  b[RpcComponent::kServerApp] = 100;
  b[RpcComponent::kServerSendQueue] = 5;
  b[RpcComponent::kResponseProcStack] = 6;
  b[RpcComponent::kResponseWire] = 7;
  b[RpcComponent::kClientRecvQueue] = 8;
  EXPECT_EQ(b.Total(), 136);
  EXPECT_EQ(b.Tax(), 36);
  EXPECT_EQ(b.WireTotal(), 10);
  EXPECT_EQ(b.ProcStackTotal(), 8);
  EXPECT_EQ(b.QueueTotal(), 18);
  EXPECT_EQ(b.Tax(), b.WireTotal() + b.ProcStackTotal() + b.QueueTotal());
}

TEST(LatencyBreakdownTest, ComponentNames) {
  for (int i = 0; i < kNumRpcComponents; ++i) {
    EXPECT_NE(RpcComponentName(static_cast<RpcComponent>(i)), "invalid");
  }
}

TEST(TraceCollectorTest, RecordsEverythingAtFullSampling) {
  TraceCollector collector;
  Span s;
  s.trace_id = collector.NewTraceId();
  EXPECT_TRUE(collector.Record(s));
  EXPECT_EQ(collector.recorded(), 1u);
  EXPECT_EQ(collector.dropped(), 0u);
}

TEST(TraceCollectorTest, SamplingIsPerTraceAndProportional) {
  TraceCollector::Options opts;
  opts.sampling_probability = 0.25;
  TraceCollector collector(opts);
  int kept = 0;
  const int n = 40000;
  for (int i = 0; i < n; ++i) {
    const TraceId id = collector.NewTraceId();
    // The decision must be stable per trace id.
    EXPECT_EQ(collector.IsSampled(id), collector.IsSampled(id));
    Span s;
    s.trace_id = id;
    if (collector.Record(s)) {
      ++kept;
    }
  }
  EXPECT_NEAR(static_cast<double>(kept) / n, 0.25, 0.02);
  EXPECT_EQ(collector.recorded() + collector.dropped(), static_cast<uint64_t>(n));
}

TEST(TraceCollectorTest, WholeTreeSharesSamplingDecision) {
  TraceCollector::Options opts;
  opts.sampling_probability = 0.5;
  TraceCollector collector(opts);
  for (int t = 0; t < 100; ++t) {
    const TraceId id = collector.NewTraceId();
    Span parent, child;
    parent.trace_id = id;
    child.trace_id = id;
    const bool kept_parent = collector.Record(parent);
    const bool kept_child = collector.Record(child);
    EXPECT_EQ(kept_parent, kept_child);
  }
}

// Regression: sampling probabilities within half an ulp of 1.0 used to
// compute the threshold as static_cast<uint64_t>(p * 2^64), where the double
// product rounds to exactly 2^64 — undefined behavior on the cast (caught by
// UBSan). The fixed path computes the threshold in 2^53 space.
TEST(TraceCollectorTest, ProbabilityJustBelowOneIsWellDefined) {
  TraceCollector::Options opts;
  opts.sampling_probability = std::nextafter(1.0, 0.0);
  TraceCollector collector(opts);
  int kept = 0;
  const int n = 4096;
  for (int i = 0; i < n; ++i) {
    Span s;
    s.trace_id = collector.NewTraceId();
    if (collector.Record(s)) {
      ++kept;
    }
  }
  // At p = 1 - 2^-53 a drop is a ~once-per-9-quadrillion event.
  EXPECT_EQ(kept, n);
  EXPECT_DOUBLE_EQ(collector.ObservedKeepFraction(), 1.0);
}

// Fixed-seed pin on the sampling decision itself. If the threshold math or
// the hash changes, the kept count for this exact id stream changes with it;
// update the constant only for a deliberate sampling-semantics change.
TEST(TraceCollectorTest, FixedSeedKeepCountRegression) {
  TraceCollector::Options opts;
  opts.sampling_probability = 0.1;
  opts.seed = 0xdadbeef;  // The default, pinned explicitly.
  TraceCollector collector(opts);
  uint64_t kept = 0;
  for (int i = 0; i < 10000; ++i) {
    Span s;
    s.trace_id = collector.NewTraceId();
    if (collector.Record(s)) {
      ++kept;
    }
  }
  EXPECT_EQ(kept, 1026u);
  EXPECT_EQ(collector.recorded(), kept);
  EXPECT_EQ(collector.dropped(), 10000u - kept);
  EXPECT_DOUBLE_EQ(collector.ObservedKeepFraction(), static_cast<double>(kept) / 10000.0);
}

// Sharded runs give every shard-local collector the same sampling seed but a
// disjoint id_offset. The keep decision must depend only on (trace id, seed)
// — never on local collector state — so all shards agree on whether a
// distributed trace is collected.
TEST(TraceCollectorTest, ShardsAgreeOnSamplingDecision) {
  TraceCollector::Options a_opts;
  a_opts.sampling_probability = 0.3;
  TraceCollector::Options b_opts = a_opts;
  b_opts.id_offset = uint64_t{7} << 40;
  TraceCollector a(a_opts);
  TraceCollector b(b_opts);
  for (int i = 0; i < 1000; ++i) {
    // Ids minted by either shard get the same verdict from both.
    const TraceId from_a = a.NewTraceId();
    const TraceId from_b = b.NewTraceId();
    EXPECT_EQ(a.IsSampled(from_a), b.IsSampled(from_a));
    EXPECT_EQ(a.IsSampled(from_b), b.IsSampled(from_b));
  }
}

// Disjoint id_offset ranges must never mint the same id (Mix64 is a
// bijection over the offset counter, | 1 only collides odd with even inputs
// mapping to the same odd value — check a prefix exhaustively).
TEST(TraceCollectorTest, ShardIdRangesAreDisjoint) {
  TraceCollector::Options a_opts;
  TraceCollector::Options b_opts;
  b_opts.id_offset = uint64_t{1} << 40;
  TraceCollector a(a_opts);
  TraceCollector b(b_opts);
  std::vector<TraceId> ids;
  for (int i = 0; i < 2000; ++i) {
    ids.push_back(a.NewTraceId());
    ids.push_back(b.NewTraceId());
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
}

TEST(TraceCollectorTest, ObservedKeepFractionTracksCounters) {
  TraceCollector::Options opts;
  opts.sampling_probability = 0.5;
  TraceCollector collector(opts);
  EXPECT_DOUBLE_EQ(collector.ObservedKeepFraction(), 1.0);  // Nothing offered.
  for (int i = 0; i < 5000; ++i) {
    Span s;
    s.trace_id = collector.NewTraceId();
    (void)collector.Record(s);
  }
  const double fraction = collector.ObservedKeepFraction();
  EXPECT_NEAR(fraction, 0.5, 0.05);
  EXPECT_DOUBLE_EQ(fraction, static_cast<double>(collector.recorded()) /
                                 static_cast<double>(collector.recorded() + collector.dropped()));
}

TEST(TraceCollectorTest, ClearResets) {
  TraceCollector collector;
  Span s;
  s.trace_id = 1;
  collector.Record(s);
  collector.Clear();
  EXPECT_TRUE(collector.spans().empty());
  EXPECT_EQ(collector.recorded(), 0u);
}

// A span whose every field depends on n, so records of different spans differ.
Span NumberedSpan(uint64_t n) {
  Span s;
  s.trace_id = (n * 0x9e3779b97f4a7c15ull) | 1;
  s.span_id = (n * 0xc2b2ae3d27d4eb4full) | 1;
  s.parent_span_id = n % 3 == 0 ? 0 : s.trace_id ^ 0x5eed;
  s.method_id = static_cast<int32_t>(n % 17);
  s.service_id = static_cast<int32_t>(n % 5);
  s.client_cluster = static_cast<ClusterId>(n % 7);
  s.server_cluster = static_cast<ClusterId>(n % 11);
  s.start_time = static_cast<SimTime>(n) * Micros(37);
  for (size_t c = 0; c < s.latency.components.size(); ++c) {
    s.latency.components[c] = static_cast<SimDuration>(n * (c + 1) * 101);
  }
  s.status = n % 4 == 0 ? StatusCode::kUnavailable : StatusCode::kOk;
  s.request_payload_bytes = static_cast<int64_t>(n * 64);
  s.response_payload_bytes = static_cast<int64_t>(n * 640);
  s.request_wire_bytes = static_cast<int64_t>(n * 32);
  s.response_wire_bytes = static_cast<int64_t>(n * 320);
  s.has_cpu_annotation = n % 2 == 0;
  s.normalized_cpu_cycles = static_cast<double>(n) * 1.5;
  s.colocated = n % 5 == 0;
  s.avoided_tax_cycles = static_cast<double>(n) * 0.25;
  return s;
}

// The span blob of the collector's checkpoint section, after checking the
// section's framing and CRC.
std::vector<uint8_t> CheckpointedSpanBlob(const TraceCollector& collector) {
  CheckpointWriter w;
  EXPECT_TRUE(collector.CheckpointTo(w).ok());
  Result<CheckpointReader> reader = CheckpointReader::FromBytes(w.buffer());
  EXPECT_TRUE(reader.ok());
  if (!reader.ok()) {
    return {};
  }
  CheckpointReader& r = reader.value();
  EXPECT_TRUE(r.EnterSection("trace_collector").ok());
  for (int field = 0; field < 5; ++field) {
    r.ReadU64();  // Threshold, id offset, recorded, dropped, id counter.
  }
  std::vector<uint8_t> blob = r.ReadBytes();
  EXPECT_TRUE(r.LeaveSection().ok());
  EXPECT_TRUE(r.Complete().ok());
  return blob;
}

void RestoreCollector(TraceCollector& collector, const CheckpointWriter& saved) {
  Result<CheckpointReader> reader = CheckpointReader::FromBytes(saved.buffer());
  ASSERT_TRUE(reader.ok());
  ASSERT_TRUE(collector.RestoreFrom(reader.value()).ok());
  ASSERT_TRUE(reader.value().Complete().ok());
}

TEST(TraceCollectorTest, IncrementalCheckpointEqualsFullSerialization) {
  // CheckpointTo encodes only the spans recorded since its previous call;
  // over any interleaving of Record, CheckpointTo, Clear and RestoreFrom the
  // blob must equal a full re-encode of spans().
  uint64_t n = 0;
  auto record = [&n](TraceCollector& collector, int count) {
    for (int i = 0; i < count; ++i) {
      ASSERT_TRUE(collector.Record(NumberedSpan(++n)));
    }
  };
  auto expect_full = [](const TraceCollector& collector) {
    EXPECT_EQ(CheckpointedSpanBlob(collector), SerializeSpans(collector.spans()));
  };

  TraceCollector a;
  expect_full(a);
  record(a, 5);
  expect_full(a);
  expect_full(a);  // Nothing new since the last checkpoint.
  record(a, 7);
  expect_full(a);
  CheckpointWriter saved;  // 12 spans.
  ASSERT_TRUE(a.CheckpointTo(saved).ok());
  a.Clear();
  expect_full(a);
  record(a, 3);
  expect_full(a);

  // A restored collector's first checkpoint, then more records.
  TraceCollector b;
  RestoreCollector(b, saved);
  ASSERT_EQ(b.spans().size(), 12u);
  expect_full(b);
  record(b, 4);
  expect_full(b);

  // Restoring over a warm cache replaces the cache too, whether the restored
  // set is smaller or larger than what the cache held.
  TraceCollector c;
  record(c, 20);
  expect_full(c);
  RestoreCollector(c, saved);
  expect_full(c);
  record(c, 2);
  expect_full(c);
  TraceCollector d;
  record(d, 2);
  expect_full(d);
  RestoreCollector(d, saved);
  expect_full(d);
}

TEST(TraceCollectorTest, RestoreReplacesTheLogAroundABlockBoundary) {
  // Restores decode straight into the span log: one span fewer than a block,
  // exactly one block and one span more, each over a log that held something
  // else, read back equal by index and by iteration.
  uint64_t n = 0;
  for (size_t count : {SpanLog::kBlockSpans - 1, SpanLog::kBlockSpans, SpanLog::kBlockSpans + 1}) {
    TraceCollector source;
    std::vector<Span> expected;
    for (size_t i = 0; i < count; ++i) {
      expected.push_back(NumberedSpan(++n));
      ASSERT_TRUE(source.Record(expected.back()));
    }
    CheckpointWriter saved;
    ASSERT_TRUE(source.CheckpointTo(saved).ok());

    TraceCollector restored;
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(restored.Record(NumberedSpan(1000000 + static_cast<uint64_t>(i))));
    }
    RestoreCollector(restored, saved);
    const SpanLog& log = restored.spans();
    ASSERT_EQ(log.size(), count);
    for (size_t i = 0; i < count; ++i) {
      ASSERT_EQ(log[i].span_id, expected[i].span_id) << count << ": index " << i;
    }
    size_t i = 0;
    for (const Span& span : log) {
      ASSERT_EQ(span.span_id, expected[i++].span_id) << count;
    }
    EXPECT_EQ(i, count);
    EXPECT_EQ(SerializeSpans(log), SerializeSpans(expected));
  }
}

TEST(TraceCollectorTest, RestoredV1BatchIsEncodedAgainAsV2) {
  // A v1 record is a v2 record without its last two fields; with both at
  // their defaults those are two one-byte varints.
  std::vector<Span> spans = {NumberedSpan(1), NumberedSpan(2), NumberedSpan(3)};
  std::vector<uint8_t> v1 = {'R', 'S', 'P', 'N'};
  PutVarint64(v1, 1);
  PutVarint64(v1, spans.size());
  for (Span& span : spans) {
    span.colocated = false;
    span.avoided_tax_cycles = 0;
    std::vector<uint8_t> record;
    AppendSpanRecord(record, span);
    v1.insert(v1.end(), record.begin(), record.end() - 2);
  }
  CheckpointWriter saved;
  saved.BeginSection("trace_collector");
  saved.WriteU64(UINT64_MAX);  // The default options' sampling threshold.
  saved.WriteU64(0);           // Id offset.
  saved.WriteU64(spans.size());
  saved.WriteU64(0);
  saved.WriteU64(100);
  saved.WriteBytes(v1);
  saved.EndSection();

  TraceCollector collector;
  RestoreCollector(collector, saved);
  ASSERT_EQ(collector.spans().size(), spans.size());
  // The v1 records cannot serve as the v2 cache: the next checkpoint carries
  // a full v2 batch, and records added later extend it.
  EXPECT_EQ(CheckpointedSpanBlob(collector), SerializeSpans(spans));
  ASSERT_TRUE(collector.Record(NumberedSpan(4)));
  spans.push_back(NumberedSpan(4));
  EXPECT_EQ(CheckpointedSpanBlob(collector), SerializeSpans(spans));
}

// Builds a small forest:
//   trace 1: root(a) -> b -> c ; root -> d        (4 spans, depth 2)
//   trace 2: lone orphan whose parent is missing  (treated as root)
std::vector<Span> MakeForest() {
  std::vector<Span> spans;
  auto add = [&spans](TraceId t, SpanId id, SpanId parent, int32_t method) {
    Span s;
    s.trace_id = t;
    s.span_id = id;
    s.parent_span_id = parent;
    s.method_id = method;
    spans.push_back(s);
  };
  add(1, 10, 0, 100);   // root a
  add(1, 11, 10, 101);  // b
  add(1, 12, 11, 102);  // c
  add(1, 13, 10, 103);  // d
  add(2, 20, 999, 104); // orphan
  return spans;
}

TEST(TraceForestTest, DescendantsAndAncestors) {
  const std::vector<Span> spans = MakeForest();
  TraceForest forest(spans);
  const auto& shapes = forest.span_shapes();
  ASSERT_EQ(shapes.size(), 5u);
  EXPECT_EQ(shapes[0].descendants, 3);  // a
  EXPECT_EQ(shapes[0].ancestors, 0);
  EXPECT_EQ(shapes[1].descendants, 1);  // b
  EXPECT_EQ(shapes[1].ancestors, 1);
  EXPECT_EQ(shapes[2].descendants, 0);  // c
  EXPECT_EQ(shapes[2].ancestors, 2);
  EXPECT_EQ(shapes[3].descendants, 0);  // d
  EXPECT_EQ(shapes[3].ancestors, 1);
  EXPECT_EQ(shapes[4].descendants, 0);  // orphan
  EXPECT_EQ(shapes[4].ancestors, 0);
}

TEST(TraceForestTest, TraceShapes) {
  TraceForest forest(MakeForest());
  const auto& traces = forest.trace_shapes();
  ASSERT_EQ(traces.size(), 2u);
  EXPECT_EQ(traces[0].total_spans, 4);
  EXPECT_EQ(traces[0].max_depth, 2);
  EXPECT_EQ(traces[0].max_width, 2);  // b and d at depth 1.
  EXPECT_EQ(traces[1].total_spans, 1);
}

TEST(TraceForestTest, EmptyInput) {
  TraceForest forest({});
  EXPECT_TRUE(forest.span_shapes().empty());
  EXPECT_TRUE(forest.trace_shapes().empty());
}

}  // namespace
}  // namespace rpcscope
