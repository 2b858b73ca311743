#include "src/trace/storage.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>

#include "src/common/rng.h"
#include "src/trace/span_log.h"
#include "src/wire/varint.h"

namespace rpcscope {
namespace {

Span RandomSpan(Rng& rng, int32_t method, int32_t service) {
  Span s;
  s.trace_id = rng.NextUint64() | 1;
  s.span_id = rng.NextUint64() | 1;
  s.parent_span_id = rng.NextBool(0.5) ? rng.NextUint64() : 0;
  s.method_id = method;
  s.service_id = service;
  s.client_cluster = static_cast<ClusterId>(rng.NextBounded(96));
  s.server_cluster = static_cast<ClusterId>(rng.NextBounded(96));
  s.start_time = static_cast<SimTime>(rng.NextBounded(static_cast<uint64_t>(kDay)));
  for (SimDuration& d : s.latency.components) {
    d = static_cast<SimDuration>(rng.NextBounded(static_cast<uint64_t>(Seconds(2))));
  }
  s.status = rng.NextBool(0.05) ? StatusCode::kCancelled : StatusCode::kOk;
  s.request_payload_bytes = static_cast<int64_t>(rng.NextBounded(1 << 20));
  s.response_payload_bytes = static_cast<int64_t>(rng.NextBounded(1 << 20));
  s.request_wire_bytes = s.request_payload_bytes / 2;
  s.response_wire_bytes = s.response_payload_bytes / 2;
  s.has_cpu_annotation = rng.NextBool(0.5);
  s.normalized_cpu_cycles = rng.NextDouble() * 10;
  return s;
}

bool SpansEqual(const Span& a, const Span& b) {
  return a.trace_id == b.trace_id && a.span_id == b.span_id &&
         a.parent_span_id == b.parent_span_id && a.method_id == b.method_id &&
         a.service_id == b.service_id && a.client_cluster == b.client_cluster &&
         a.server_cluster == b.server_cluster && a.start_time == b.start_time &&
         a.latency.components == b.latency.components && a.status == b.status &&
         a.request_payload_bytes == b.request_payload_bytes &&
         a.response_payload_bytes == b.response_payload_bytes &&
         a.request_wire_bytes == b.request_wire_bytes &&
         a.response_wire_bytes == b.response_wire_bytes &&
         a.has_cpu_annotation == b.has_cpu_annotation &&
         a.normalized_cpu_cycles == b.normalized_cpu_cycles;
}

TEST(SpanCodecTest, RoundTripsEveryField) {
  Rng rng(9);
  std::vector<Span> spans;
  for (int i = 0; i < 500; ++i) {
    spans.push_back(RandomSpan(rng, i % 17, i % 5));
  }
  const std::vector<uint8_t> bytes = SerializeSpans(spans);
  Result<std::vector<Span>> back = DeserializeSpans(bytes);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->size(), spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    EXPECT_TRUE(SpansEqual(spans[i], (*back)[i])) << i;
  }
}

TEST(SpanCodecTest, EmptyBatch) {
  const std::vector<uint8_t> bytes = SerializeSpans(std::vector<Span>{});
  Result<std::vector<Span>> back = DeserializeSpans(bytes);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->empty());
}

TEST(SpanCodecTest, RejectsGarbage) {
  EXPECT_FALSE(DeserializeSpans({}).ok());
  EXPECT_FALSE(DeserializeSpans({'X', 'Y', 'Z', 'W', 1, 0}).ok());
}

TEST(SpanCodecTest, RejectsTruncation) {
  Rng rng(10);
  std::vector<Span> spans = {RandomSpan(rng, 1, 1)};
  std::vector<uint8_t> bytes = SerializeSpans(spans);
  bytes.resize(bytes.size() - 3);
  EXPECT_FALSE(DeserializeSpans(bytes).ok());
}

// The record encoder before it wrote through a cursor: one PutVarint64 per
// field, in the record's field order.
std::vector<uint8_t> PutVarintRecord(const Span& s) {
  std::vector<uint8_t> out;
  auto bits = [](double d) {
    uint64_t b;
    std::memcpy(&b, &d, sizeof(b));
    return b;
  };
  PutVarint64(out, s.trace_id);
  PutVarint64(out, s.span_id);
  PutVarint64(out, s.parent_span_id);
  PutVarint64(out, ZigzagEncode(s.method_id));
  PutVarint64(out, ZigzagEncode(s.service_id));
  PutVarint64(out, ZigzagEncode(s.client_cluster));
  PutVarint64(out, ZigzagEncode(s.server_cluster));
  PutVarint64(out, ZigzagEncode(s.start_time));
  for (SimDuration d : s.latency.components) {
    PutVarint64(out, ZigzagEncode(d));
  }
  PutVarint64(out, static_cast<uint64_t>(s.status));
  PutVarint64(out, ZigzagEncode(s.request_payload_bytes));
  PutVarint64(out, ZigzagEncode(s.response_payload_bytes));
  PutVarint64(out, ZigzagEncode(s.request_wire_bytes));
  PutVarint64(out, ZigzagEncode(s.response_wire_bytes));
  PutVarint64(out, s.has_cpu_annotation ? 1 : 0);
  PutVarint64(out, bits(s.normalized_cpu_cycles));
  PutVarint64(out, s.colocated ? 1 : 0);
  PutVarint64(out, bits(s.avoided_tax_cycles));
  return out;
}

TEST(SpanCodecTest, OnePassRecordMatchesPutVarint64OnEdgeValues) {
  // Unsigned fields see 0, 127, 128 and 2^63 (1, 1, 2 and 10 varint bytes);
  // signed fields see the values whose zigzag encodings are the largest
  // (INT64_MIN) and smallest nonzero (-1); doubles see +-0, NaN and +-inf.
  const uint64_t unsigned_edges[] = {0, 127, 128, uint64_t{1} << 63};
  const int64_t signed_edges[] = {std::numeric_limits<int64_t>::min(), -1, 0, 127, 128};
  const int32_t narrow_edges[] = {std::numeric_limits<int32_t>::min(), -1, 0, 64, 128};
  const double double_edges[] = {0.0, -0.0, std::numeric_limits<double>::quiet_NaN(),
                                 std::numeric_limits<double>::infinity(),
                                 -std::numeric_limits<double>::infinity()};
  ASSERT_EQ(ZigzagEncode(std::numeric_limits<int64_t>::min()), UINT64_MAX);
  ASSERT_EQ(ZigzagEncode(-1), 1u);
  // A non-empty buffer: the record must land after what is already there.
  std::vector<uint8_t> encoded = {0xab, 0xcd};
  std::vector<uint8_t> expected = encoded;
  for (size_t k = 0; k < 20; ++k) {
    Span s;
    s.trace_id = unsigned_edges[k % 4];
    s.span_id = unsigned_edges[(k + 1) % 4];
    s.parent_span_id = unsigned_edges[(k + 2) % 4];
    s.method_id = narrow_edges[k % 5];
    s.service_id = narrow_edges[(k + 1) % 5];
    s.client_cluster = narrow_edges[(k + 2) % 5];
    s.server_cluster = narrow_edges[(k + 3) % 5];
    s.start_time = signed_edges[k % 5];
    for (size_t c = 0; c < s.latency.components.size(); ++c) {
      s.latency.components[c] = signed_edges[(k + c) % 5];
    }
    s.status = k % 2 == 0 ? StatusCode::kOk : StatusCode::kUnauthenticated;
    s.request_payload_bytes = signed_edges[(k + 1) % 5];
    s.response_payload_bytes = signed_edges[(k + 2) % 5];
    s.request_wire_bytes = signed_edges[(k + 3) % 5];
    s.response_wire_bytes = signed_edges[(k + 4) % 5];
    s.has_cpu_annotation = k % 2 == 1;
    s.normalized_cpu_cycles = double_edges[k % 5];
    s.colocated = k % 3 == 0;
    s.avoided_tax_cycles = double_edges[(k + 2) % 5];
    AppendSpanRecord(encoded, s);
    const std::vector<uint8_t> record = PutVarintRecord(s);
    expected.insert(expected.end(), record.begin(), record.end());
    ASSERT_EQ(encoded, expected) << "span " << k;
  }
}

TEST(SpanLogTest, IndexesAndIteratesLikeAVectorAroundABlockBoundary) {
  Rng rng(31);
  for (size_t n : {SpanLog::kBlockSpans - 1, SpanLog::kBlockSpans, SpanLog::kBlockSpans + 1}) {
    SpanLog log;
    std::vector<Span> vec;
    for (size_t i = 0; i < n; ++i) {
      Span s = RandomSpan(rng, static_cast<int32_t>(i % 17), static_cast<int32_t>(i % 5));
      s.start_time = static_cast<SimTime>(i);  // Tells every span apart.
      log.push_back(s);
      vec.push_back(s);
    }
    ASSERT_EQ(log.size(), n);
    ASSERT_FALSE(log.empty());
    for (size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(SpansEqual(log[i], vec[i])) << n << ": index " << i;
    }
    size_t i = 0;
    for (const Span& s : log) {
      ASSERT_LT(i, n);
      ASSERT_TRUE(SpansEqual(s, vec[i])) << n << ": iteration " << i;
      ++i;
    }
    EXPECT_EQ(i, n);
    const std::vector<Span> copy(log.begin(), log.end());
    ASSERT_EQ(copy.size(), n);
    EXPECT_TRUE(SpansEqual(copy.back(), vec.back()));
    EXPECT_TRUE(SpansEqual(log.front(), vec.front()));
    EXPECT_TRUE(SpansEqual(log.back(), vec.back()));
    EXPECT_EQ(SerializeSpans(log), SerializeSpans(vec));
    log.clear();
    EXPECT_TRUE(log.empty());
    EXPECT_EQ(log.begin(), log.end());
  }
}

TEST(SpanReaderTest, StreamsTheBatchOneSpanAtATime) {
  Rng rng(11);
  std::vector<Span> spans;
  for (int i = 0; i < 200; ++i) {
    spans.push_back(RandomSpan(rng, i % 17, i % 5));
  }
  const std::vector<uint8_t> bytes = SerializeSpans(spans);
  Result<SpanReader> reader = SpanReader::Open(bytes);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader->count(), spans.size());
  Span span;
  size_t i = 0;
  for (;;) {
    Result<bool> more = reader->Next(span);
    ASSERT_TRUE(more.ok()) << more.status().ToString();
    if (!more.value()) {
      break;
    }
    ASSERT_LT(i, spans.size());
    EXPECT_TRUE(SpansEqual(spans[i], span)) << i;
    ++i;
    EXPECT_EQ(reader->remaining(), spans.size() - i);
  }
  EXPECT_EQ(i, spans.size());
  // End-of-batch is sticky.
  Result<bool> again = reader->Next(span);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again.value());
}

TEST(SpanReaderTest, SurfacesTruncationMidStream) {
  Rng rng(12);
  std::vector<Span> spans = {RandomSpan(rng, 1, 1), RandomSpan(rng, 2, 2)};
  std::vector<uint8_t> bytes = SerializeSpans(spans);
  bytes.resize(bytes.size() - 3);  // Clip the tail of the second record.
  Result<SpanReader> reader = SpanReader::Open(bytes);
  ASSERT_TRUE(reader.ok());
  Span span;
  Result<bool> first = reader->Next(span);
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first.value());
  EXPECT_FALSE(reader->Next(span).ok());
}

TEST(SpanReaderTest, RejectsTrailingBytes) {
  std::vector<uint8_t> bytes = SerializeSpans(std::vector<Span>{});
  bytes.push_back(0x7f);
  Result<SpanReader> reader = SpanReader::Open(bytes);
  ASSERT_TRUE(reader.ok());
  Span span;
  EXPECT_FALSE(reader->Next(span).ok());
}

TEST(TraceStoreTest, IndexesByMethodServiceAndTrace) {
  Rng rng(11);
  TraceStore store;
  for (int i = 0; i < 300; ++i) {
    store.Add(RandomSpan(rng, i % 3, i % 2));
  }
  EXPECT_EQ(store.size(), 300u);
  EXPECT_EQ(store.ByMethod(0).size(), 100u);
  EXPECT_EQ(store.ByService(1).size(), 150u);
  EXPECT_TRUE(store.ByMethod(99).empty());
  const Span& probe = store.spans()[17];
  const auto trace = store.ByTrace(probe.trace_id);
  ASSERT_FALSE(trace.empty());
  EXPECT_EQ(trace[0]->span_id, probe.span_id);
}

TEST(TraceStoreTest, TimeRangeQuery) {
  TraceStore store;
  for (int h = 0; h < 24; ++h) {
    Span s;
    s.method_id = 1;
    s.start_time = Hours(h);
    store.Add(s);
  }
  EXPECT_EQ(store.InTimeRange(Hours(6), Hours(12)).size(), 6u);
  EXPECT_EQ(store.InTimeRange(0, Days(1)).size(), 24u);
}

TEST(TraceStoreTest, FileRoundTrip) {
  Rng rng(12);
  TraceStore store;
  for (int i = 0; i < 200; ++i) {
    store.Add(RandomSpan(rng, i % 7, i % 3));
  }
  const std::string path = ::testing::TempDir() + "/spans.bin";
  ASSERT_TRUE(store.SaveToFile(path).ok());
  Result<TraceStore> loaded = TraceStore::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), store.size());
  for (size_t i = 0; i < store.size(); ++i) {
    EXPECT_TRUE(SpansEqual(store.spans()[i], loaded->spans()[i])) << i;
  }
  std::remove(path.c_str());
}

TEST(TraceStoreTest, LoadMissingFileFails) {
  EXPECT_EQ(TraceStore::LoadFromFile("/nonexistent/spans.bin").status().code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace rpcscope
