#include "src/trace/storage.h"

#include <cstdio>
#include <cstring>

#include "src/wire/varint.h"

namespace rpcscope {

namespace {

constexpr char kMagic[4] = {'R', 'S', 'P', 'N'};

// Varints in one span record: 17 fixed fields plus the latency components.
constexpr size_t kRecordVarints = 17 + kNumRpcComponents;
constexpr size_t kMaxVarintBytes = 10;

// PutVarint64 through a cursor into space the caller has already made.
uint8_t* WriteVarint(uint8_t* out, uint64_t value) {
  while (value >= 0x80) {
    *out++ = static_cast<uint8_t>(value | 0x80);
    value >>= 7;
  }
  *out++ = static_cast<uint8_t>(value);
  return out;
}

uint64_t DoubleBits(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

template <typename Spans>
std::vector<uint8_t> SerializeBatch(const Spans& spans) {
  std::vector<uint8_t> out;
  out.reserve(spans.size() * 64 + 16);
  AppendSpanBatchHeader(out, spans.size());
  for (const Span& s : spans) {
    AppendSpanRecord(out, s);
  }
  return out;
}

bool GetDouble(const std::vector<uint8_t>& buf, size_t& pos, double& value) {
  uint64_t bits;
  if (!GetVarint64(buf, pos, bits)) {
    return false;
  }
  std::memcpy(&value, &bits, sizeof(value));
  return true;
}

}  // namespace

void AppendSpanBatchHeader(std::vector<uint8_t>& out, uint64_t count) {
  out.insert(out.end(), kMagic, kMagic + 4);
  PutVarint64(out, kSpanBatchVersion);
  PutVarint64(out, count);
}

void AppendSpanRecord(std::vector<uint8_t>& out, const Span& span) {
  // One resize to the record's upper bound, writes through a cursor, and a
  // trim to what was written: the same bytes as a PutVarint64 per field.
  const size_t start = out.size();
  out.resize(start + kRecordVarints * kMaxVarintBytes);
  uint8_t* const begin = out.data() + start;
  uint8_t* p = begin;
  p = WriteVarint(p, span.trace_id);
  p = WriteVarint(p, span.span_id);
  p = WriteVarint(p, span.parent_span_id);
  p = WriteVarint(p, ZigzagEncode(span.method_id));
  p = WriteVarint(p, ZigzagEncode(span.service_id));
  p = WriteVarint(p, ZigzagEncode(span.client_cluster));
  p = WriteVarint(p, ZigzagEncode(span.server_cluster));
  p = WriteVarint(p, ZigzagEncode(span.start_time));
  for (SimDuration d : span.latency.components) {
    p = WriteVarint(p, ZigzagEncode(d));
  }
  p = WriteVarint(p, static_cast<uint64_t>(span.status));
  p = WriteVarint(p, ZigzagEncode(span.request_payload_bytes));
  p = WriteVarint(p, ZigzagEncode(span.response_payload_bytes));
  p = WriteVarint(p, ZigzagEncode(span.request_wire_bytes));
  p = WriteVarint(p, ZigzagEncode(span.response_wire_bytes));
  p = WriteVarint(p, span.has_cpu_annotation ? 1 : 0);
  p = WriteVarint(p, DoubleBits(span.normalized_cpu_cycles));
  p = WriteVarint(p, span.colocated ? 1 : 0);
  p = WriteVarint(p, DoubleBits(span.avoided_tax_cycles));
  out.resize(start + static_cast<size_t>(p - begin));
}

std::vector<uint8_t> SerializeSpans(const std::vector<Span>& spans) {
  return SerializeBatch(spans);
}

std::vector<uint8_t> SerializeSpans(const SpanLog& spans) { return SerializeBatch(spans); }

Result<SpanReader> SpanReader::Open(const std::vector<uint8_t>& bytes) {
  if (bytes.size() < 4 || std::memcmp(bytes.data(), kMagic, 4) != 0) {
    return InvalidArgumentError("not a span batch (bad magic)");
  }
  size_t pos = 4;
  uint64_t version, count;
  if (!GetVarint64(bytes, pos, version) || version < 1 || version > kSpanBatchVersion) {
    return InvalidArgumentError("unsupported span batch version");
  }
  if (!GetVarint64(bytes, pos, count)) {
    return InternalError("truncated span count");
  }
  return SpanReader(&bytes, pos, count, version);
}

Result<bool> SpanReader::Next(Span& span) {
  const std::vector<uint8_t>& bytes = *bytes_;
  if (read_ == count_) {
    if (pos_ != bytes.size()) {
      return InternalError("trailing bytes after span batch");
    }
    return false;
  }
  Span s;
  uint64_t u = 0;
  auto get_u64 = [&](uint64_t& v) { return GetVarint64(bytes, pos_, v); };
  auto get_i64 = [&](int64_t& v) {
    uint64_t raw;
    if (!GetVarint64(bytes, pos_, raw)) {
      return false;
    }
    v = ZigzagDecode(raw);
    return true;
  };
  int64_t i64 = 0;
  if (!get_u64(s.trace_id) || !get_u64(s.span_id) || !get_u64(s.parent_span_id)) {
    return InternalError("truncated span ids");
  }
  if (!get_i64(i64)) {
    return InternalError("truncated method id");
  }
  s.method_id = static_cast<int32_t>(i64);
  if (!get_i64(i64)) {
    return InternalError("truncated service id");
  }
  s.service_id = static_cast<int32_t>(i64);
  if (!get_i64(i64)) {
    return InternalError("truncated client cluster");
  }
  s.client_cluster = static_cast<ClusterId>(i64);
  if (!get_i64(i64)) {
    return InternalError("truncated server cluster");
  }
  s.server_cluster = static_cast<ClusterId>(i64);
  if (!get_i64(s.start_time)) {
    return InternalError("truncated start time");
  }
  for (SimDuration& d : s.latency.components) {
    if (!get_i64(d)) {
      return InternalError("truncated latency component");
    }
  }
  if (!get_u64(u)) {
    return InternalError("truncated status");
  }
  if (u > 16) {
    return InvalidArgumentError("invalid status code");
  }
  s.status = static_cast<StatusCode>(u);
  if (!get_i64(s.request_payload_bytes) || !get_i64(s.response_payload_bytes) ||
      !get_i64(s.request_wire_bytes) || !get_i64(s.response_wire_bytes)) {
    return InternalError("truncated byte counts");
  }
  if (!get_u64(u)) {
    return InternalError("truncated annotation flag");
  }
  s.has_cpu_annotation = u != 0;
  if (!GetDouble(bytes, pos_, s.normalized_cpu_cycles)) {
    return InternalError("truncated cycle annotation");
  }
  if (version_ >= 2) {
    if (!get_u64(u)) {
      return InternalError("truncated colocated flag");
    }
    s.colocated = u != 0;
    if (!GetDouble(bytes, pos_, s.avoided_tax_cycles)) {
      return InternalError("truncated avoided tax");
    }
  }
  ++read_;
  span = s;
  return true;
}

Result<std::vector<Span>> DeserializeSpans(const std::vector<uint8_t>& bytes) {
  Result<SpanReader> reader = SpanReader::Open(bytes);
  if (!reader.ok()) {
    return reader.status();
  }
  std::vector<Span> spans;
  spans.reserve(reader.value().count());
  Span span;
  for (;;) {
    Result<bool> more = reader.value().Next(span);
    if (!more.ok()) {
      return more.status();
    }
    if (!more.value()) {
      return spans;
    }
    spans.push_back(span);
  }
}

void TraceStore::Add(const Span& span) {
  const size_t index = spans_.size();
  spans_.push_back(span);
  by_method_[span.method_id].push_back(index);
  by_service_[span.service_id].push_back(index);
  by_trace_[span.trace_id].push_back(index);
}

void TraceStore::AddAll(const std::vector<Span>& spans) {
  for (const Span& s : spans) {
    Add(s);
  }
}

namespace {

std::vector<const Span*> Resolve(const std::vector<Span>& spans,
                                 const std::unordered_map<int32_t, std::vector<size_t>>& index,
                                 int32_t key) {
  std::vector<const Span*> out;
  auto it = index.find(key);
  if (it != index.end()) {
    out.reserve(it->second.size());
    for (size_t i : it->second) {
      out.push_back(&spans[i]);
    }
  }
  return out;
}

}  // namespace

std::vector<const Span*> TraceStore::ByMethod(int32_t method_id) const {
  return Resolve(spans_, by_method_, method_id);
}

std::vector<const Span*> TraceStore::ByService(int32_t service_id) const {
  return Resolve(spans_, by_service_, service_id);
}

std::vector<const Span*> TraceStore::ByTrace(TraceId trace_id) const {
  std::vector<const Span*> out;
  auto it = by_trace_.find(trace_id);
  if (it != by_trace_.end()) {
    for (size_t i : it->second) {
      out.push_back(&spans_[i]);
    }
  }
  return out;
}

std::vector<const Span*> TraceStore::InTimeRange(SimTime begin, SimTime end) const {
  std::vector<const Span*> out;
  for (const Span& s : spans_) {
    if (s.start_time >= begin && s.start_time < end) {
      out.push_back(&s);
    }
  }
  return out;
}

Status TraceStore::SaveToFile(const std::string& path) const {
  const std::vector<uint8_t> bytes = SerializeSpans(spans_);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return InternalError("cannot open " + path + " for writing");
  }
  const size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  if (written != bytes.size()) {
    return InternalError("short write to " + path);
  }
  return Status::Ok();
}

Result<TraceStore> TraceStore::LoadFromFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return NotFoundError("cannot open " + path);
  }
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::vector<uint8_t> bytes(static_cast<size_t>(size));
  const size_t read = std::fread(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  if (read != bytes.size()) {
    return InternalError("short read from " + path);
  }
  Result<std::vector<Span>> spans = DeserializeSpans(bytes);
  if (!spans.ok()) {
    return spans.status();
  }
  TraceStore store;
  store.AddAll(spans.value());
  return store;
}

}  // namespace rpcscope
