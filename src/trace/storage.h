// TraceStore: persisted, queryable span storage.
//
// Dapper separates collection from analysis: traces are written once and
// queried many times. TraceStore holds spans with by-method / by-service /
// by-trace indexes and serializes to a compact varint-encoded binary format
// so a bench run's spans can be written to disk and re-analyzed without
// re-simulating.
#ifndef RPCSCOPE_SRC_TRACE_STORAGE_H_
#define RPCSCOPE_SRC_TRACE_STORAGE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/trace/span.h"
#include "src/trace/span_log.h"

namespace rpcscope {

// Binary codec for span batches. The format is self-describing:
//   [magic "RSPN"][varint version][varint count][span records...]
// Each span record encodes its fields as varints (durations as ns, doubles
// as IEEE-754 bit patterns). v2 appends the colocated-bypass fields (flag +
// avoided tax cycles) to each record; v1 batches remain readable, decoding
// those fields as their defaults.
inline constexpr uint64_t kSpanBatchVersion = 2;

std::vector<uint8_t> SerializeSpans(const std::vector<Span>& spans);
std::vector<uint8_t> SerializeSpans(const SpanLog& spans);
// The two halves of SerializeSpans, for callers that keep encoded records
// across batches (TraceCollector's checkpoint cache): a batch is the header
// for `count` records followed by `count` AppendSpanRecord outputs.
void AppendSpanBatchHeader(std::vector<uint8_t>& out, uint64_t count);
void AppendSpanRecord(std::vector<uint8_t>& out, const Span& span);
[[nodiscard]] Result<std::vector<Span>> DeserializeSpans(const std::vector<uint8_t>& bytes);

// Incremental decoder over a serialized span batch: yields one span at a
// time, so streaming consumers (rpcscope_analyze --analysis=stream, the
// ObservabilityHub replay path) aggregate a batch of any size with O(1) span
// memory instead of materializing the whole vector. DeserializeSpans is this
// reader run to exhaustion.
class SpanReader {
 public:
  // Validates magic and version; the buffer must outlive the reader.
  [[nodiscard]] static Result<SpanReader> Open(const std::vector<uint8_t>& bytes);

  // Spans declared by the batch header / not yet read.
  uint64_t count() const { return count_; }
  uint64_t remaining() const { return count_ - read_; }
  // The batch's format version, and the byte offset of the next record (of
  // the first, before any Next).
  uint64_t version() const { return version_; }
  size_t offset() const { return pos_; }

  // Decodes the next span into `span`. Returns true on success, false at
  // end-of-batch (after verifying no trailing bytes follow the last record);
  // a truncated or corrupt record is an error Status.
  [[nodiscard]] Result<bool> Next(Span& span);

 private:
  SpanReader(const std::vector<uint8_t>* bytes, size_t pos, uint64_t count, uint64_t version)
      : bytes_(bytes), pos_(pos), count_(count), version_(version) {}

  const std::vector<uint8_t>* bytes_;
  size_t pos_;
  uint64_t count_;
  // Batch format version; v1 records lack the colocated-bypass fields and
  // decode with their defaults.
  uint64_t version_;
  uint64_t read_ = 0;
};

class TraceStore {
 public:
  void Add(const Span& span);
  void AddAll(const std::vector<Span>& spans);

  const std::vector<Span>& spans() const { return spans_; }
  size_t size() const { return spans_.size(); }

  // Index lookups; returned pointers are invalidated by Add.
  std::vector<const Span*> ByMethod(int32_t method_id) const;
  std::vector<const Span*> ByService(int32_t service_id) const;
  std::vector<const Span*> ByTrace(TraceId trace_id) const;

  // Spans with start_time in [begin, end).
  std::vector<const Span*> InTimeRange(SimTime begin, SimTime end) const;

  // Disk round trip (binary format above).
  [[nodiscard]] Status SaveToFile(const std::string& path) const;
  [[nodiscard]] static Result<TraceStore> LoadFromFile(const std::string& path);

 private:
  std::vector<Span> spans_;
  std::unordered_map<int32_t, std::vector<size_t>> by_method_;
  std::unordered_map<int32_t, std::vector<size_t>> by_service_;
  std::unordered_map<TraceId, std::vector<size_t>> by_trace_;
};

}  // namespace rpcscope

#endif  // RPCSCOPE_SRC_TRACE_STORAGE_H_
