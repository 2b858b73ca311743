#include "src/trace/collector.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/checkpoint/checkpoint.h"
#include "src/common/rng.h"
#include "src/trace/storage.h"

namespace rpcscope {

TraceCollector::TraceCollector(const Options& options) : options_(options) {
  const double p = std::clamp(options.sampling_probability, 0.0, 1.0);
  if (p >= 1.0) {
    sample_threshold_ = UINT64_MAX;
  } else {
    // Threshold = round-down of p * 2^64, computed in 2^53 space: the naive
    // static_cast<uint64_t>(p * 2^64) is undefined behavior whenever the
    // double product rounds up to exactly 2^64 (any p within half an ulp of
    // 1.0, e.g. nextafter(1.0, 0.0)). floor(p * 2^53) < 2^53 holds for all
    // p < 1 except that same half-ulp rounding case, which the guard maps to
    // keep-everything; shifting by 11 scales the 53-bit threshold to the full
    // 64-bit hash range with < 2^-53 relative error in the keep probability.
    const double scaled = std::floor(p * 9007199254740992.0);  // p * 2^53.
    sample_threshold_ =
        scaled >= 9007199254740992.0 ? UINT64_MAX : static_cast<uint64_t>(scaled) << 11;
  }
}

bool TraceCollector::IsSampled(TraceId trace_id) const {
  if (sample_threshold_ == UINT64_MAX) {
    return true;
  }
  return Mix64(trace_id ^ options_.seed) < sample_threshold_;
}

bool TraceCollector::Record(const Span& span) {
  if (!IsSampled(span.trace_id)) {
    ++dropped_;
    return false;
  }
  spans_.push_back(span);
  ++recorded_;
  return true;
}

TraceId TraceCollector::NewTraceId() {
  // Ids are both unique and well-distributed so that sampling by hash works.
  return Mix64(options_.id_offset + next_id_++) | 1;
}

SpanId TraceCollector::NewSpanId() { return Mix64(0x5eed ^ (options_.id_offset + next_id_++)) | 1; }

double TraceCollector::ObservedKeepFraction() const {
  const uint64_t offered = recorded_ + dropped_;
  return offered == 0 ? 1.0
                      : static_cast<double>(recorded_) / static_cast<double>(offered);
}

void TraceCollector::Clear() {
  spans_.clear();
  encoded_records_.Clear();
  encoded_spans_ = 0;
  recorded_ = 0;
  dropped_ = 0;
}

Status TraceCollector::CheckpointTo(CheckpointWriter& w) const {
  encoded_records_.Append([this](std::vector<uint8_t>& records) {
    for (; encoded_spans_ < spans_.size(); ++encoded_spans_) {
      AppendSpanRecord(records, spans_[encoded_spans_]);
    }
  });
  std::vector<uint8_t> batch_header;
  AppendSpanBatchHeader(batch_header, spans_.size());
  w.BeginSection("trace_collector");
  w.WriteU64(sample_threshold_);  // Derived from options_; revalidated on restore.
  w.WriteU64(options_.id_offset);
  w.WriteU64(recorded_);
  w.WriteU64(dropped_);
  w.WriteU64(next_id_);
  w.WriteBytes(batch_header, encoded_records_);  // == SerializeSpans(spans_).
  w.EndSection();
  return Status::Ok();
}

Status TraceCollector::RestoreFrom(CheckpointReader& r) {
  if (Status s = r.EnterSection("trace_collector"); !s.ok()) {
    return s;
  }
  const uint64_t sample_threshold = r.ReadU64();
  const uint64_t id_offset = r.ReadU64();
  const uint64_t recorded = r.ReadU64();
  const uint64_t dropped = r.ReadU64();
  const uint64_t next_id = r.ReadU64();
  const std::vector<uint8_t> span_blob = r.ReadBytes();
  if (Status s = r.LeaveSection(); !s.ok()) {
    return s;
  }
  if (sample_threshold != sample_threshold_ || id_offset != options_.id_offset) {
    return FailedPreconditionError(
        "checkpoint trace-collector sampling/id configuration does not match this run");
  }
  if (next_id == 0) {
    return DataLossError("trace-collector id counter is zero");
  }
  Result<SpanReader> reader = SpanReader::Open(span_blob);
  if (!reader.ok()) {
    return reader.status();
  }
  const size_t records_begin = reader.value().offset();
  SpanLog spans;
  Span span;
  for (;;) {
    Result<bool> more = reader.value().Next(span);
    if (!more.ok()) {
      return more.status();
    }
    if (!more.value()) {
      break;
    }
    spans.push_back(span);
  }
  spans_ = std::move(spans);
  encoded_records_.Clear();
  encoded_spans_ = 0;
  // The blob's records are what CheckpointTo would encode for these spans, and
  // the section CRC has just vouched for them. A v1 batch lacks the v2 fields,
  // so its spans are encoded afresh at the next checkpoint.
  if (reader.value().version() == kSpanBatchVersion) {
    encoded_records_.Append([&](std::vector<uint8_t>& records) {
      records.insert(records.end(), span_blob.begin() + static_cast<std::ptrdiff_t>(records_begin),
                     span_blob.end());
    });
    encoded_spans_ = spans_.size();
  }
  recorded_ = recorded;
  dropped_ = dropped;
  next_id_ = next_id;
  return Status::Ok();
}

}  // namespace rpcscope
