#include "src/monitor/stream.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/checkpoint/checkpoint.h"
#include "src/common/check.h"
#include "src/common/digest.h"
#include "src/trace/storage.h"

namespace rpcscope {

namespace {

uint64_t FoldHistogram(uint64_t digest, const LogHistogram& histogram) {
  digest = FnvMix(digest, static_cast<uint64_t>(histogram.count()));
  for (int64_t bucket : histogram.bucket_counts()) {
    digest = FnvMix(digest, static_cast<uint64_t>(bucket));
  }
  return digest;
}

SimTime WindowStartOf(SimTime time, SimDuration window) {
  // Aligned window containing `time`; negative times (not produced by the
  // stack, but accepted) floor toward -inf so windows stay half-open.
  SimTime start = (time / window) * window;
  if (start > time) {
    start -= window;
  }
  return start;
}

}  // namespace

void StreamStat::AddSpan(const Span& span) {
  const SimDuration total = span.latency.Total();
  if (count == 0 || total < min_total) {
    min_total = total;
  }
  if (count == 0 || total > max_total) {
    max_total = total;
  }
  ++count;
  if (span.status != StatusCode::kOk) {
    ++errors;
  }
  total_nanos_sum += static_cast<uint64_t>(total);
  tax_nanos_sum += static_cast<uint64_t>(span.latency.Tax());
  if (span.colocated) {
    ++colocated;
    avoided_tax_cycles_sum += static_cast<uint64_t>(std::llround(span.avoided_tax_cycles));
  }
  total_nanos.Add(static_cast<double>(total));
}

void StreamStat::Merge(const StreamStat& other) {
  if (other.count == 0) {
    return;
  }
  if (count == 0 || other.min_total < min_total) {
    min_total = other.min_total;
  }
  if (count == 0 || other.max_total > max_total) {
    max_total = other.max_total;
  }
  count += other.count;
  errors += other.errors;
  total_nanos_sum += other.total_nanos_sum;
  tax_nanos_sum += other.tax_nanos_sum;
  colocated += other.colocated;
  avoided_tax_cycles_sum += other.avoided_tax_cycles_sum;
  total_nanos.Merge(other.total_nanos);
}

void StreamStat::WriteTo(CheckpointWriter& w) const {
  w.WriteI64(count);
  w.WriteI64(errors);
  w.WriteU64(total_nanos_sum);
  w.WriteU64(tax_nanos_sum);
  w.WriteI64(colocated);
  w.WriteU64(avoided_tax_cycles_sum);
  w.WriteI64(min_total);
  w.WriteI64(max_total);
  WriteHistogramState(w, total_nanos);
}

Status StreamStat::RestoreFrom(CheckpointReader& r) {
  count = r.ReadI64();
  errors = r.ReadI64();
  total_nanos_sum = r.ReadU64();
  tax_nanos_sum = r.ReadU64();
  colocated = r.ReadI64();
  avoided_tax_cycles_sum = r.ReadU64();
  min_total = r.ReadI64();
  max_total = r.ReadI64();
  return ReadHistogramState(r, total_nanos);
}

void MetricWindowDelta::AddSpan(const Span& span) {
  ++spans;
  if (span.status != StatusCode::kOk) {
    ++errors;
  }
  const SimDuration total = span.latency.Total();
  total_nanos_sum += static_cast<uint64_t>(total);
  total_nanos.Add(static_cast<double>(total));
}

void MetricWindowDelta::Merge(const MetricWindowDelta& other) {
  RPCSCOPE_DCHECK_EQ(window_start, other.window_start);
  spans += other.spans;
  errors += other.errors;
  total_nanos_sum += other.total_nanos_sum;
  total_nanos.Merge(other.total_nanos);
}

void MetricWindowDelta::WriteTo(CheckpointWriter& w) const {
  w.WriteI64(window_start);
  w.WriteI64(spans);
  w.WriteI64(errors);
  w.WriteU64(total_nanos_sum);
  WriteHistogramState(w, total_nanos);
}

Status MetricWindowDelta::RestoreFrom(CheckpointReader& r) {
  window_start = r.ReadI64();
  spans = r.ReadI64();
  errors = r.ReadI64();
  total_nanos_sum = r.ReadU64();
  return ReadHistogramState(r, total_nanos);
}

void WindowStats::WriteTo(CheckpointWriter& w) const {
  w.WriteI64(window_start);
  w.WriteI64(window_width);
  w.WriteI64(spans);
  w.WriteI64(errors);
  w.WriteU64(total_nanos_sum);
  w.WriteBool(closed);
  w.WriteI64(late_updates);
  WriteHistogramState(w, total_nanos);
}

Status WindowStats::RestoreFrom(CheckpointReader& r) {
  window_start = r.ReadI64();
  window_width = r.ReadI64();
  spans = r.ReadI64();
  errors = r.ReadI64();
  total_nanos_sum = r.ReadU64();
  closed = r.ReadBool();
  late_updates = r.ReadI64();
  return ReadHistogramState(r, total_nanos);
}

void ObservabilityHub::MethodStream::WriteTo(CheckpointWriter& w) const {
  stat.WriteTo(w);
  w.WriteI64(reservoir_seen);
  WriteRngState(w, reservoir_rng);
  w.WriteBytes(SerializeSpans(reservoir));
}

Status ObservabilityHub::MethodStream::RestoreFrom(CheckpointReader& r) {
  if (Status s = stat.RestoreFrom(r); !s.ok()) {
    return s;
  }
  reservoir_seen = r.ReadI64();
  ReadRngState(r, reservoir_rng);
  Result<std::vector<Span>> spans = DeserializeSpans(r.ReadBytes());
  if (!spans.ok()) {
    return spans.status();
  }
  reservoir = std::move(spans).value();
  return Status::Ok();
}

ObservabilityHub::ObservabilityHub(const ObservabilityOptions& options) : options_(options) {
  RPCSCOPE_CHECK_GT(options_.window, 0);
  RPCSCOPE_CHECK_GT(options_.max_windows, 0);
  RPCSCOPE_CHECK_GE(options_.reservoir_per_method, 0);
}

WindowStats& ObservabilityHub::WindowAt(SimTime window_start) {
  // Windows arrive almost in order (barrier watermarks are monotone); search
  // from the back, insert in place if absent.
  auto it = windows_.end();
  while (it != windows_.begin()) {
    auto prev = std::prev(it);
    if (prev->window_start == window_start) {
      return *prev;
    }
    if (prev->window_start < window_start) {
      break;
    }
    it = prev;
  }
  it = windows_.insert(it, WindowStats(options_.latency_histogram));
  it->window_start = window_start;
  it->window_width = options_.window;
  // A window created at or below the watermark was already closed (a late
  // straggler re-opened it): keep it marked closed so the tap never fires
  // twice, and let AdvanceWatermark's counters stand.
  if (AddClamped(window_start, options_.window) <= watermark_) {
    it->closed = true;
  }
  WindowStats& created = *it;
  while (static_cast<int>(windows_.size()) > options_.max_windows) {
    // Evict oldest-first; an unclosed evictee still goes through the tap so
    // no window ever disappears silently.
    WindowStats& oldest = windows_.front();
    if (&oldest == &created) {
      break;  // Never evict the entry being returned.
    }
    if (!oldest.closed) {
      oldest.closed = true;
      ++windows_closed_;
      if (on_window_close_) {
        on_window_close_(oldest);
      }
    }
    ++windows_evicted_;
    windows_.pop_front();
  }
  return created;
}

void ObservabilityHub::IngestWindowDelta(const MetricWindowDelta& delta) {
  WindowStats& window = WindowAt(delta.window_start);
  if (window.closed) {
    ++window.late_updates;
    ++late_window_updates_;
  }
  window.spans += delta.spans;
  window.errors += delta.errors;
  window.total_nanos_sum += delta.total_nanos_sum;
  window.total_nanos.Merge(delta.total_nanos);
  spans_ingested_ += delta.spans;
}

void ObservabilityHub::IngestMethodDelta(int32_t method_id, const StreamStat& delta) {
  auto it = methods_.find(method_id);
  if (it == methods_.end()) {
    it = methods_
             .emplace(method_id,
                      MethodStream(options_.latency_histogram,
                                   Mix64(options_.reservoir_seed ^
                                         static_cast<uint64_t>(static_cast<uint32_t>(method_id)))))
             .first;
  }
  it->second.stat.Merge(delta);
}

void ObservabilityHub::IngestSpanDrops(uint64_t dropped) { span_buffer_drops_ += dropped; }

void ObservabilityHub::OnSpan(const Span& span) {
  ++exemplars_ingested_;
  auto it = methods_.find(span.method_id);
  if (it == methods_.end()) {
    it = methods_
             .emplace(span.method_id,
                      MethodStream(options_.latency_histogram,
                                   Mix64(options_.reservoir_seed ^
                                         static_cast<uint64_t>(
                                             static_cast<uint32_t>(span.method_id)))))
             .first;
  }
  MethodStream& stream = it->second;
  const int64_t seen = stream.reservoir_seen++;
  const int64_t capacity = options_.reservoir_per_method;
  if (capacity == 0) {
    ++reservoir_drops_;
    return;
  }
  if (seen < capacity) {
    stream.reservoir.push_back(span);
    return;
  }
  // Algorithm R: the i-th span (0-based) replaces a random slot with
  // probability capacity / (i + 1). Deterministic per method given the
  // canonical ingest order.
  const uint64_t j = stream.reservoir_rng.NextBounded(static_cast<uint64_t>(seen) + 1);
  if (j < static_cast<uint64_t>(capacity)) {
    stream.reservoir[static_cast<size_t>(j)] = span;
  }
  ++reservoir_drops_;
}

void ObservabilityHub::AdvanceWatermark(SimTime watermark) {
  RPCSCOPE_CHECK_GE(watermark, watermark_) << "watermarks must be non-decreasing";
  watermark_ = watermark;
  for (WindowStats& window : windows_) {
    if (window.closed) {
      continue;
    }
    if (AddClamped(window.window_start, window.window_width) > watermark) {
      break;  // Ascending order: everything later is still open.
    }
    window.closed = true;
    ++windows_closed_;
    if (on_window_close_) {
      on_window_close_(window);
    }
  }
}

const WindowStats* ObservabilityHub::FindWindow(SimTime window_start) const {
  for (const WindowStats& window : windows_) {
    if (window.window_start == window_start) {
      return &window;
    }
  }
  return nullptr;
}

double ObservabilityHub::MethodQuantileNanos(int32_t method_id, double q) const {
  auto it = methods_.find(method_id);
  if (it == methods_.end() || it->second.stat.count == 0) {
    return 0.0;
  }
  return it->second.stat.total_nanos.Quantile(q);
}

uint64_t ObservabilityHub::AggregateDigest() const {
  uint64_t digest = kFnvOffsetBasis;
  digest = FnvMix(digest, static_cast<uint64_t>(methods_.size()));
  for (const auto& [method_id, stream] : methods_) {
    digest = FnvMix(digest, static_cast<uint64_t>(static_cast<uint32_t>(method_id)));
    digest = FnvMix(digest, static_cast<uint64_t>(stream.stat.count));
    digest = FnvMix(digest, static_cast<uint64_t>(stream.stat.errors));
    digest = FnvMix(digest, stream.stat.total_nanos_sum);
    digest = FnvMix(digest, stream.stat.tax_nanos_sum);
    digest = FnvMix(digest, static_cast<uint64_t>(stream.stat.colocated));
    digest = FnvMix(digest, stream.stat.avoided_tax_cycles_sum);
    digest = FnvMix(digest, static_cast<uint64_t>(stream.stat.min_total));
    digest = FnvMix(digest, static_cast<uint64_t>(stream.stat.max_total));
    digest = FoldHistogram(digest, stream.stat.total_nanos);
  }
  digest = FnvMix(digest, static_cast<uint64_t>(windows_.size()));
  for (const WindowStats& window : windows_) {
    digest = FnvMix(digest, static_cast<uint64_t>(window.window_start));
    digest = FnvMix(digest, static_cast<uint64_t>(window.spans));
    digest = FnvMix(digest, static_cast<uint64_t>(window.errors));
    digest = FnvMix(digest, window.total_nanos_sum);
    digest = FoldHistogram(digest, window.total_nanos);
  }
  digest = FnvMix(digest, static_cast<uint64_t>(spans_ingested_));
  return digest;
}

uint64_t ObservabilityHub::ExemplarDigest() const {
  uint64_t digest = kFnvOffsetBasis;
  for (const auto& [method_id, stream] : methods_) {
    digest = FnvMix(digest, static_cast<uint64_t>(static_cast<uint32_t>(method_id)));
    digest = FnvMix(digest, static_cast<uint64_t>(stream.reservoir_seen));
    for (const Span& span : stream.reservoir) {
      digest = FnvMix(digest, span.trace_id);
      digest = FnvMix(digest, span.span_id);
      digest = FnvMix(digest, static_cast<uint64_t>(span.start_time));
    }
  }
  return digest;
}

Status ObservabilityHub::CheckpointTo(CheckpointWriter& w) const {
  w.BeginSection("hub");
  // Digest-relevant configuration, re-validated on restore.
  w.WriteI64(options_.window);
  w.WriteU32(static_cast<uint32_t>(options_.max_windows));
  w.WriteU32(static_cast<uint32_t>(options_.reservoir_per_method));
  w.WriteU64(options_.reservoir_seed);
  w.WriteI64(watermark_);
  w.WriteI64(spans_ingested_);
  w.WriteI64(exemplars_ingested_);
  w.WriteU64(span_buffer_drops_);
  w.WriteI64(reservoir_drops_);
  w.WriteI64(windows_closed_);
  w.WriteI64(windows_evicted_);
  w.WriteI64(late_window_updates_);
  w.WriteU32(static_cast<uint32_t>(methods_.size()));
  for (const auto& [method_id, stream] : methods_) {
    w.WriteU32(static_cast<uint32_t>(method_id));
    stream.WriteTo(w);
  }
  w.WriteU32(static_cast<uint32_t>(windows_.size()));
  for (const WindowStats& window : windows_) {
    window.WriteTo(w);
  }
  w.EndSection();
  return Status::Ok();
}

Status ObservabilityHub::RestoreFrom(CheckpointReader& r) {
  if (Status s = r.EnterSection("hub"); !s.ok()) {
    return s;
  }
  const SimDuration window = r.ReadI64();
  const auto max_windows = static_cast<int>(r.ReadU32());
  const auto reservoir_per_method = static_cast<int>(r.ReadU32());
  const uint64_t reservoir_seed = r.ReadU64();
  if (window != options_.window || max_windows != options_.max_windows ||
      reservoir_per_method != options_.reservoir_per_method ||
      reservoir_seed != options_.reservoir_seed) {
    // Surface the config mismatch with its own code; drain the section first
    // so the caller could in principle continue past it.
    (void)r.LeaveSection();
    return FailedPreconditionError(
        "checkpoint observability configuration does not match this run");
  }
  const SimTime watermark = r.ReadI64();
  const int64_t spans_ingested = r.ReadI64();
  const int64_t exemplars_ingested = r.ReadI64();
  const uint64_t span_buffer_drops = r.ReadU64();
  const int64_t reservoir_drops = r.ReadI64();
  const int64_t windows_closed = r.ReadI64();
  const int64_t windows_evicted = r.ReadI64();
  const int64_t late_window_updates = r.ReadI64();
  std::map<int32_t, MethodStream> methods;
  const uint32_t num_methods = r.ReadU32();
  int64_t previous_method = -1;
  for (uint32_t i = 0; i < num_methods && r.status().ok(); ++i) {
    const auto method_id = static_cast<int32_t>(r.ReadU32());
    if (static_cast<int64_t>(method_id) <= previous_method) {
      (void)r.LeaveSection();
      return DataLossError("hub method ids out of order in checkpoint");
    }
    previous_method = method_id;
    auto it = methods
                  .emplace(method_id,
                           MethodStream(options_.latency_histogram,
                                        Mix64(options_.reservoir_seed ^
                                              static_cast<uint64_t>(
                                                  static_cast<uint32_t>(method_id)))))
                  .first;
    if (Status s = it->second.RestoreFrom(r); !s.ok()) {
      (void)r.LeaveSection();
      return s;
    }
  }
  std::deque<WindowStats> windows;
  const uint32_t num_windows = r.ReadU32();
  for (uint32_t i = 0; i < num_windows && r.status().ok(); ++i) {
    windows.emplace_back(options_.latency_histogram);
    if (Status s = windows.back().RestoreFrom(r); !s.ok()) {
      (void)r.LeaveSection();
      return s;
    }
    if (windows.size() > 1 &&
        windows[windows.size() - 2].window_start >= windows.back().window_start) {
      (void)r.LeaveSection();
      return DataLossError("hub windows out of order in checkpoint");
    }
  }
  if (Status s = r.LeaveSection(); !s.ok()) {
    return s;
  }
  watermark_ = watermark;
  spans_ingested_ = spans_ingested;
  exemplars_ingested_ = exemplars_ingested;
  span_buffer_drops_ = span_buffer_drops;
  reservoir_drops_ = reservoir_drops;
  windows_closed_ = windows_closed;
  windows_evicted_ = windows_evicted;
  late_window_updates_ = late_window_updates;
  methods_ = std::move(methods);
  windows_ = std::move(windows);
  return Status::Ok();
}

ShardStreamSink::ShardStreamSink(const ObservabilityOptions& options) : options_(options) {
  RPCSCOPE_CHECK_GT(options_.window, 0);
}

Status ShardStreamSink::CheckpointTo(CheckpointWriter& w) const {
  if (!method_deltas_.empty() || !window_deltas_.empty() || !buffered_spans_.empty() ||
      unflushed_drops_ != 0) {
    return FailedPreconditionError(
        "shard stream sink has unflushed deltas: checkpoints are only taken "
        "right after a barrier flush");
  }
  w.BeginSection("stream_sink");
  w.WriteI64(options_.window);  // Validation aid.
  w.WriteU64(static_cast<uint64_t>(peak_buffered_spans_));
  w.WriteU64(dropped_spans_);
  w.WriteI64(spans_seen_);
  w.EndSection();
  return Status::Ok();
}

Status ShardStreamSink::RestoreFrom(CheckpointReader& r) {
  if (!method_deltas_.empty() || !window_deltas_.empty() || !buffered_spans_.empty() ||
      unflushed_drops_ != 0) {
    return FailedPreconditionError("restore into a stream sink with unflushed deltas");
  }
  if (Status s = r.EnterSection("stream_sink"); !s.ok()) {
    return s;
  }
  const SimDuration window = r.ReadI64();
  const uint64_t peak_buffered_spans = r.ReadU64();
  const uint64_t dropped_spans = r.ReadU64();
  const int64_t spans_seen = r.ReadI64();
  if (Status s = r.LeaveSection(); !s.ok()) {
    return s;
  }
  if (window != options_.window) {
    return FailedPreconditionError("checkpoint sink window does not match this run");
  }
  peak_buffered_spans_ = static_cast<size_t>(peak_buffered_spans);
  dropped_spans_ = dropped_spans;
  spans_seen_ = spans_seen;
  return Status::Ok();
}

void ShardStreamSink::OnSpan(const Span& span) {
  ++spans_seen_;
  // Aggregates first: the buffer cap only ever costs exemplars.
  auto method_it = method_deltas_.find(span.method_id);
  if (method_it == method_deltas_.end()) {
    method_it =
        method_deltas_.emplace(span.method_id, StreamStat(options_.latency_histogram)).first;
  }
  method_it->second.AddSpan(span);

  const SimTime window_start = WindowStartOf(span.start_time, options_.window);
  auto window_it = window_deltas_.find(window_start);
  if (window_it == window_deltas_.end()) {
    window_it =
        window_deltas_.emplace(window_start, MetricWindowDelta(options_.latency_histogram)).first;
    window_it->second.window_start = window_start;
  }
  window_it->second.AddSpan(span);

  if (buffered_spans_.size() >= options_.max_buffered_spans) {
    ++dropped_spans_;
    ++unflushed_drops_;
    return;
  }
  buffered_spans_.push_back(span);
  peak_buffered_spans_ = std::max(peak_buffered_spans_, buffered_spans_.size());
}

void ShardStreamSink::FlushInto(ObservabilityHub& hub, SimTime watermark) {
  // Window deltas retire eagerly: every delta ships now and its shard-side
  // entry is erased, closed or not — the hub owns the running summary. The
  // `watermark` parameter names the round barrier this flush happens at; the
  // hub uses it (via AdvanceWatermark, called by the owner after all shards
  // flushed) to decide which windows are final.
  (void)watermark;
  for (auto& [window_start, delta] : window_deltas_) {
    hub.IngestWindowDelta(delta);
  }
  window_deltas_.clear();
  for (auto& [method_id, delta] : method_deltas_) {
    hub.IngestMethodDelta(method_id, delta);
  }
  method_deltas_.clear();
  for (const Span& span : buffered_spans_) {
    hub.OnSpan(span);
  }
  buffered_spans_.clear();
  if (unflushed_drops_ != 0) {
    hub.IngestSpanDrops(unflushed_drops_);
    unflushed_drops_ = 0;
  }
}

ObservabilityHub ReplayIntoHub(const std::vector<Span>& spans, ObservabilityOptions options) {
  // Flush whenever the buffer fills, before the cap could drop an exemplar.
  // No window closes before the final watermark, aggregates are ingest-order
  // independent and the hub sees exemplars in input order, so both digests
  // equal those of one flush of an uncapped buffer.
  options.max_buffered_spans = std::max<size_t>(options.max_buffered_spans, 1);
  ObservabilityHub hub(options);
  ShardStreamSink sink(options);
  for (const Span& span : spans) {
    sink.OnSpan(span);
    if (sink.buffered_spans() == options.max_buffered_spans) {
      sink.FlushInto(hub, kMinSimTime);
    }
  }
  sink.FlushInto(hub, kMaxSimTime);
  hub.AdvanceWatermark(kMaxSimTime);
  return hub;
}

}  // namespace rpcscope
