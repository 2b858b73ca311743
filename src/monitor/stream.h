// The streaming observability pipeline: shard-local sinks -> online hub.
//
// The paper's three measurement systems (Dapper traces, Monarch windowed
// metrics, GWP profiles) never materialize the fleet's raw sample stream in
// one place — each machine aggregates locally and ships bounded *deltas* to a
// central aggregation plane. This module reproduces that shape for the
// sharded simulator (docs/OBSERVABILITY.md):
//
//   ShardStreamSink   one per shard domain, single-threaded. Taps the kept
//                     span stream (TraceSink), folds every span into bounded
//                     mergeable state — per-method StreamStat deltas and
//                     per-window MetricWindowDelta counters/histograms — and
//                     buffers at most `max_buffered_spans` raw spans for
//                     exemplar sampling. Overflow drops raw spans (counted,
//                     never silent) but NEVER loses aggregate counts: every
//                     span lands in the deltas before the buffer cap applies.
//   ObservabilityHub  the central aggregation plane. Fed exclusively on the
//                     coordinator thread at conservative-round barriers, in
//                     canonical shard order, so its state is bit-for-bit
//                     identical for any worker-thread count. Holds running
//                     per-method quantile state, a bounded deque of window
//                     summaries (closed windows retire eagerly through the
//                     live tap), and per-method span reservoirs.
//
// Determinism rules (tested by parallel_test):
//  * Sinks are only touched from their own shard's round execution.
//  * All sink -> hub movement happens at barriers, shard 0 first. With
//    batched rounds (per-pair lookahead horizons, docs/PARALLEL.md) barriers
//    are far rarer than before, so each flush carries a bigger delta — the
//    watermark passed to FlushInto is the round's minimum per-domain horizon,
//    which the executor guarantees is strictly increasing round over round,
//    and no event below it can ever run again. Single-domain runs have no
//    barriers at all: one final FlushInto(kMaxSimTime) drains everything.
//  * Aggregate state is integer-valued (counts, wrapping nanosecond sums,
//    histogram buckets), so it is also *ingest-order independent*: streaming
//    at barriers and replaying the post-run merged span stream produce the
//    same AggregateDigest. Reservoir contents are order-dependent but
//    barrier-order is canonical, so they are worker-count invariant too.
#ifndef RPCSCOPE_SRC_MONITOR_STREAM_H_
#define RPCSCOPE_SRC_MONITOR_STREAM_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <vector>

#include "src/common/histogram.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/common/time.h"
#include "src/trace/sink.h"
#include "src/trace/span.h"

namespace rpcscope {

class CheckpointWriter;
class CheckpointReader;

// Mergeable per-method aggregate. All fields are integers: merging and
// ingesting commute bit-for-bit regardless of order (sums wrap mod 2^64,
// which is still associative + commutative).
// RPCSCOPE_CHECKPOINTED(StreamStat::Merge, StreamStat::WriteTo, StreamStat::RestoreFrom)
struct StreamStat {
  int64_t count = 0;
  int64_t errors = 0;
  uint64_t total_nanos_sum = 0;  // Sum of latency.Total(), wrapping.
  uint64_t tax_nanos_sum = 0;    // Sum of latency.Tax(), wrapping.
  // Colocated-bypass accounting (docs/POLICY.md#colocated-bypass): spans that
  // took the fast path, and the cycles their skipped stages would have cost
  // (rounded to integers so the sum stays ingest-order independent).
  int64_t colocated = 0;
  uint64_t avoided_tax_cycles_sum = 0;  // Wrapping.
  SimDuration min_total = 0;     // Valid when count > 0.
  SimDuration max_total = 0;
  LogHistogram total_nanos;      // latency.Total() in nanoseconds.

  explicit StreamStat(const LogHistogram::Options& histogram_options)
      : total_nanos(histogram_options) {}

  void AddSpan(const Span& span);
  void Merge(const StreamStat& other);
  // Checkpoint support: writes/reads every field inline into the caller's
  // open section (no section of its own — aggregates nest inside their
  // owner's frame).
  void WriteTo(CheckpointWriter& w) const;
  [[nodiscard]] Status RestoreFrom(CheckpointReader& r);
  // Mean over the *non-wrapped* range (sums in any realistic run are far
  // below 2^64 ns ~ 584 years of accumulated latency).
  double MeanTotalNanos() const {
    return count == 0 ? 0.0 : static_cast<double>(total_nanos_sum) / static_cast<double>(count);
  }
};

// One time window's metric flush: Monarch's "counter sampled per 30-minute
// window", as a delta since the previous flush. Windows are aligned to
// `window` and keyed by the *span start time* — an in-flight RPC that
// completes after its start window closed is a late update, merged in and
// counted, never dropped.
// RPCSCOPE_CHECKPOINTED(MetricWindowDelta::Merge, MetricWindowDelta::WriteTo, MetricWindowDelta::RestoreFrom)
struct MetricWindowDelta {
  SimTime window_start = 0;
  int64_t spans = 0;
  int64_t errors = 0;
  uint64_t total_nanos_sum = 0;  // Wrapping.
  LogHistogram total_nanos;

  explicit MetricWindowDelta(const LogHistogram::Options& histogram_options)
      : total_nanos(histogram_options) {}

  void AddSpan(const Span& span);
  void Merge(const MetricWindowDelta& other);
  void WriteTo(CheckpointWriter& w) const;
  [[nodiscard]] Status RestoreFrom(CheckpointReader& r);
};

// Receiver of a shard's flushed metric deltas. ObservabilityHub is the
// production implementation; tests substitute recorders.
class MetricSink {
 public:
  virtual ~MetricSink() = default;

  // A shard's per-window delta since its previous flush.
  virtual void IngestWindowDelta(const MetricWindowDelta& delta) = 0;
  // A shard's per-method aggregate delta since its previous flush.
  virtual void IngestMethodDelta(int32_t method_id, const StreamStat& delta) = 0;
  // Raw-span buffer overflow drops since the previous flush (aggregates for
  // the dropped spans were still ingested — only exemplars were lost).
  virtual void IngestSpanDrops(uint64_t dropped) = 0;
};

// Configuration for the whole pipeline (shared by sinks and hub so their
// histogram layouts always agree — LogHistogram::Merge CHECKs layout).
struct ObservabilityOptions {
  // Monarch window width. The paper's counters use 30 minutes; short DES
  // scenarios set this to milliseconds to get a live series.
  SimDuration window = Minutes(30);
  // Hub retention: window summaries beyond this are evicted oldest-first
  // (after closing through the tap); evictions are counted, never silent.
  int max_windows = 96;
  // Per-shard cap on raw spans buffered between barrier flushes. Aggregates
  // are unaffected by the cap; only exemplar candidates are dropped (counted).
  size_t max_buffered_spans = 1 << 16;
  // Exemplar reservoir size per method at the hub (Algorithm R).
  int reservoir_per_method = 4;
  uint64_t reservoir_seed = 0x0b5eedULL;
  // Latency histogram layout, in nanoseconds: 100ns .. 1000s.
  LogHistogram::Options latency_histogram = {
      .min_value = 1e2, .max_value = 1e12, .buckets_per_decade = 10};
};

// Closed-or-open window summary retained at the hub.
// RPCSCOPE_CHECKPOINTED(WindowStats::WriteTo, WindowStats::RestoreFrom)
struct WindowStats {
  SimTime window_start = 0;
  SimDuration window_width = 0;
  int64_t spans = 0;
  int64_t errors = 0;
  uint64_t total_nanos_sum = 0;  // Wrapping.
  LogHistogram total_nanos;
  bool closed = false;
  // Deltas merged after the window already closed (in-flight stragglers whose
  // start window retired before they completed). The tap saw the window
  // without them; the aggregate state still includes them.
  int64_t late_updates = 0;

  explicit WindowStats(const LogHistogram::Options& histogram_options)
      : total_nanos(histogram_options) {}

  double Rps() const {
    return window_width <= 0 ? 0.0 : static_cast<double>(spans) / ToSeconds(window_width);
  }
  double MeanTotalNanos() const {
    return spans == 0 ? 0.0 : static_cast<double>(total_nanos_sum) / static_cast<double>(spans);
  }

  void WriteTo(CheckpointWriter& w) const;
  [[nodiscard]] Status RestoreFrom(CheckpointReader& r);
};

// The central aggregation plane. Single-threaded by contract: only the
// coordinator (barrier) thread or a post-run caller may touch it.
// RPCSCOPE_CHECKPOINTED(ObservabilityHub::CheckpointTo, ObservabilityHub::RestoreFrom)
class ObservabilityHub : public MetricSink, public TraceSink {
 public:
  // RPCSCOPE_CHECKPOINTED(ObservabilityHub::MethodStream::WriteTo, ObservabilityHub::MethodStream::RestoreFrom)
  struct MethodStream {
    StreamStat stat;
    // Exemplar reservoir (Algorithm R over the canonical ingest order).
    std::vector<Span> reservoir;
    int64_t reservoir_seen = 0;
    Rng reservoir_rng;

    MethodStream(const LogHistogram::Options& histogram_options, uint64_t seed)
        : stat(histogram_options), reservoir_rng(seed) {}

    void WriteTo(CheckpointWriter& w) const;
    [[nodiscard]] Status RestoreFrom(CheckpointReader& r);
  };

  explicit ObservabilityHub(const ObservabilityOptions& options);

  // Live tap: invoked exactly once per window, when the watermark passes its
  // end (or at final flush). Not part of digests.
  void SetWindowCloseTap(std::function<void(const WindowStats&)> tap) {
    on_window_close_ = std::move(tap);
  }

  // MetricSink: mergeable deltas, order-independent aggregate state.
  void IngestWindowDelta(const MetricWindowDelta& delta) override;
  void IngestMethodDelta(int32_t method_id, const StreamStat& delta) override;
  void IngestSpanDrops(uint64_t dropped) override;

  // TraceSink: exemplar path. Feeds the per-method reservoir only — aggregate
  // state comes exclusively through the MetricSink deltas, so replaying raw
  // spans here never double-counts.
  void OnSpan(const Span& span) override;

  // Closes every window whose end <= watermark: fires the tap once and marks
  // it closed. Idempotent per window; watermarks must be non-decreasing.
  void AdvanceWatermark(SimTime watermark);

  // Queries.
  SimTime watermark() const { return watermark_; }
  const std::map<int32_t, MethodStream>& methods() const { return methods_; }
  const std::deque<WindowStats>& windows() const { return windows_; }
  const WindowStats* FindWindow(SimTime window_start) const;
  // Running quantile of a method's completion time, in nanoseconds.
  double MethodQuantileNanos(int32_t method_id, double q) const;

  // Counters (all cumulative).
  int64_t spans_ingested() const { return spans_ingested_; }         // Via deltas.
  int64_t exemplars_ingested() const { return exemplars_ingested_; }  // Via OnSpan.
  uint64_t span_buffer_drops() const { return span_buffer_drops_; }
  int64_t reservoir_drops() const { return reservoir_drops_; }
  int64_t windows_closed() const { return windows_closed_; }
  int64_t windows_evicted() const { return windows_evicted_; }
  int64_t late_window_updates() const { return late_window_updates_; }

  // FNV-1a fold of the order-independent aggregate state: every method's
  // StreamStat and every retained window's counters + bucket counts, in key
  // order. Streaming at barriers and replaying the post-run merged span
  // stream yield the same digest; so do any two worker-thread counts.
  uint64_t AggregateDigest() const;
  // FNV-1a fold of reservoir contents (span ids per method). Order-dependent,
  // but the barrier order is canonical: equal across worker-thread counts.
  uint64_t ExemplarDigest() const;

  const ObservabilityOptions& options() const { return options_; }

  // Checkpoint support: the full aggregation state — per-method streams
  // (stats + reservoirs + reservoir RNGs), retained windows, watermark, and
  // every counter. Restore requires a hub freshly constructed with the same
  // digest-relevant options (validated) and replaces its state wholesale, so
  // AggregateDigest/ExemplarDigest after restore equal the values at save.
  [[nodiscard]] Status CheckpointTo(CheckpointWriter& w) const;
  [[nodiscard]] Status RestoreFrom(CheckpointReader& r);

 private:
  WindowStats& WindowAt(SimTime window_start);

  ObservabilityOptions options_;
  // Re-attached by the owner after restore, like any live callback.
  std::function<void(const WindowStats&)> on_window_close_;  // NOLINT(detan-checkpoint-field) structural
  std::map<int32_t, MethodStream> methods_;
  std::deque<WindowStats> windows_;  // Ascending by window_start.
  SimTime watermark_ = kMinSimTime;
  int64_t spans_ingested_ = 0;
  int64_t exemplars_ingested_ = 0;
  uint64_t span_buffer_drops_ = 0;
  int64_t reservoir_drops_ = 0;
  int64_t windows_closed_ = 0;
  int64_t windows_evicted_ = 0;
  int64_t late_window_updates_ = 0;
};

// The shard-local half of the pipeline. Owned by a shard context, invoked
// only from that shard's round execution; flushed by the coordinator at
// barriers (canonical shard order) via FlushInto.
// RPCSCOPE_CHECKPOINTED(ShardStreamSink::CheckpointTo, ShardStreamSink::RestoreFrom)
class ShardStreamSink : public TraceSink {
 public:
  explicit ShardStreamSink(const ObservabilityOptions& options);

  // Folds the span into the per-method and per-window deltas (always), and
  // appends it to the bounded exemplar buffer (unless full: counted drop).
  void OnSpan(const Span& span) override;

  // Moves all accumulated deltas and buffered spans into `hub` and resets
  // this sink to empty. Windows that ended at or before `watermark` are
  // retired here eagerly — by contract no event at time < watermark will run
  // again, and late completions for an already-retired window simply open a
  // fresh delta that merges into the hub's (closed) window summary.
  // Single-threaded: caller must be the coordinator, at a barrier.
  void FlushInto(ObservabilityHub& hub, SimTime watermark);

  // Stats for cap/bounded-memory verification.
  size_t buffered_spans() const { return buffered_spans_.size(); }
  size_t peak_buffered_spans() const { return peak_buffered_spans_; }
  uint64_t dropped_spans() const { return dropped_spans_; }
  int64_t spans_seen() const { return spans_seen_; }

  // Checkpoint support. Checkpoints happen right after a barrier flush, so
  // both directions require the delta maps and span buffer to be empty (only
  // the cumulative counters survive a flush).
  [[nodiscard]] Status CheckpointTo(CheckpointWriter& w) const;
  [[nodiscard]] Status RestoreFrom(CheckpointReader& r);

 private:
  ObservabilityOptions options_;
  std::map<int32_t, StreamStat> method_deltas_;
  std::map<SimTime, MetricWindowDelta> window_deltas_;
  std::vector<Span> buffered_spans_;
  size_t peak_buffered_spans_ = 0;
  uint64_t dropped_spans_ = 0;       // Cumulative (survives flushes).
  uint64_t unflushed_drops_ = 0;     // Since the last flush.
  int64_t spans_seen_ = 0;
};

// Post-run reference aggregation: feeds every span through a fresh
// sink + hub pair, flushing the sink every `max_buffered_spans` spans (at
// least 1) and advancing the watermark once, at the end. Tests compare its
// AggregateDigest against the barrier-streamed hub's to prove the streamed
// pipeline lost nothing (docs/OBSERVABILITY.md). Flushing before the buffer
// overflows means exemplar candidates are never dropped by buffering
// (reservoir policy still applies), and both digests equal those of a single
// flush of an uncapped buffer. Digests are comparable as long as neither hub
// evicted windows (windows_evicted() == 0) — retention eviction is
// deliberately lossy, so runs spanning more than max_windows windows digest
// only the retained suffix.
ObservabilityHub ReplayIntoHub(const std::vector<Span>& spans, ObservabilityOptions options);

}  // namespace rpcscope

#endif  // RPCSCOPE_SRC_MONITOR_STREAM_H_
