// TraceCollector: the Dapper-like trace sink.
//
// Collects spans with probabilistic head sampling (a root's sampling decision
// propagates to the whole tree via the trace id, as in Dapper). Stores spans
// in memory, in a SpanLog of fixed blocks; analyses read them back as a flat
// view or assembled trees.
#ifndef RPCSCOPE_SRC_TRACE_COLLECTOR_H_
#define RPCSCOPE_SRC_TRACE_COLLECTOR_H_

#include <cstdint>

#include "src/common/status.h"
#include "src/trace/span.h"
#include "src/trace/span_log.h"
#include "src/wire/checksum.h"

namespace rpcscope {

class CheckpointWriter;
class CheckpointReader;

// RPCSCOPE_CHECKPOINTED(CheckpointTo, RestoreFrom)
class TraceCollector {
 public:
  // Configuration, not checkpointed state: RestoreFrom validates the saved
  // sampling setup against it instead of overwriting it.
  struct Options {
    double sampling_probability = 1.0;  // Head-based, per trace id.
    uint64_t seed = 0xdadbeef;
    // Offset added to the id counter before mixing. Sharded runs give each
    // shard-local collector a disjoint offset range (shard << 40) so ids are
    // fleet-unique without cross-shard coordination; Mix64 is a bijection, so
    // distinct counter values can never collide. 0 keeps legacy ids.
    uint64_t id_offset = 0;
  };

  TraceCollector() : TraceCollector(Options{}) {}
  explicit TraceCollector(const Options& options);

  // Whether a trace id is selected for collection (deterministic per id).
  [[nodiscard]] bool IsSampled(TraceId trace_id) const;

  // Records the span if its trace is sampled. Returns true if kept.
  bool Record(const Span& span);

  // Allocates fresh trace/span ids (never zero).
  TraceId NewTraceId();
  SpanId NewSpanId();

  const SpanLog& spans() const { return spans_; }
  uint64_t recorded() const { return recorded_; }
  uint64_t dropped() const { return dropped_; }

  // Drop-aware estimate of the realized sampling fraction: kept / offered
  // record attempts (1.0 before anything was offered). Span-weighted, unlike
  // options().sampling_probability which is the configured per-*trace* rate:
  // a deep trace contributes its whole span count to one keep/drop decision,
  // so the two differ whenever trace depth correlates with the sampling hash.
  // Analyses that scale counts up by the sampling rate should divide by this,
  // not by the configured probability.
  double ObservedKeepFraction() const;

  void Clear();

  // Checkpoint support: collected spans (as an RSPN codec blob, reusing
  // src/trace/storage.h), the id counter, and keep/drop tallies. Restore
  // re-validates sampling options via the derived threshold and replaces any
  // existing contents wholesale. CheckpointTo encodes and hashes only the
  // spans recorded since the previous call; the blob is byte-identical to
  // SerializeSpans(spans()). Restoring a current-version blob keeps its
  // records as the cache, so the next checkpoint encodes only new spans.
  [[nodiscard]] Status CheckpointTo(CheckpointWriter& w) const;
  [[nodiscard]] Status RestoreFrom(CheckpointReader& r);

 private:
  // No PRNG state: the keep decision is a stateless hash of the trace id
  // (Mix64(id ^ seed)), NOT a random draw, so every shard-local collector in
  // a sharded run — which all share the same `seed` — makes the identical
  // decision for a distributed trace's id without any coordination (Dapper's
  // head-sampling propagation). Per-shard randomness lives in the ids
  // themselves via disjoint id_offset ranges.
  Options options_;
  uint64_t sample_threshold_;  // Trace kept iff Mix64(id ^ seed) < threshold.
  SpanLog spans_;
  // Checkpoint cache, derived from spans_: the RSPN records of the first
  // encoded_spans_ spans and their running CRC32C, extended by CheckpointTo
  // so each span is encoded and hashed once however many checkpoints carry
  // it. spans_ only grows between Clear and RestoreFrom, which reset the
  // cache (RestoreFrom to the restored records).
  mutable ChecksummedBytes encoded_records_;
  mutable size_t encoded_spans_ = 0;
  uint64_t recorded_ = 0;
  uint64_t dropped_ = 0;
  uint64_t next_id_ = 1;
};

}  // namespace rpcscope

#endif  // RPCSCOPE_SRC_TRACE_COLLECTOR_H_
