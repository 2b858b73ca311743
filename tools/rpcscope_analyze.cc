// rpcscope_analyze: offline analysis of persisted span files.
//
// The downstream-user tool: point it at one or more TraceStore span files
// (written by TraceStore::SaveToFile, e.g. from examples/trace_pipeline or
// your own instrumentation) and get the paper's analyses over your traces.
//
// Usage:
//   rpcscope_analyze <spans.bin>... [--analysis=summary|breakdown|whatif|
//                                     offload|taxratio|sizes|queueing|trees|
//                                     stream]
//                                   [--csv]
//   rpcscope_analyze --list-profiles
//
// --analysis=offload reprices the spans under every built-in stage-cost
// profile (docs/TAX.md) and compares fleet p50/p99 and per-category cycle
// tax against the baseline; --list-profiles prints the catalog.
//
// --analysis=stream consumes the files incrementally (SpanReader) through the
// streaming observability pipeline (docs/OBSERVABILITY.md): running per-method
// quantile state and Monarch-window summaries, O(1) span memory — it never
// materializes the batch, so it handles span files of any size.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/core/analyses.h"
#include "src/monitor/stream.h"
#include "src/trace/storage.h"
#include "src/trace/tree.h"

using namespace rpcscope;

namespace {

int Usage() {
  std::fputs(
      "usage: rpcscope_analyze <spans.bin>... [--analysis=NAME] [--csv]\n"
      "       rpcscope_analyze --list-profiles\n"
      "  analyses: summary (default), breakdown, whatif, offload, taxratio,\n"
      "            sizes, queueing, trees, stream\n",
      stderr);
  return 2;
}

// --list-profiles: the built-in stage-cost profile catalog (docs/TAX.md).
int ListProfiles() {
  const ProfileCatalog& catalog = BuiltinProfileCatalog();
  TextTable t({"id", "profile", "summary", "source"});
  for (size_t i = 0; i < catalog.size(); ++i) {
    const TaxProfile& p = catalog.at(i);
    t.AddRow({std::to_string(i), p.name, p.summary, p.source});
  }
  std::fputs(t.Render().c_str(), stdout);
  return 0;
}

Result<std::vector<uint8_t>> ReadFileBytes(const std::string& path) {
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
  return bytes;
}

// Streams every file through a sink -> hub pair, flushing periodically so
// resident state stays bounded: per-method running quantiles + window
// summaries at the hub, at most a few thousand raw spans in flight. Offline
// files are not necessarily time-ordered, so spans landing behind the
// watermark merge into closed windows as counted late updates — the same
// contract in-flight RPC stragglers get during a live run.
int RunStreamAnalysis(const std::vector<std::string>& files, bool csv,
                      void (*emit)(const FigureReport&, bool)) {
  ObservabilityOptions options;
  ObservabilityHub hub(options);
  ShardStreamSink sink(options);
  SimTime watermark = kMinSimTime;
  int64_t since_flush = 0;
  for (const std::string& file : files) {
    Result<std::vector<uint8_t>> bytes = ReadFileBytes(file);
    if (!bytes.ok()) {
      std::fprintf(stderr, "cannot read %s: %s\n", file.c_str(),
                   bytes.status().ToString().c_str());
      return 1;
    }
    Result<SpanReader> reader = SpanReader::Open(bytes.value());
    if (!reader.ok()) {
      std::fprintf(stderr, "cannot decode %s: %s\n", file.c_str(),
                   reader.status().ToString().c_str());
      return 1;
    }
    Span span;
    for (;;) {
      Result<bool> more = reader->Next(span);
      if (!more.ok()) {
        std::fprintf(stderr, "corrupt span in %s: %s\n", file.c_str(),
                     more.status().ToString().c_str());
        return 1;
      }
      if (!more.value()) {
        break;
      }
      watermark = std::max(watermark, span.start_time);
      sink.OnSpan(span);
      if (++since_flush == 4096) {
        sink.FlushInto(hub, watermark);
        hub.AdvanceWatermark(watermark);
        since_flush = 0;
      }
    }
  }
  sink.FlushInto(hub, kMaxSimTime);
  hub.AdvanceWatermark(kMaxSimTime);

  FigureReport report;
  report.id = "stream";
  report.title = "Streaming aggregation (online per-method quantiles, O(1) span memory)";

  TextTable methods({"method", "spans", "errors", "mean_ms", "p50_ms", "p95_ms", "p99_ms"});
  char buf[64];
  auto ms = [&buf](double nanos) {
    std::snprintf(buf, sizeof(buf), "%.3f", nanos / 1e6);
    return std::string(buf);
  };
  for (const auto& [method_id, stream] : hub.methods()) {
    methods.AddRow({std::to_string(method_id), std::to_string(stream.stat.count),
                    std::to_string(stream.stat.errors), ms(stream.stat.MeanTotalNanos()),
                    ms(hub.MethodQuantileNanos(method_id, 0.5)),
                    ms(hub.MethodQuantileNanos(method_id, 0.95)),
                    ms(hub.MethodQuantileNanos(method_id, 0.99))});
  }
  report.tables.push_back(methods);

  if (hub.windows().size() > 1) {
    TextTable windows({"window_start_s", "spans", "rps", "mean_ms", "late_updates"});
    for (const WindowStats& w : hub.windows()) {
      std::snprintf(buf, sizeof(buf), "%.0f", ToSeconds(w.window_start));
      std::string start(buf);
      std::snprintf(buf, sizeof(buf), "%.1f", w.Rps());
      std::string rps(buf);
      windows.AddRow({start, std::to_string(w.spans), rps, ms(w.MeanTotalNanos()),
                      std::to_string(w.late_updates)});
    }
    report.tables.push_back(windows);
  }

  // Drop accounting is part of the result: nothing in the pipeline is
  // silently capped, so the counters say exactly what the tables exclude
  // (exemplars only — aggregate rows above always cover every span).
  TextTable counters({"counter", "value"});
  counters.AddRow({"spans_ingested", std::to_string(hub.spans_ingested())});
  counters.AddRow({"exemplars_ingested", std::to_string(hub.exemplars_ingested())});
  counters.AddRow({"span_buffer_drops", std::to_string(hub.span_buffer_drops())});
  counters.AddRow({"reservoir_drops", std::to_string(hub.reservoir_drops())});
  counters.AddRow({"windows_closed", std::to_string(hub.windows_closed())});
  counters.AddRow({"windows_evicted", std::to_string(hub.windows_evicted())});
  counters.AddRow({"late_window_updates", std::to_string(hub.late_window_updates())});
  report.tables.push_back(counters);

  emit(report, csv);
  return 0;
}

void PrintSummary(const TraceStore& store) {
  int64_t errors = 0;
  double total_ms = 0, tax_ms = 0;
  SimTime begin = INT64_MAX, end = 0;
  for (const Span& s : store.spans()) {
    if (s.status != StatusCode::kOk) {
      ++errors;
      continue;
    }
    total_ms += ToMillis(s.latency.Total());
    tax_ms += ToMillis(s.latency.Tax());
    begin = std::min(begin, s.start_time);
    end = std::max(end, s.start_time);
  }
  const size_t n = store.spans().size();
  std::printf("spans:        %zu (%lld errors, %.2f%%)\n", n, static_cast<long long>(errors),
              n > 0 ? 100.0 * static_cast<double>(errors) / static_cast<double>(n) : 0.0);
  if (n > 0 && end > begin) {
    std::printf("time window:  %s\n", FormatDuration(end - begin).c_str());
  }
  if (total_ms > 0) {
    std::printf("mean RCT:     %.3fms\n", total_ms / static_cast<double>(n - static_cast<size_t>(errors)));
    std::printf("mean tax:     %.2f%% of completion time\n", 100.0 * tax_ms / total_ms);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> files;
  std::string analysis = "summary";
  bool csv = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--analysis=", 0) == 0) {
      analysis = arg.substr(std::strlen("--analysis="));
    } else if (arg == "--csv") {
      csv = true;
    } else if (arg == "--list-profiles") {
      return ListProfiles();
    } else if (arg.rfind("--", 0) == 0) {
      return Usage();
    } else {
      files.push_back(arg);
    }
  }
  if (files.empty()) {
    return Usage();
  }

  if (analysis == "stream") {
    // Never materializes the files — see RunStreamAnalysis.
    return RunStreamAnalysis(files, csv, [](const FigureReport& report, bool as_csv) {
      std::fputs((as_csv ? report.RenderCsv() : report.Render()).c_str(), stdout);
    });
  }

  TraceStore store;
  for (const std::string& file : files) {
    Result<TraceStore> loaded = TraceStore::LoadFromFile(file);
    if (!loaded.ok()) {
      std::fprintf(stderr, "cannot load %s: %s\n", file.c_str(),
                   loaded.status().ToString().c_str());
      return 1;
    }
    store.AddAll(loaded->spans());
  }

  auto print = [csv](const FigureReport& report) {
    std::fputs((csv ? report.RenderCsv() : report.Render()).c_str(), stdout);
  };

  if (analysis == "summary") {
    PrintSummary(store);
    return 0;
  }
  if (analysis == "breakdown" || analysis == "whatif") {
    std::vector<ServiceSpans> studies = {{"all spans", store.spans()}};
    print(analysis == "breakdown" ? AnalyzeServiceBreakdown(studies) : AnalyzeWhatIf(studies));
    return 0;
  }
  if (analysis == "offload") {
    std::vector<SampledRpc> rpcs;
    rpcs.reserve(store.spans().size());
    for (const Span& s : store.spans()) {
      SampledRpc rpc;
      rpc.span = s;
      rpcs.push_back(std::move(rpc));
    }
    const CycleCostModel costs;
    print(AnalyzeOffloadWhatIf(rpcs, costs, BuiltinProfileCatalog()).report);
    return 0;
  }

  // Per-method analyses need an aggregator sized for the largest method id.
  int32_t max_method = 0;
  for (const Span& s : store.spans()) {
    max_method = std::max(max_method, s.method_id);
  }
  MethodAggregator agg(max_method + 1);
  for (const Span& s : store.spans()) {
    agg.Add(s);
  }
  if (analysis == "taxratio") {
    print(AnalyzeTaxRatio(agg));
  } else if (analysis == "sizes") {
    print(AnalyzeSizes(agg));
  } else if (analysis == "queueing") {
    print(AnalyzeQueueing(agg));
  } else if (analysis == "trees") {
    TraceForest forest(store.spans());
    TextTable t({"metric", "value"});
    int64_t max_desc = 0, max_depth = 0;
    for (const SpanShape& shape : forest.span_shapes()) {
      max_desc = std::max(max_desc, shape.descendants);
      max_depth = std::max(max_depth, shape.ancestors);
    }
    t.AddRow({"traces", std::to_string(forest.trace_shapes().size())});
    t.AddRow({"max descendants", std::to_string(max_desc)});
    t.AddRow({"max depth", std::to_string(max_depth)});
    FigureReport report;
    report.id = "trees";
    report.title = "Trace forest shape";
    report.tables.push_back(t);
    print(report);
  } else {
    return Usage();
  }
  return 0;
}
