// DES-core benchmarks: the numbers behind BENCH_simcore.json (docs/PERF.md).
//
// Two tiers of the same churn workload bracket the hot-path overhaul:
//   Legacy  — replica of the seed core: std::function callbacks in a
//             std::priority_queue binary heap (the pre-overhaul baseline,
//             kept here because the production Simulator no longer has it).
//   Ladder  — the production Simulator: SimCallback (inline/pooled captures)
//             on the ladder/calendar queue.
// Plus the mini-fleet end-to-end events/sec, and frame encode with reused
// WireScratch vs per-call allocation.
//
// Refresh the tracked baseline with: tools/run_bench_simcore.sh
#include <benchmark/benchmark.h>

#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "src/common/digest.h"
#include "src/fleet/mini_fleet.h"
#include "src/fleet/service_catalog.h"
#include "src/rpc/codec.h"
#include "src/sim/simulator.h"
#include "src/wire/message.h"

namespace rpcscope {
namespace {

// ---------------------------------------------------------------------------
// Legacy core replica: what Simulator was immediately before the hot-path
// overhaul — std::function callbacks in a std::priority_queue binary heap,
// with the same digest fold and ordering checks the production core keeps
// (those predate the overhaul, so the replica pays them too; anything less
// would overstate the speedup).

class LegacySimulator {
 public:
  void Schedule(SimDuration delay, std::function<void()> fn) {
    queue_.push(LegacyEvent{now_ + delay, next_seq_++, std::move(fn)});
  }

  uint64_t Run() {
    uint64_t executed = 0;
    while (!queue_.empty()) {
      LegacyEvent ev = std::move(const_cast<LegacyEvent&>(queue_.top()));
      queue_.pop();
      RPCSCOPE_CHECK_GE(ev.time, now_) << "virtual clock would move backwards";
      if (any_executed_) {
        RPCSCOPE_CHECK(ev.time > last_time_ || (ev.time == last_time_ && ev.seq > last_seq_))
            << "event out of order";
      }
      last_time_ = ev.time;
      last_seq_ = ev.seq;
      any_executed_ = true;
      event_digest_ = FnvMix(FnvMix(event_digest_, static_cast<uint64_t>(ev.time)), ev.seq);
      now_ = ev.time;
      ev.fn();
      ++executed;
    }
    return executed;
  }

  uint64_t event_digest() const { return event_digest_; }

 private:
  struct LegacyEvent {
    SimTime time;
    uint64_t seq;
    std::function<void()> fn;
  };
  struct ExecutesAfter {
    bool operator()(const LegacyEvent& a, const LegacyEvent& b) const {
      if (a.time != b.time) {
        return a.time > b.time;
      }
      return a.seq > b.seq;
    }
  };

  std::priority_queue<LegacyEvent, std::vector<LegacyEvent>, ExecutesAfter> queue_;
  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t event_digest_ = kFnvOffsetBasis;
  SimTime last_time_ = 0;
  uint64_t last_seq_ = 0;
  bool any_executed_ = false;
};

// ---------------------------------------------------------------------------
// Churn workload: parallel self-rescheduling chains with mixed horizons —
// mostly microsecond-scale steps (the RPC-stack regime), periodic
// millisecond timers, and rare multi-second jumps that exercise the ladder's
// overflow tier. Identical schedule for every simulator under test. The chain
// count (benchmark arg) is the pending-event depth: 16 is a toy single-server
// workload, 1024/8192 match the in-flight event populations a loaded
// mini-fleet sustains, where heap sift depth is what the ladder eliminates.

constexpr uint64_t kChurnEvents = 1 << 17;  // Total events per run, all depths.

template <typename SimT>
struct Chain {
  SimT* sim = nullptr;
  uint64_t remaining = 0;
  uint64_t tick = 0;
  int id = 0;

  SimDuration NextDelay() {
    ++tick;
    if (tick % 1024 == 0) {
      return Seconds(2);  // Far-future: overflow tier.
    }
    if (tick % 64 == 0) {
      return Millis(5);  // Timer-scale: window edge.
    }
    return Micros(
        static_cast<int64_t>(1 + ((tick + static_cast<uint64_t>(id)) % 13)));
  }

  void Step() {
    if (remaining == 0) {
      return;
    }
    --remaining;
    sim->Schedule(NextDelay(), [this] { Step(); });
  }
};

template <typename SimT>
uint64_t RunChurn(SimT& sim, int chain_count) {
  std::vector<Chain<SimT>> chains(static_cast<size_t>(chain_count));
  for (int i = 0; i < chain_count; ++i) {
    chains[static_cast<size_t>(i)].sim = &sim;
    chains[static_cast<size_t>(i)].id = i;
    chains[static_cast<size_t>(i)].remaining =
        kChurnEvents / static_cast<uint64_t>(chain_count);
    chains[static_cast<size_t>(i)].Step();
  }
  return sim.Run();
}

void BM_SimChurn_Legacy(benchmark::State& state) {
  uint64_t events = 0;
  for (auto _ : state) {
    LegacySimulator sim;
    events += RunChurn(sim, static_cast<int>(state.range(0)));
  }
  state.SetItemsProcessed(static_cast<int64_t>(events));
}
BENCHMARK(BM_SimChurn_Legacy)->Arg(16)->Arg(1024)->Arg(8192);

void BM_SimChurn_Ladder(benchmark::State& state) {
  uint64_t events = 0;
  for (auto _ : state) {
    Simulator sim;
    events += RunChurn(sim, static_cast<int>(state.range(0)));
  }
  state.SetItemsProcessed(static_cast<int64_t>(events));
}
BENCHMARK(BM_SimChurn_Ladder)->Arg(16)->Arg(1024)->Arg(8192);

// ---------------------------------------------------------------------------
// Deep-backlog regime: all events scheduled up front, then drained. This is
// where the legacy binary heap's O(log n) per op hurts most and the ladder's
// bucketing pays off.

constexpr int kBacklog = 100000;

template <typename SimT>
void RunBacklog(SimT& sim) {
  uint64_t tick = 0;
  for (int i = 0; i < kBacklog; ++i) {
    tick += 1 + (tick % 7);
    sim.Schedule(static_cast<SimDuration>(Micros(1) * static_cast<int64_t>(tick % 50000)),
                 [] {});
  }
  sim.Run();
}

void BM_SimBacklog_Legacy(benchmark::State& state) {
  for (auto _ : state) {
    LegacySimulator sim;
    RunBacklog(sim);
  }
  state.SetItemsProcessed(state.iterations() * kBacklog);
}
BENCHMARK(BM_SimBacklog_Legacy);

void BM_SimBacklog_Ladder(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    RunBacklog(sim);
  }
  state.SetItemsProcessed(state.iterations() * kBacklog);
}
BENCHMARK(BM_SimBacklog_Ladder);

// ---------------------------------------------------------------------------
// End-to-end: mini-fleet virtual-events-per-host-second. The row keeps its
// _Ladder name: tools/run_bench_parallel.sh filters on it.

void BM_MiniFleet_Ladder(benchmark::State& state) {
  const ServiceCatalog catalog = ServiceCatalog::BuildDefault();
  MiniFleetOptions options;
  options.duration = Millis(500);
  options.warmup = Millis(100);
  options.frontend_rps = 400;
  uint64_t events = 0;
  for (auto _ : state) {
    const MiniFleetResult result = RunMiniFleet(catalog, options);
    events += result.events_executed;
    benchmark::DoNotOptimize(result.event_digest);
  }
  state.SetItemsProcessed(static_cast<int64_t>(events));
}
BENCHMARK(BM_MiniFleet_Ladder);

// ---------------------------------------------------------------------------
// Shard-domain execution (docs/PARALLEL.md): the mini-fleet spread across
// shard domains, swept over worker-thread counts. shards:1/workers:1 is the
// legacy single-domain path and must stay within noise of BM_MiniFleet_Ladder;
// the multi-worker rows measure conservative-PDES scaling (they only beat the
// 1-worker row when the host actually has spare cores — see the committed
// BENCH_parallel.json context.num_cpus for the machine the baseline ran on).

void BM_MiniFleetSharded(benchmark::State& state) {
  const ServiceCatalog catalog = ServiceCatalog::BuildDefault();
  MiniFleetOptions options;
  options.duration = Millis(500);
  options.warmup = Millis(100);
  options.frontend_rps = 400;
  options.num_shards = static_cast<int>(state.range(0));
  options.worker_threads = static_cast<int>(state.range(1));
  uint64_t events = 0;
  uint64_t rounds = 0;
  uint64_t cross = 0;
  for (auto _ : state) {
    const MiniFleetResult result = RunMiniFleet(catalog, options);
    events += result.events_executed;
    rounds += result.rounds;
    cross += result.cross_domain_events;
    benchmark::DoNotOptimize(result.event_digest);
  }
  state.SetItemsProcessed(static_cast<int64_t>(events));
  // rounds is always >= 1 per run: the single-domain fast path reports one
  // uninterrupted round, so avg_events_per_round stays meaningful across rows.
  state.counters["rounds"] =
      benchmark::Counter(static_cast<double>(rounds), benchmark::Counter::kAvgIterations);
  state.counters["avg_events_per_round"] =
      rounds == 0 ? 0.0 : static_cast<double>(events) / static_cast<double>(rounds);
  state.counters["cross_domain_events"] =
      benchmark::Counter(static_cast<double>(cross), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_MiniFleetSharded)
    ->ArgNames({"shards", "workers"})
    ->Args({1, 1})
    ->Args({4, 1})
    ->Args({4, 4})
    ->Args({8, 1})
    ->Args({8, 2})
    ->Args({8, 8})
    ->UseRealTime()
    ->MeasureProcessCPUTime();

// ---------------------------------------------------------------------------
// Wire path: frame encode with per-call allocation (the pre-overhaul shape)
// vs a reused WireScratch (what Client/Server now do).

void BM_EncodeFrame_Alloc(benchmark::State& state) {
  Rng rng(7);
  const Message msg =
      Message::GeneratePayload(rng, static_cast<size_t>(state.range(0)), 0.6);
  const Payload payload = Payload::Real(msg);
  uint64_t nonce = 0;
  for (auto _ : state) {
    WireFrame frame = EncodeFrame(payload, 99, nonce++);
    benchmark::DoNotOptimize(frame.body.data());
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(msg.ByteSize()));
}
BENCHMARK(BM_EncodeFrame_Alloc)->Arg(1530)->Arg(32768);

void BM_EncodeFrame_Scratch(benchmark::State& state) {
  Rng rng(7);
  const Message msg =
      Message::GeneratePayload(rng, static_cast<size_t>(state.range(0)), 0.6);
  const Payload payload = Payload::Real(msg);
  WireScratch scratch;
  uint64_t nonce = 0;
  for (auto _ : state) {
    WireFrame frame = EncodeFrame(payload, 99, nonce++, scratch);
    benchmark::DoNotOptimize(frame.body.data());
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(msg.ByteSize()));
}
BENCHMARK(BM_EncodeFrame_Scratch)->Arg(1530)->Arg(32768);

}  // namespace
}  // namespace rpcscope

int main(int argc, char** argv) {
  // The library's own "library_build_type" context reflects how the system
  // benchmark package was compiled, not this binary. Record our build type so
  // tools/run_bench_*.sh can refuse to commit a non-optimized baseline.
#ifdef NDEBUG
  benchmark::AddCustomContext("rpcscope_build_type", "release");
#else
  benchmark::AddCustomContext("rpcscope_build_type", "debug");
#endif
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
