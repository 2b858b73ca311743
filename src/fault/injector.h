// FaultInjector: executes a FaultPlan against a running RpcSystem.
//
// Crashes and gray-failure windows are scheduled as simulator events that
// call into the target Server; partitions and packet loss are enforced by
// installing the injector as the fabric's FabricInterceptor and window-
// checking each frame against the plan in virtual time. All loss randomness
// comes from seeded streams whose draws happen only for frames matched by
// an active loss window, so a given (plan, workload, seed) triple replays
// bit-for-bit — chaos runs are debuggable, not merely repeatable on average.
//
// Sharded runs: every fault event executes in the shard domain that owns its
// target machine, and every injector mutable (loss RNG, drop tallies, mirror
// counters) is per-shard — frames are intercepted in the *sender's* domain,
// so state is indexed by ShardOf(src) and no two domains ever touch the same
// slot. With one shard this reduces exactly to the legacy behavior (shard 0
// keeps the legacy RNG seed).
#ifndef RPCSCOPE_SRC_FAULT_INJECTOR_H_
#define RPCSCOPE_SRC_FAULT_INJECTOR_H_

#include <cstdint>
#include <vector>

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/fault/fault_plan.h"
#include "src/monitor/metrics.h"
#include "src/net/fabric.h"
#include "src/rpc/rpc_system.h"

namespace rpcscope {

class CheckpointWriter;
class CheckpointReader;

// RPCSCOPE_CHECKPOINTED(FaultInjector::CheckpointTo, FaultInjector::RestoreFrom)
class FaultInjector : public FabricInterceptor {
 public:
  struct Options {
    uint64_t seed = 0xfa017;
  };

  FaultInjector(RpcSystem* system, FaultPlan plan, const Options& options);
  FaultInjector(RpcSystem* system, FaultPlan plan);  // Default Options.
  ~FaultInjector() override;

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // Validates the plan, schedules every crash/restart/gray window on the
  // owning shard's simulator, and installs the fabric hook on every shard.
  // Call once, before (or during) the run; faults whose time is already past
  // fire immediately.
  [[nodiscard]] Status Arm();

  // Epoch-gated arming for checkpointed runs (docs/ROBUSTNESS.md
  // #checkpointrestore): schedules only the fault events whose virtual time
  // falls in [armed-so-far, end) and remembers `end` as the new arming
  // watermark, so the event queue never holds timers beyond the current
  // epoch and drains to full quiescence at its boundary. First call performs
  // the one-time setup Arm() does (plan validation, partition tables, fabric
  // hook — partitions and losses are pure time-window checks on frames, so
  // they are installed whole upfront). Arm() == ArmThrough(kMaxSimTime).
  // Calls with `end` at or below the watermark are no-ops.
  [[nodiscard]] Status ArmThrough(SimTime end);

  // The injector's own copy of the plan it was constructed from.
  const FaultPlan& plan() const { return plan_; }

  // FabricInterceptor: true = drop the frame (partition or packet loss).
  // Runs in the sending machine's shard domain.
  bool OnSend(MachineId src, MachineId dst, int64_t bytes) override;

  // Injection accounting, summed across shards (also mirrored into each
  // shard's metrics registry under fault.crashes / fault.restarts /
  // fault.partition_drops / fault.loss_drops / fault.gray_windows;
  // RpcSystem::MergedCounter aggregates those).
  uint64_t crashes_applied() const { return Sum(crashes_applied_); }
  uint64_t restarts_applied() const { return Sum(restarts_applied_); }
  uint64_t partition_drops() const { return Sum(partition_drops_); }
  uint64_t loss_drops() const { return Sum(loss_drops_); }
  uint64_t gray_windows_applied() const { return Sum(gray_windows_applied_); }

  // Checkpoint support. Serializes the per-shard RNG streams, tallies, the
  // gray-window saved factors, and the arming watermark; the plan itself is
  // configuration (the resumed run constructs the injector from the same
  // plan — validated by fault counts) and mirror counters are restored
  // through each shard's MetricRegistry, never re-incremented here. Only
  // valid between epochs: no armed event may be pending.
  [[nodiscard]] Status CheckpointTo(CheckpointWriter& w) const;
  [[nodiscard]] Status RestoreFrom(CheckpointReader& r);

 private:
  // A partition with its groups sorted for binary-search membership tests.
  struct ArmedPartition {
    std::vector<MachineId> group_a;
    std::vector<MachineId> group_b;
    SimTime start = 0;
    SimTime end = 0;
  };

  static uint64_t Sum(const std::vector<uint64_t>& per_shard);

  // One-time arming setup: plan validation, sorted partition tables, fabric
  // hook. Idempotent; shared by Arm()/ArmThrough()/Restore().
  [[nodiscard]] Status EnsureSetup();
  void ScheduleCrashEvent(const CrashFault& fault);
  void ScheduleRestartEvent(const CrashFault& fault);
  void ScheduleGrayStart(size_t gray_index);
  void ScheduleGrayEnd(size_t gray_index);

  RpcSystem* system_;  // NOLINT(detan-checkpoint-field) structural
  FaultPlan plan_;
  Options options_;
  // One loss-RNG stream per shard (drawn only in that shard's domain).
  // Shard 0 keeps the legacy seed so single-shard chaos replays unchanged.
  std::vector<Rng> drop_rngs_;
  bool armed_ = false;
  // Fault events with virtual time below this are scheduled already (or have
  // executed). Advanced by ArmThrough; kMaxSimTime after a legacy Arm().
  SimTime armed_through_ = kMinSimTime;
  std::vector<ArmedPartition> armed_partitions_;
  // Original app_speed_factor per gray fault, captured at window start.
  // Distinct faults may live in distinct shards; each touches only its own
  // element.
  std::vector<double> gray_saved_factor_;
  // Tallies indexed by shard; accessors sum them.
  std::vector<uint64_t> crashes_applied_;
  std::vector<uint64_t> restarts_applied_;
  std::vector<uint64_t> partition_drops_;
  std::vector<uint64_t> loss_drops_;
  std::vector<uint64_t> gray_windows_applied_;
  // Mirror counters, one per shard registry (stable addresses). Restored
  // through MetricRegistry::Restore, not here.
  std::vector<Counter*> crashes_counters_;          // NOLINT(detan-checkpoint-field) structural
  std::vector<Counter*> restarts_counters_;         // NOLINT(detan-checkpoint-field) structural
  std::vector<Counter*> partition_drops_counters_;  // NOLINT(detan-checkpoint-field) structural
  std::vector<Counter*> loss_drops_counters_;       // NOLINT(detan-checkpoint-field) structural
  std::vector<Counter*> gray_windows_counters_;     // NOLINT(detan-checkpoint-field) structural
};

}  // namespace rpcscope

#endif  // RPCSCOPE_SRC_FAULT_INJECTOR_H_
