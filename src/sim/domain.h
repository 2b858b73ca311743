// A shard domain: one Simulator plus outboxes for cross-domain events.
//
// The parallel runtime (src/sim/parallel/shard_executor.h) partitions the
// fleet into N domains and runs them in barrier-synchronized rounds. Within a
// round each domain executes only its own events; anything that must happen
// in *another* domain (an RPC frame crossing the shard boundary, a fault
// event targeting a remote machine) is deposited into the sender's outbox via
// PostRemote and transferred by the executor at the next barrier.
//
// Domains are plain single-threaded objects: all thread coordination lives in
// the executor. Model code never touches host threads (the rpcscope-raw-thread
// lint rule enforces this).
#ifndef RPCSCOPE_SRC_SIM_DOMAIN_H_
#define RPCSCOPE_SRC_SIM_DOMAIN_H_

#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/common/time.h"
#include "src/sim/callback.h"
#include "src/sim/simulator.h"

namespace rpcscope {

class ShardExecutor;

// RPCSCOPE_CHECKPOINTED(CheckpointTo, RestoreFrom)
class SimDomain {
 public:
  // An event bound for another domain: `fn` must be scheduled there at `when`.
  // The conservative-lookahead contract guarantees `when` lands at or beyond
  // the end of the round in which it was posted, so the destination has not
  // yet simulated past it.
  struct RemoteEvent {
    SimTime when;
    SimCallback fn;
  };

  SimDomain(int id, int num_domains)
      : id_(id), num_domains_(num_domains), outbox_(static_cast<size_t>(num_domains)) {
    RPCSCOPE_CHECK_GE(id, 0);
    RPCSCOPE_CHECK_LT(id, num_domains);
  }
  SimDomain(const SimDomain&) = delete;
  SimDomain& operator=(const SimDomain&) = delete;

  int id() const { return id_; }
  int num_domains() const { return num_domains_; }
  Simulator& sim() { return sim_; }
  const Simulator& sim() const { return sim_; }

  // Deposits an event for domain `dst` at absolute time `when`. Called from
  // inside this domain's round execution; the executor drains outboxes at the
  // barrier in canonical (source domain, post order) so the destination's
  // sequence assignment is independent of worker-thread count.
  void PostRemote(int dst, SimTime when, SimCallback fn) {
    RPCSCOPE_DCHECK_GE(dst, 0);
    RPCSCOPE_DCHECK_LT(dst, num_domains_);
    RPCSCOPE_CHECK(dst != id_) << "PostRemote to own domain; use sim().ScheduleAt";
    outbox_[static_cast<size_t>(dst)].push_back(RemoteEvent{when, std::move(fn)});
    outbox_dirty_ = true;
    ++remote_posted_;
  }

  // Total cross-domain events posted so far (for stats/tests).
  uint64_t remote_posted() const { return remote_posted_; }

  // Checkpoint support. Like Simulator's pair, both directions require
  // quiescence: every outbox must be drained (closures cannot be persisted)
  // and the embedded simulator's queue empty. id_/num_domains_ are structural
  // configuration, re-validated rather than restored.
  [[nodiscard]] Status CheckpointTo(CheckpointWriter& w) const;
  [[nodiscard]] Status RestoreFrom(CheckpointReader& r);

 private:
  friend class ShardExecutor;

  int id_;
  int num_domains_;
  Simulator sim_;
  // outbox_[d] holds events bound for domain d, in post order.
  std::vector<std::vector<RemoteEvent>> outbox_;
  // Set by PostRemote, cleared by the executor's barrier drain. Lets the
  // coordinator skip domains that posted nothing this round instead of
  // walking num_domains^2 outbox vectors every barrier. Only ever touched by
  // the thread currently running this domain or by the quiescent-phase
  // coordinator, so it needs no synchronization of its own.
  bool outbox_dirty_ = false;
  uint64_t remote_posted_ = 0;
};

}  // namespace rpcscope

#endif  // RPCSCOPE_SRC_SIM_DOMAIN_H_
