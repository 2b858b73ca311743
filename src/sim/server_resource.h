// ServerResource: a pool of worker threads over virtual time.
//
// Models the server side of an RPC task: jobs (requests) arrive, wait in a
// bounded FIFO run queue until a worker is free, execute for their service
// duration, and complete. Queueing delay therefore *emerges* from load rather
// than being sampled from a distribution — this is what lets the service-
// specific studies (Figs. 14–18) show realistic utilization-driven tails.
#ifndef RPCSCOPE_SRC_SIM_SERVER_RESOURCE_H_
#define RPCSCOPE_SRC_SIM_SERVER_RESOURCE_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "src/common/time.h"
#include "src/sim/callback.h"
#include "src/sim/simulator.h"

namespace rpcscope {

class CheckpointWriter;
class CheckpointReader;

// RPCSCOPE_CHECKPOINTED(CheckpointTo, RestoreFrom)
class ServerResource {
 public:
  // Completion callback: (queue_delay, service_time) in virtual time.
  using Completion = SimFunction<void(SimDuration queue_delay, SimDuration service_time)>;

  struct Options {
    int workers = 4;
    // Jobs beyond this queue depth are rejected (completion is invoked with
    // queue_delay = kRejected). 0 means unbounded.
    size_t max_queue_depth = 0;
  };

  static constexpr SimDuration kRejected = -1;

  ServerResource(Simulator* sim, const Options& options);

  // Submits a job with the given service duration. The completion callback
  // fires when the job finishes (or immediately with kRejected on overload).
  void Submit(SimDuration service_time, Completion done);

  // Manual occupancy: waits for a free worker, then invokes `on_grant` with
  // the queueing delay. The caller must call Release() exactly once when its
  // work completes (workers model synchronous request threads, so a handler
  // holds one for its full — possibly dynamically determined — duration).
  // On overload, on_grant fires immediately with kRejected and no worker is
  // held (do not call Release()).
  using Grant = SimFunction<void(SimDuration queue_delay)>;
  void Acquire(Grant on_grant) { AcquireWithPriority(0, std::move(on_grant)); }
  // Priority scheduling (Shinjuku/Caladan-style short-job isolation, §5.2):
  // lower `priority` runs first; FIFO within a priority class. Only classes
  // 0 and 1 are distinguished; anything > 0 is "low".
  void AcquireWithPriority(int priority, Grant on_grant);
  void Release();

  // True if a Submit()/Acquire() issued right now would be rejected for
  // exceeding max_queue_depth. Lets callers fail fast before paying
  // per-attempt costs (encode cycles) for work that cannot be accepted.
  bool WouldReject() const {
    return options_.max_queue_depth != 0 && busy_workers_ >= options_.workers &&
           QueuedJobs() >= options_.max_queue_depth;
  }

  // Crash support: drops every queued job (their callbacks are destroyed,
  // never invoked), frees all workers, and invalidates in-flight Submit()
  // completions — when their scheduled events fire against a newer epoch
  // they become no-ops instead of corrupting the worker accounting. Busy
  // time accrued up to the reset instant is retained. Callers that hold a
  // worker via Acquire() must not call Release() across a Reset(); guard
  // with epoch().
  void Reset();
  uint64_t epoch() const { return epoch_; }
  uint64_t jobs_dropped() const { return jobs_dropped_; }

  // Scales the service time of *future* jobs (models exogenous slowdown such
  // as high CPU utilization or memory-bandwidth contention).
  void set_speed_factor(double factor) { speed_factor_ = factor; }
  double speed_factor() const { return speed_factor_; }

  int workers() const { return options_.workers; }
  int busy_workers() const { return busy_workers_; }
  size_t queue_depth() const { return queue_.size(); }
  uint64_t jobs_completed() const { return jobs_completed_; }
  uint64_t jobs_rejected() const { return jobs_rejected_; }

  // Cumulative busy worker-time up to the current simulation instant, for
  // utilization accounting: utilization = busy_time / (elapsed * workers).
  SimDuration busy_time();

  // Checkpoint support. Requires full quiescence (no busy workers, empty run
  // queues): queued jobs hold callbacks and cannot be persisted. Counters,
  // speed factor, crash epoch, and busy-time accounting serialize; Restore
  // re-validates the structural options instead of restoring them.
  [[nodiscard]] Status CheckpointTo(CheckpointWriter& w) const;
  [[nodiscard]] Status RestoreFrom(CheckpointReader& r);

 private:
  // service_time of a job that holds its worker until Release() (Acquire).
  static constexpr SimDuration kHeld = std::numeric_limits<SimDuration>::min();

  // A queued Submit() or Acquire(). Both carry one Completion: Submit's is
  // queued as is, without a wrapping closure, and AcquireWithPriority adapts
  // its Grant into one.
  struct Job {
    SimTime enqueue_time = 0;
    SimDuration service_time = kHeld;
    Completion done;
  };

  // FIFO run queue over a power-of-two ring that keeps its capacity, so once
  // the deepest backlog has been seen queueing never allocates.
  class JobRing {
   public:
    bool empty() const { return size_ == 0; }
    size_t size() const { return size_; }
    void push_back(Job job);
    Job pop_front();
    // Destroys every queued job's callback without invoking it.
    void clear();

   private:
    std::vector<Job> slots_;
    size_t head_ = 0;
    size_t size_ = 0;
  };

  void Enqueue(int priority, SimDuration service_time, Completion done);
  void GrantJob(Job job);
  size_t QueuedJobs() const { return queue_.size() + low_queue_.size(); }

  Simulator* sim_;  // NOLINT(detan-checkpoint-field) structural
  Options options_;
  double speed_factor_ = 1.0;
  int busy_workers_ = 0;
  JobRing queue_;      // Priority class 0 (default).
  JobRing low_queue_;  // Priority classes > 0.
  uint64_t jobs_completed_ = 0;
  uint64_t jobs_rejected_ = 0;
  uint64_t jobs_dropped_ = 0;
  // Bumped by Reset(); scheduled completions from older epochs are stale.
  uint64_t epoch_ = 0;
  // Time-weighted busy accounting: busy_time_ is up to date as of last_change_.
  SimDuration busy_time_ = 0;
  SimTime last_change_ = 0;

  void UpdateBusyTime();
};

}  // namespace rpcscope

#endif  // RPCSCOPE_SRC_SIM_SERVER_RESOURCE_H_
