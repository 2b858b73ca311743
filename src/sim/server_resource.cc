#include "src/sim/server_resource.h"

#include <cmath>
#include <utility>

#include "src/checkpoint/checkpoint.h"
#include "src/common/check.h"

namespace rpcscope {

ServerResource::ServerResource(Simulator* sim, const Options& options)
    : sim_(sim), options_(options), last_change_(sim->Now()) {
  RPCSCOPE_CHECK(sim != nullptr);
  RPCSCOPE_CHECK_GT(options.workers, 0);
}

void ServerResource::UpdateBusyTime() {
  const SimTime now = sim_->Now();
  if (busy_workers_ == 0) {
    // An idle stretch contributes nothing, so last_change_ can jump straight
    // to now — including backwards: a barrier resync (Simulator::ResyncAt)
    // rewinds the clock below the last drain-cascade Release, and the next
    // epoch's first grant may execute before that old timestamp.
    last_change_ = now;
    return;
  }
  RPCSCOPE_DCHECK_GE(now, last_change_) << "busy-time accounting saw the clock move backwards";
  busy_time_ += static_cast<SimDuration>(busy_workers_) * (now - last_change_);
  last_change_ = now;
}

SimDuration ServerResource::busy_time() {
  UpdateBusyTime();
  return busy_time_;
}

void ServerResource::AcquireWithPriority(int priority, Grant on_grant) {
  if (WouldReject()) {
    ++jobs_rejected_;
    on_grant(kRejected);
    return;
  }
  Job job{sim_->Now(), std::move(on_grant)};
  if (busy_workers_ < options_.workers) {
    GrantJob(std::move(job));
  } else {
    (priority <= 0 ? queue_ : low_queue_).push_back(std::move(job));
  }
}

void ServerResource::GrantJob(Job job) {
  // Worker-pool accounting: a grant must take a free worker, and a job can
  // never have waited a negative amount of virtual time.
  RPCSCOPE_CHECK_LT(busy_workers_, options_.workers) << "grant with no free worker";
  UpdateBusyTime();
  ++busy_workers_;
  const SimDuration queue_delay = sim_->Now() - job.enqueue_time;
  RPCSCOPE_CHECK_GE(queue_delay, 0) << "job granted before it was enqueued";
  job.on_grant(queue_delay);
}

void ServerResource::Release() {
  RPCSCOPE_CHECK_GT(busy_workers_, 0) << "Release() without a matching grant";
  UpdateBusyTime();
  --busy_workers_;
  ++jobs_completed_;
  std::deque<Job>& next_queue = !queue_.empty() ? queue_ : low_queue_;
  if (!next_queue.empty() && busy_workers_ < options_.workers) {
    Job next = std::move(next_queue.front());
    next_queue.pop_front();
    GrantJob(std::move(next));
  }
}

void ServerResource::Reset() {
  UpdateBusyTime();
  jobs_dropped_ += queue_.size() + low_queue_.size();
  queue_.clear();
  low_queue_.clear();
  busy_workers_ = 0;
  ++epoch_;
}

void ServerResource::Submit(SimDuration service_time, Completion done) {
  const SimDuration scaled =
      static_cast<SimDuration>(std::llround(static_cast<double>(service_time) * speed_factor_));
  Acquire([this, scaled, done = std::move(done)](SimDuration queue_delay) mutable {
    if (queue_delay == kRejected) {
      done(kRejected, 0);
      return;
    }
    const uint64_t epoch = epoch_;
    sim_->Schedule(scaled, [this, epoch, queue_delay, scaled, done = std::move(done)]() {
      // A Reset() (machine crash) between grant and completion freed this
      // worker already; the job it was running died with the machine.
      if (epoch != epoch_) {
        return;
      }
      Release();
      done(queue_delay, scaled);
    });
  });
}

Status ServerResource::CheckpointTo(CheckpointWriter& w) const {
  if (busy_workers_ != 0 || !queue_.empty() || !low_queue_.empty()) {
    return FailedPreconditionError(
        "server resource busy at checkpoint: queued jobs hold callbacks and "
        "cannot be persisted");
  }
  // last_change_ may exceed the (resynced) clock here: the pool's final
  // Release of the drain can land past the epoch boundary. With zero busy
  // workers the value is inert — the next UpdateBusyTime overwrites it — and
  // restore keeps it as written.
  w.BeginSection("server_resource");
  w.WriteU32(static_cast<uint32_t>(options_.workers));
  w.WriteU64(options_.max_queue_depth);
  w.WriteDouble(speed_factor_);
  w.WriteU64(jobs_completed_);
  w.WriteU64(jobs_rejected_);
  w.WriteU64(jobs_dropped_);
  w.WriteU64(epoch_);
  w.WriteI64(busy_time_);
  w.WriteI64(last_change_);
  w.EndSection();
  return Status::Ok();
}

Status ServerResource::RestoreFrom(CheckpointReader& r) {
  if (busy_workers_ != 0 || !queue_.empty() || !low_queue_.empty()) {
    return FailedPreconditionError("restore into a busy server resource");
  }
  if (Status s = r.EnterSection("server_resource"); !s.ok()) {
    return s;
  }
  const auto workers = static_cast<int>(r.ReadU32());
  const uint64_t max_queue_depth = r.ReadU64();
  const double speed_factor = r.ReadDouble();
  const uint64_t jobs_completed = r.ReadU64();
  const uint64_t jobs_rejected = r.ReadU64();
  const uint64_t jobs_dropped = r.ReadU64();
  const uint64_t epoch = r.ReadU64();
  const SimDuration busy_time = r.ReadI64();
  const SimTime last_change = r.ReadI64();
  if (Status s = r.LeaveSection(); !s.ok()) {
    return s;
  }
  if (workers != options_.workers || max_queue_depth != options_.max_queue_depth) {
    return FailedPreconditionError(
        "checkpoint server-resource shape does not match this configuration");
  }
  if (busy_time < 0) {
    return DataLossError("server-resource busy accounting is negative");
  }
  speed_factor_ = speed_factor;
  jobs_completed_ = jobs_completed;
  jobs_rejected_ = jobs_rejected;
  jobs_dropped_ = jobs_dropped;
  epoch_ = epoch;
  busy_time_ = busy_time;
  // The snapshot's last_change can sit past the barrier (final drain Release).
  // It is inert while idle, since UpdateBusyTime overwrites it on the next
  // change. Keeping it as saved makes every later checkpoint of a resumed run
  // byte-identical to the uninterrupted run's.
  last_change_ = last_change;
  return Status::Ok();
}

}  // namespace rpcscope
