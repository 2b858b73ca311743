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

void ServerResource::JobRing::push_back(Job job) {
  if (size_ == slots_.size()) {
    // Grow by doubling, unrolling the ring into the front of the new slots.
    std::vector<Job> grown(slots_.empty() ? 8 : 2 * slots_.size());
    for (size_t i = 0; i < size_; ++i) {
      grown[i] = std::move(slots_[(head_ + i) & (slots_.size() - 1)]);
    }
    slots_.swap(grown);
    head_ = 0;
  }
  slots_[(head_ + size_) & (slots_.size() - 1)] = std::move(job);
  ++size_;
}

ServerResource::Job ServerResource::JobRing::pop_front() {
  RPCSCOPE_DCHECK(size_ > 0) << "pop from an empty run queue";
  Job job = std::move(slots_[head_]);
  head_ = (head_ + 1) & (slots_.size() - 1);
  --size_;
  return job;
}

void ServerResource::JobRing::clear() {
  for (; size_ > 0; --size_) {
    slots_[head_].done = nullptr;
    head_ = (head_ + 1) & (slots_.size() - 1);
  }
}

void ServerResource::AcquireWithPriority(int priority, Grant on_grant) {
  Enqueue(priority, kHeld,
          [grant = std::move(on_grant)](SimDuration queue_delay, SimDuration) mutable {
            grant(queue_delay);
          });
}

void ServerResource::Submit(SimDuration service_time, Completion done) {
  const SimDuration scaled =
      static_cast<SimDuration>(std::llround(static_cast<double>(service_time) * speed_factor_));
  Enqueue(0, scaled, std::move(done));
}

void ServerResource::Enqueue(int priority, SimDuration service_time, Completion done) {
  if (WouldReject()) {
    ++jobs_rejected_;
    done(kRejected, 0);
    return;
  }
  Job job{sim_->Now(), service_time, std::move(done)};
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
  if (job.service_time == kHeld) {
    job.done(queue_delay, 0);
    return;
  }
  const uint64_t epoch = epoch_;
  sim_->Schedule(job.service_time, [this, epoch, queue_delay, service = job.service_time,
                                    done = std::move(job.done)]() mutable {
    // A Reset() (machine crash) between grant and completion freed this
    // worker already; the job it was running died with the machine.
    if (epoch != epoch_) {
      return;
    }
    Release();
    done(queue_delay, service);
  });
}

void ServerResource::Release() {
  RPCSCOPE_CHECK_GT(busy_workers_, 0) << "Release() without a matching grant";
  UpdateBusyTime();
  --busy_workers_;
  ++jobs_completed_;
  JobRing& next_queue = !queue_.empty() ? queue_ : low_queue_;
  if (!next_queue.empty() && busy_workers_ < options_.workers) {
    GrantJob(next_queue.pop_front());
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
