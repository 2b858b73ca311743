#include "src/net/fabric.h"

#include <cmath>
#include <utility>

#include "src/checkpoint/checkpoint.h"
#include "src/common/check.h"

namespace rpcscope {

Fabric::Fabric(Simulator* sim, const Topology* topology, const FabricOptions& options)
    : sim_(sim), topology_(topology), options_(options), rng_(options.seed) {
  RPCSCOPE_CHECK(sim != nullptr);
  RPCSCOPE_CHECK(topology != nullptr);
}

SimDuration Fabric::MinOneWayLatency(MachineId src, MachineId dst, int64_t bytes) const {
  const DistanceClass dc = topology_->Distance(src, dst);
  const bool wan = dc >= DistanceClass::kSameContinent;
  const double bw = wan ? options_.wan_bytes_per_second : options_.lan_bytes_per_second;
  const SimDuration propagation = topology_->BaseRtt(src, dst) / 2;
  const SimDuration serialization =
      DurationFromSeconds(static_cast<double>(bytes) / bw);
  return propagation + serialization;
}

SimDuration Fabric::SampleOneWayLatency(MachineId src, MachineId dst, int64_t bytes) {
  SimDuration latency = MinOneWayLatency(src, dst, bytes);
  if (rng_.NextBool(options_.congestion_probability)) {
    const DistanceClass dc = topology_->Distance(src, dst);
    const bool wan = dc >= DistanceClass::kSameContinent;
    double mean = static_cast<double>(options_.congestion_mean);
    if (wan) {
      mean *= options_.wan_congestion_multiplier;
    }
    latency += static_cast<SimDuration>(std::llround(rng_.NextExponential(mean)));
  }
  return latency;
}

void Fabric::Send(MachineId src, MachineId dst, int64_t bytes, Delivery on_delivered) {
  ++messages_sent_;
  bytes_sent_ += bytes;
  // Fault hook: one perfectly-predicted branch when no injector is armed.
  if (interceptor_ != nullptr && interceptor_->OnSend(src, dst, bytes)) {
    ++frames_dropped_;
    return;  // The frame is lost; on_delivered is destroyed unfired.
  }
  const SimDuration latency = SampleOneWayLatency(src, dst, bytes);
  if (home_ != nullptr) {
    SimDomain* remote = domain_resolver_(dst);
    if (remote->id() != home_->id()) {
      // Cross-shard delivery: hand the frame to the destination domain via
      // the outbox. The latency sample must honor the executor's per-pair
      // lookahead bound — if this fires, the shard mapping put two machines
      // closer together than the advertised minimum for this domain pair.
      RPCSCOPE_CHECK_GE(latency, lookahead_->At(home_->id(), remote->id()))
          << "cross-domain frame undercuts the conservative lookahead";
      home_->PostRemote(remote->id(), AddClamped(sim_->Now(), latency),
                        [latency, done = std::move(on_delivered)]() mutable { done(latency); });
      return;
    }
  }
  sim_->Schedule(latency, [latency, done = std::move(on_delivered)]() mutable { done(latency); });
}

// NOLINTNEXTLINE(rpcscope-function-hotpath) resolver: built once, then only called
void Fabric::BindDomain(SimDomain* home, std::function<SimDomain*(MachineId)> resolver,
                        const LookaheadMatrix* lookahead) {
  RPCSCOPE_CHECK(home != nullptr);
  RPCSCOPE_CHECK(resolver != nullptr);
  RPCSCOPE_CHECK(lookahead != nullptr);
  RPCSCOPE_CHECK_GT(lookahead->size(), home->id());
  home_ = home;
  domain_resolver_ = std::move(resolver);
  lookahead_ = lookahead;
}

Status Fabric::CheckpointTo(CheckpointWriter& w) const {
  w.BeginSection("fabric");
  WriteRngState(w, rng_);
  w.WriteU64(options_.seed);
  w.WriteU64(messages_sent_);
  w.WriteI64(bytes_sent_);
  w.WriteU64(frames_dropped_);
  w.EndSection();
  return Status::Ok();
}

Status Fabric::RestoreFrom(CheckpointReader& r) {
  if (Status s = r.EnterSection("fabric"); !s.ok()) {
    return s;
  }
  Rng rng(0);
  ReadRngState(r, rng);
  const uint64_t seed = r.ReadU64();
  const uint64_t messages_sent = r.ReadU64();
  const int64_t bytes_sent = r.ReadI64();
  const uint64_t frames_dropped = r.ReadU64();
  if (Status s = r.LeaveSection(); !s.ok()) {
    return s;
  }
  if (seed != options_.seed) {
    return FailedPreconditionError("checkpoint fabric seed does not match this run");
  }
  rng_ = rng;
  messages_sent_ = messages_sent;
  bytes_sent_ = bytes_sent;
  frames_dropped_ = frames_dropped;
  return Status::Ok();
}

}  // namespace rpcscope
