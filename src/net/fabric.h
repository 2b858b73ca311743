// Fabric: message delivery over the simulated network.
//
// One-way delivery latency =
//   propagation (BaseRtt/2 from the topology)
// + serialization (bytes / per-path bandwidth; WAN paths are slower)
// + congestion (with probability p_congestion, an exponential extra delay —
//   the paper finds congestion still impacts the WAN tail, §3.2/§5.1).
//
// The fabric is where "RPC Network Wire" latency (Fig. 9) comes from.
#ifndef RPCSCOPE_SRC_NET_FABRIC_H_
#define RPCSCOPE_SRC_NET_FABRIC_H_

#include <cstdint>
#include <functional>

#include "src/common/rng.h"
#include "src/common/time.h"
#include "src/net/topology.h"
#include "src/sim/callback.h"
#include "src/sim/domain.h"
#include "src/sim/lookahead.h"
#include "src/sim/simulator.h"

namespace rpcscope {

struct FabricOptions {
  // Within-datacenter NIC-limited bandwidth.
  double lan_bytes_per_second = 12.5e9;  // 100 Gbps.
  // Effective per-flow WAN bandwidth (shared long-haul links).
  double wan_bytes_per_second = 1.25e9;  // 10 Gbps.
  // Probability that a message hits a congested queue.
  double congestion_probability = 0.03;
  // Mean of the exponential extra delay when congested, scaled by distance:
  // LAN paths see this mean; WAN paths see wan_congestion_multiplier x it.
  SimDuration congestion_mean = Micros(150);
  double wan_congestion_multiplier = 400.0;  // WAN congestion is tens of ms.
  uint64_t seed = 0xfab;
};

// Hook consulted once per frame before delivery is scheduled. Used by the
// fault-injection layer (src/fault) to model partitions and packet loss
// without the fabric depending on it. Implementations must be deterministic
// (seeded Rng, virtual time only) — the fabric sits on the hot path and every
// drop decision feeds the event digest.
class FabricInterceptor {
 public:
  virtual ~FabricInterceptor() = default;

  // Returns true to drop the frame: it is never delivered and the sender is
  // not notified (lost frames surface via client-side watchdogs/deadlines).
  virtual bool OnSend(MachineId src, MachineId dst, int64_t bytes) = 0;
};

// RPCSCOPE_CHECKPOINTED(CheckpointTo, RestoreFrom)
class Fabric {
 public:
  using Delivery = SimFunction<void(SimDuration wire_latency)>;

  Fabric(Simulator* sim, const Topology* topology, const FabricOptions& options);

  // Sends `bytes` from `src` to `dst`; invokes `on_delivered` at arrival with
  // the one-way wire latency actually experienced.
  void Send(MachineId src, MachineId dst, int64_t bytes, Delivery on_delivered);

  // Computes a one-way latency sample without scheduling (used by the
  // model-driven fleet path and by tests).
  SimDuration SampleOneWayLatency(MachineId src, MachineId dst, int64_t bytes);

  // Deterministic minimum (no congestion) one-way latency for a path.
  SimDuration MinOneWayLatency(MachineId src, MachineId dst, int64_t bytes) const;

  // Multi-domain routing (sharded runs only): after binding, Send() routes a
  // frame whose destination machine lives in a different shard domain through
  // `home`'s outbox instead of the local event queue — the fabric is the only
  // inter-domain edge. `resolver` maps a machine to its owning domain;
  // `lookahead` holds the executor's per-domain-pair conservative bounds,
  // which every cross-domain latency sample must respect (CHECK-enforced:
  // propagation is bounded below by the topology and serialization/congestion
  // only add). The matrix must be sized so that every domain the resolver can
  // return is in range, and must outlive the fabric.
  // NOLINTNEXTLINE(rpcscope-function-hotpath) resolver: built once, then only called
  void BindDomain(SimDomain* home, std::function<SimDomain*(MachineId)> resolver,
                  const LookaheadMatrix* lookahead);

  // Installs (or clears, with nullptr) the fault-injection hook. The
  // interceptor must outlive the fabric or be cleared before destruction.
  void set_interceptor(FabricInterceptor* interceptor) { interceptor_ = interceptor; }
  FabricInterceptor* interceptor() const { return interceptor_; }

  // messages_sent/bytes_sent count send *attempts*; frames_dropped counts the
  // subset the interceptor swallowed (partition or packet loss).
  uint64_t messages_sent() const { return messages_sent_; }
  int64_t bytes_sent() const { return bytes_sent_; }
  uint64_t frames_dropped() const { return frames_dropped_; }

  // Checkpoint support: the congestion RNG stream and traffic counters are
  // the only mutable state (topology, routing bindings, and the interceptor
  // are structural and re-established by reconstruction).
  [[nodiscard]] Status CheckpointTo(CheckpointWriter& w) const;
  [[nodiscard]] Status RestoreFrom(CheckpointReader& r);

 private:
  // Structural members (suppressed below) are wired by the constructor and
  // BindDomain on both the fresh-run and restore paths; only the RNG stream
  // and counters carry run state.
  Simulator* sim_;                // NOLINT(detan-checkpoint-field) structural
  const Topology* topology_;      // NOLINT(detan-checkpoint-field) structural
  FabricOptions options_;
  Rng rng_;
  SimDomain* home_ = nullptr;     // NOLINT(detan-checkpoint-field) structural
  // NOLINTNEXTLINE(rpcscope-function-hotpath) built once by BindDomain
  std::function<SimDomain*(MachineId)> domain_resolver_;  // NOLINT(detan-checkpoint-field) structural
  const LookaheadMatrix* lookahead_ = nullptr;    // NOLINT(detan-checkpoint-field) structural
  FabricInterceptor* interceptor_ = nullptr;      // NOLINT(detan-checkpoint-field) structural
  uint64_t messages_sent_ = 0;
  int64_t bytes_sent_ = 0;
  uint64_t frames_dropped_ = 0;
};

}  // namespace rpcscope

#endif  // RPCSCOPE_SRC_NET_FABRIC_H_
