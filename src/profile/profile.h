// GWP-like fleet CPU profiling.
//
// Collects sampled cycle attributions — per RPC, split into the tax
// categories of Fig. 20b plus application cycles — and answers the queries
// behind Figs. 8c and 20: fleet-wide category fractions and per-service cycle
// shares. Raw cycles are normalized by the sampled machine's relative speed,
// mirroring the paper's "normalized CPU cycles" unit across heterogeneous CPU
// generations. Fig. 21's per-method cycles come from MethodAggregator and
// Fig. 23's wasted cycles from FleetScan (src/core/analyses.h).
#ifndef RPCSCOPE_SRC_PROFILE_PROFILE_H_
#define RPCSCOPE_SRC_PROFILE_PROFILE_H_

#include <array>
#include <cstdint>
#include <map>

#include "src/rpc/cost_model.h"

namespace rpcscope {

class ProfileCollector {
 public:
  ProfileCollector();

  // Records one RPC's cycle breakdown. `machine_speed` is the relative speed
  // of the CPU the cycles ran on (cycles are divided by it to normalize).
  // `service_id` may be -1 when unknown.
  void AddRpcSample(int32_t service_id, const CycleBreakdown& cycles, double machine_speed);

  double total_cycles() const { return total_cycles_; }
  double total_rpc_tax_cycles() const;

  // Fraction of ALL recorded cycles consumed by each tax category (Fig. 20b).
  std::array<double, kNumTaxCategories> TaxCategoryFractions() const;

  // Fraction of all cycles that is RPC tax (Fig. 20a; paper: 7.1%).
  double TaxFraction() const;

  // Total cycles (tax + app) attributed to each service (Fig. 8c).
  const std::map<int32_t, double>& per_service_cycles() const {
    return per_service_cycles_;
  }

 private:
  double total_cycles_ = 0;  // Tax + application.
  std::array<double, kNumTaxCategories> tax_cycles_{};
  // Ordered map: consumers iterate it (summing double cycle shares, rendering
  // report tables), and FP summation order must not depend on a hash function
  // for the report bytes to be replay-stable.
  std::map<int32_t, double> per_service_cycles_;
};

}  // namespace rpcscope

#endif  // RPCSCOPE_SRC_PROFILE_PROFILE_H_
