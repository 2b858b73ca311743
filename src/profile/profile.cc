#include "src/profile/profile.h"

namespace rpcscope {

ProfileCollector::ProfileCollector() = default;

void ProfileCollector::AddRpcSample(int32_t service_id, const CycleBreakdown& cycles,
                                    double machine_speed) {
  const double norm = machine_speed > 0 ? 1.0 / machine_speed : 1.0;
  double call_total = 0;
  for (int i = 0; i < kNumTaxCategories; ++i) {
    const double c = cycles.cycles[static_cast<size_t>(i)] * norm;
    tax_cycles_[static_cast<size_t>(i)] += c;
    call_total += c;
  }
  call_total += cycles[CycleCategory::kApplication] * norm;
  total_cycles_ += call_total;

  if (service_id >= 0) {
    per_service_cycles_[service_id] += call_total;
  }
}

double ProfileCollector::total_rpc_tax_cycles() const {
  double total = 0;
  for (double c : tax_cycles_) {
    total += c;
  }
  return total;
}

std::array<double, kNumTaxCategories> ProfileCollector::TaxCategoryFractions() const {
  std::array<double, kNumTaxCategories> out{};
  if (total_cycles_ <= 0) {
    return out;
  }
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = tax_cycles_[i] / total_cycles_;
  }
  return out;
}

double ProfileCollector::TaxFraction() const {
  if (total_cycles_ <= 0) {
    return 0;
  }
  return total_rpc_tax_cycles() / total_cycles_;
}

}  // namespace rpcscope
