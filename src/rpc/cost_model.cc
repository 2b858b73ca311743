#include "src/rpc/cost_model.h"

namespace rpcscope {

std::string_view CycleCategoryName(CycleCategory c) {
  switch (c) {
    case CycleCategory::kCompression:
      return "Compression";
    case CycleCategory::kNetworking:
      return "Networking";
    case CycleCategory::kSerialization:
      return "Serialization";
    case CycleCategory::kRpcLibrary:
      return "RPC Library";
    case CycleCategory::kEncryption:
      return "Encryption";
    case CycleCategory::kChecksum:
      return "Checksum";
    case CycleCategory::kApplication:
      return "Application";
  }
  return "invalid";
}

double CycleBreakdown::Total() const {
  double total = 0;
  for (double c : cycles) {
    total += c;
  }
  return total;
}

double CycleBreakdown::TaxTotal() const {
  return Total() - (*this)[CycleCategory::kApplication];
}

void CycleBreakdown::Accumulate(const CycleBreakdown& other) {
  for (size_t i = 0; i < cycles.size(); ++i) {
    cycles[i] += other.cycles[i];
  }
}

SimDuration CycleCostModel::CyclesToDuration(double cycles, double speed) const {
  if (cycles <= 0) {
    return 0;
  }
  const double seconds = cycles / (cycles_per_second * speed);
  return DurationFromSeconds(seconds);
}

CycleBreakdown CycleCostModel::LocalDeliveryCost() const {
  CycleBreakdown b;
  b[CycleCategory::kRpcLibrary] = rpclib_fixed_per_side;
  return b;
}

}  // namespace rpcscope
