#include "src/rpc/cost_model.h"

#include <gtest/gtest.h>

#include <cmath>

namespace rpcscope {
namespace {

TEST(CycleBreakdownTest, TotalsAndTax) {
  CycleBreakdown b;
  b[CycleCategory::kCompression] = 100;
  b[CycleCategory::kApplication] = 900;
  EXPECT_DOUBLE_EQ(b.Total(), 1000);
  EXPECT_DOUBLE_EQ(b.TaxTotal(), 100);
}

TEST(CycleBreakdownTest, AccumulateAdds) {
  CycleBreakdown a, b;
  a[CycleCategory::kSerialization] = 10;
  b[CycleCategory::kSerialization] = 5;
  b[CycleCategory::kNetworking] = 7;
  a.Accumulate(b);
  EXPECT_DOUBLE_EQ(a[CycleCategory::kSerialization], 15);
  EXPECT_DOUBLE_EQ(a[CycleCategory::kNetworking], 7);
}

TEST(CycleCostModelTest, CyclesToDurationUsesClock) {
  CycleCostModel m;
  m.cycles_per_second = 1e9;
  EXPECT_EQ(m.CyclesToDuration(1e9), Seconds(1));
  EXPECT_EQ(m.CyclesToDuration(1e6), Millis(1));
  // A 2x faster machine takes half the time.
  EXPECT_EQ(m.CyclesToDuration(1e6, 2.0), Micros(500));
  EXPECT_EQ(m.CyclesToDuration(0), 0);
  EXPECT_EQ(m.CyclesToDuration(-5), 0);
}

TEST(CycleCostModelTest, CostsScaleWithBytes) {
  CycleCostModel m;
  auto send = [&m](CycleCategory stage, int64_t payload, int64_t wire) {
    return m.Stage(stage, /*send=*/true, payload, wire).Total();
  };
  for (const CycleCategory stage :
       {CycleCategory::kSerialization, CycleCategory::kCompression, CycleCategory::kNetworking}) {
    EXPECT_GT(send(stage, 100000, 80000), send(stage, 100, 80)) << CycleCategoryName(stage);
  }
  // RPC library bookkeeping is per call, not per byte.
  EXPECT_DOUBLE_EQ(send(CycleCategory::kRpcLibrary, 100000, 80000),
                   send(CycleCategory::kRpcLibrary, 100, 80));
}

TEST(CycleCostModelTest, SendAndRecvBothChargeAllTaxCategories) {
  CycleCostModel m;
  for (const bool send : {true, false}) {
    for (int i = 0; i < kNumTaxCategories; ++i) {
      const auto stage = static_cast<CycleCategory>(i);
      EXPECT_GT(m.Stage(stage, send, 1000, 800).Total(), 0) << CycleCategoryName(stage);
    }
    EXPECT_DOUBLE_EQ(m.Stage(CycleCategory::kApplication, send, 1000, 800).Total(), 0);
  }
}

TEST(CycleCostModelTest, StageTermsKeepTheCalibratedExpressions) {
  // Every profile, the sampler and the what-if price through Stage, and
  // their digests depend on these doubles: each stage's Total() must be the
  // calibrated expression, association included — exact equality, no
  // tolerance (docs/TAX.md#determinism).
  CycleCostModel m;
  struct Shape {
    int64_t payload;
    int64_t wire;
    double scale;
  };
  for (const Shape s : {Shape{0, 0, 1.0}, Shape{100, 80, 1.0}, Shape{100000, 80000, 1.0},
                        Shape{4096, 3000, 0.05}}) {
    const double pb = static_cast<double>(s.payload) * s.scale;
    const double wb = static_cast<double>(s.wire) * s.scale;
    for (const bool send : {true, false}) {
      auto total = [&](CycleCategory stage) {
        return m.Stage(stage, send, s.payload, s.wire, s.scale).Total();
      };
      EXPECT_EQ(total(CycleCategory::kSerialization),
                send ? m.serialize_fixed + m.serialize_per_byte * pb
                     : m.parse_fixed + m.parse_per_byte * pb);
      EXPECT_EQ(total(CycleCategory::kCompression),
                send ? m.compress_fixed + m.compress_per_byte * pb
                     : m.decompress_fixed + m.decompress_per_byte * pb);
      EXPECT_EQ(total(CycleCategory::kEncryption), m.encrypt_fixed + m.encrypt_per_byte * wb);
      EXPECT_EQ(total(CycleCategory::kChecksum), m.checksum_per_byte * wb);
      EXPECT_EQ(total(CycleCategory::kNetworking),
                m.netstack_fixed + m.netstack_per_packet * std::ceil(wb / 1500.0) +
                    m.netstack_per_byte * wb);
      EXPECT_EQ(total(CycleCategory::kRpcLibrary), m.rpclib_fixed_per_side);
    }
  }
  // The split: only networking has a per-packet term, only checksum lacks a
  // fixed one, and byte_cost_scale leaves the fixed term alone.
  const StageTerms net = m.Stage(CycleCategory::kNetworking, true, 4000, 3001, 0.5);
  EXPECT_EQ(net.fixed, m.netstack_fixed);
  EXPECT_EQ(net.per_packet, m.netstack_per_packet * 2);  // ceil(1500.5 / 1500).
  EXPECT_EQ(m.Stage(CycleCategory::kChecksum, true, 4000, 3000).fixed, 0);
  EXPECT_EQ(m.Stage(CycleCategory::kSerialization, true, 4000, 3000).per_packet, 0);
  EXPECT_EQ(m.Stage(CycleCategory::kRpcLibrary, false, 4000, 3000).per_byte, 0);
}

TEST(CycleCostModelTest, CategoryNamesComplete) {
  for (int i = 0; i < kNumCycleCategories; ++i) {
    EXPECT_NE(CycleCategoryName(static_cast<CycleCategory>(i)), "invalid");
  }
}

}  // namespace
}  // namespace rpcscope
