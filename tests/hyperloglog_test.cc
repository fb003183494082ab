#include "util/hyperloglog.h"

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace sigsetdb {
namespace {

// The register-order loop Estimate() ran before it kept a rank histogram,
// kept here as the oracle the histogram sum must match bit for bit.
double LoopEstimate(const HyperLogLog& hll) {
  const std::vector<uint8_t>& registers = hll.registers();
  const double m = static_cast<double>(registers.size());
  double alpha = 0.7213 / (1.0 + 1.079 / m);
  if (registers.size() == 16) alpha = 0.673;
  if (registers.size() == 32) alpha = 0.697;
  if (registers.size() == 64) alpha = 0.709;
  double inverse_sum = 0.0;
  size_t zeros = 0;
  for (uint8_t r : registers) {
    inverse_sum += std::ldexp(1.0, -static_cast<int>(r));
    if (r == 0) ++zeros;
  }
  double raw = alpha * m * m / inverse_sum;
  if (raw <= 2.5 * m && zeros > 0) {
    return m * std::log(m / static_cast<double>(zeros));
  }
  return raw;
}

// Bitwise equality (EXPECT_DOUBLE_EQ would forgive 4 ulps).
void ExpectBitIdentical(const HyperLogLog& hll, const std::string& what) {
  const double got = hll.Estimate();
  const double want = LoopEstimate(hll);
  EXPECT_EQ(std::memcmp(&got, &want, sizeof got), 0)
      << what << ": histogram " << got << " vs loop " << want;
}

TEST(HyperLogLogTest, EmptyEstimatesZero) {
  HyperLogLog hll(12);
  EXPECT_DOUBLE_EQ(hll.Estimate(), 0.0);
}

TEST(HyperLogLogTest, SmallCardinalitiesExactViaLinearCounting) {
  HyperLogLog hll(12);
  for (uint64_t v = 0; v < 50; ++v) hll.Add(v * 977 + 13);
  EXPECT_NEAR(hll.Estimate(), 50.0, 3.0);
}

TEST(HyperLogLogTest, DuplicatesDoNotInflate) {
  HyperLogLog hll(12);
  for (int round = 0; round < 100; ++round) {
    for (uint64_t v = 0; v < 200; ++v) hll.Add(v);
  }
  EXPECT_NEAR(hll.Estimate(), 200.0, 10.0);
}

// Accuracy sweep: relative error must stay within ~5 sigma of the HLL bound
// 1.04/sqrt(m) across magnitudes.
class HllAccuracyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HllAccuracyTest, RelativeErrorWithinBound) {
  const uint64_t n = GetParam();
  HyperLogLog hll(12);
  Rng rng(n);
  for (uint64_t i = 0; i < n; ++i) hll.Add(rng.Next());
  // rng.Next() collisions are negligible at these sizes.
  double error = std::abs(hll.Estimate() - static_cast<double>(n)) /
                 static_cast<double>(n);
  double bound = 1.04 / std::sqrt(4096.0);  // ≈ 1.6 %
  EXPECT_LT(error, 5 * bound) << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(Magnitudes, HllAccuracyTest,
                         ::testing::Values(1000, 13000, 100000, 1000000));

TEST(HyperLogLogTest, PaperDomainCardinality) {
  // The paper's V = 13,000 dense domain ids.
  HyperLogLog hll(12);
  for (uint64_t v = 0; v < 13000; ++v) hll.Add(v);
  EXPECT_NEAR(hll.Estimate(), 13000.0, 13000.0 * 0.08);
}

TEST(HyperLogLogTest, MergeEqualsUnion) {
  HyperLogLog a(10), b(10), u(10);
  for (uint64_t v = 0; v < 5000; ++v) {
    a.Add(v);
    u.Add(v);
  }
  for (uint64_t v = 2500; v < 9000; ++v) {
    b.Add(v);
    u.Add(v);
  }
  a.Merge(b);
  EXPECT_DOUBLE_EQ(a.Estimate(), u.Estimate());
}

TEST(HyperLogLogTest, ClearResets) {
  HyperLogLog hll(8);
  for (uint64_t v = 0; v < 1000; ++v) hll.Add(v);
  hll.Clear();
  EXPECT_DOUBLE_EQ(hll.Estimate(), 0.0);
}

TEST(HyperLogLogTest, RegisterRoundTrip) {
  HyperLogLog a(12);
  for (uint64_t v = 0; v < 7777; ++v) a.Add(v * 31 + 1);
  HyperLogLog b(12);
  ASSERT_TRUE(b.LoadRegisters(a.registers().data(), a.registers().size()));
  EXPECT_DOUBLE_EQ(b.Estimate(), a.Estimate());
  // Size mismatch rejected.
  HyperLogLog c(10);
  EXPECT_FALSE(c.LoadRegisters(a.registers().data(), a.registers().size()));
}

TEST(HyperLogLogTest, HistogramSumMatchesRegisterLoopBitForBit) {
  for (int precision : {4, 6, 10, 12, 16}) {
    for (uint64_t seed : {1u, 7u, 42u}) {
      const std::string tag = "p=" + std::to_string(precision) +
                              " seed=" + std::to_string(seed);
      Rng rng(seed * 1000 + static_cast<uint64_t>(precision));
      HyperLogLog a(precision), b(precision);
      ExpectBitIdentical(a, tag + " empty");
      // Seeded adds across the linear-counting and raw ranges.
      uint64_t added = 0;
      for (uint64_t target : {1u, 10u, 100u, 1000u, 20000u, 200000u}) {
        for (; added < target; ++added) a.Add(rng.Next());
        ExpectBitIdentical(a, tag + " after " + std::to_string(added));
      }
      for (int i = 0; i < 5000; ++i) b.Add(rng.NextBelow(30000));
      ExpectBitIdentical(b, tag + " b");
      a.Merge(b);
      ExpectBitIdentical(a, tag + " merged");
      // Reloaded registers up to the largest rank the sum is exact for
      // (precision + rank <= 53; see HyperLogLog::Estimate).
      const int max_exact = 53 - precision;
      std::vector<uint8_t> raw(a.num_registers());
      for (uint8_t& r : raw) {
        r = static_cast<uint8_t>(rng.NextBelow(max_exact + 1));
      }
      HyperLogLog c(precision);
      ASSERT_TRUE(c.LoadRegisters(raw.data(), raw.size()));
      ExpectBitIdentical(c, tag + " random registers");
      ASSERT_TRUE(c.LoadRegisters(a.registers().data(), a.num_registers()));
      ExpectBitIdentical(c, tag + " reloaded");
      EXPECT_EQ(c.Estimate(), a.Estimate());
      for (int i = 0; i < 3000; ++i) c.Add(rng.Next());
      ExpectBitIdentical(c, tag + " reloaded then added");
      c.Clear();
      ExpectBitIdentical(c, tag + " cleared");
      EXPECT_EQ(c.Estimate(), 0.0);
    }
  }
}

TEST(HyperLogLogTest, LoadRegistersRejectsRanksAddCannotProduce) {
  HyperLogLog hll(12);
  std::vector<uint8_t> raw(hll.num_registers(), 3);
  raw[17] = 64 - 12 + 1;  // the largest rank Add() can produce
  EXPECT_TRUE(hll.LoadRegisters(raw.data(), raw.size()));
  raw[17] = 64 - 12 + 2;
  EXPECT_FALSE(hll.LoadRegisters(raw.data(), raw.size()));
  // A rejected load leaves the sketch as it was.
  raw[17] = 64 - 12 + 1;
  HyperLogLog same(12);
  ASSERT_TRUE(same.LoadRegisters(raw.data(), raw.size()));
  EXPECT_EQ(hll.Estimate(), same.Estimate());
}

TEST(HyperLogLogTest, PrecisionTradesStateForAccuracy) {
  Rng rng(5);
  std::vector<uint64_t> values;
  for (int i = 0; i < 50000; ++i) values.push_back(rng.Next());
  HyperLogLog coarse(6), fine(14);
  for (uint64_t v : values) {
    coarse.Add(v);
    fine.Add(v);
  }
  double coarse_err = std::abs(coarse.Estimate() - 50000.0) / 50000.0;
  double fine_err = std::abs(fine.Estimate() - 50000.0) / 50000.0;
  EXPECT_LT(fine_err, 0.05);
  EXPECT_LT(coarse_err, 0.6);
  EXPECT_EQ(coarse.num_registers(), 64u);
  EXPECT_EQ(fine.num_registers(), 16384u);
}

}  // namespace
}  // namespace sigsetdb
