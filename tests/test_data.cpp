// Tests for the data substrate: RNG determinism, key-traits order
// preservation, distribution properties (UD/ND/CD) and the synthetic
// real-world dataset generators.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>

#include "data/datasets.hpp"
#include "data/distributions.hpp"
#include "data/key_traits.hpp"
#include "data/rng.hpp"

namespace drtopk::data {
namespace {

TEST(Rng, DeterministicAcrossCalls) {
  EXPECT_EQ(rand_u64(42, 1000), rand_u64(42, 1000));
  EXPECT_NE(rand_u64(42, 1000), rand_u64(43, 1000));
  EXPECT_NE(rand_u64(42, 1000), rand_u64(42, 1001));
}

TEST(Rng, UnitRangeAndRoughUniformity) {
  const int buckets = 16;
  std::array<int, 16> hist{};
  const int n = 1 << 16;
  for (int i = 0; i < n; ++i) {
    const f64 u = rand_unit(7, i);
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    hist[static_cast<int>(u * buckets)]++;
  }
  for (int b = 0; b < buckets; ++b) {
    EXPECT_NEAR(hist[b], n / buckets, n / buckets * 0.15);
  }
}

TEST(Rng, NormalMomentsApproximatelyStandard) {
  const int n = 1 << 16;
  f64 sum = 0, sq = 0;
  for (int i = 0; i < n; ++i) {
    const f64 x = rand_normal(11, i);
    sum += x;
    sq += x * x;
  }
  const f64 mean = sum / n;
  const f64 var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.03);
  EXPECT_NEAR(var, 1.0, 0.05);
}

// ---- Key traits: order preservation is what every engine relies on ----

template <class T>
class KeyTraitsOrder : public ::testing::Test {};

using OrderedTypes = ::testing::Types<u32, u64, i32, i64, f32, f64>;
TYPED_TEST_SUITE(KeyTraitsOrder, OrderedTypes);

template <class T>
std::vector<T> interesting_values();

template <>
std::vector<u32> interesting_values<u32>() {
  return {0u, 1u, 2u, 100u, 0x7FFFFFFFu, 0x80000000u, 0xFFFFFFFEu,
          0xFFFFFFFFu};
}
template <>
std::vector<u64> interesting_values<u64>() {
  return {0ull, 1ull, 1ull << 32, ~0ull - 1, ~0ull};
}
template <>
std::vector<i32> interesting_values<i32>() {
  return {-2147483647 - 1, -100, -1, 0, 1, 100, 2147483647};
}
template <>
std::vector<i64> interesting_values<i64>() {
  return {std::numeric_limits<i64>::min(), -5, 0, 5,
          std::numeric_limits<i64>::max()};
}
template <>
std::vector<f32> interesting_values<f32>() {
  return {-1e30f, -3.5f, -0.0f, 0.0f, 1e-30f, 3.5f, 1e30f};
}
template <>
std::vector<f64> interesting_values<f64>() {
  return {-1e300, -2.5, 0.0, 2.5, 1e300};
}

TYPED_TEST(KeyTraitsOrder, ToKeyIsMonotone) {
  auto vals = interesting_values<TypeParam>();
  std::sort(vals.begin(), vals.end());
  for (size_t i = 1; i < vals.size(); ++i) {
    EXPECT_LE(KeyTraits<TypeParam>::to_key(vals[i - 1]),
              KeyTraits<TypeParam>::to_key(vals[i]));
  }
}

TYPED_TEST(KeyTraitsOrder, RoundTripsExactly) {
  for (const auto v : interesting_values<TypeParam>()) {
    const auto k = KeyTraits<TypeParam>::to_key(v);
    const auto back = KeyTraits<TypeParam>::from_key(k);
    EXPECT_EQ(std::memcmp(&back, &v, sizeof(v)), 0);
  }
}

TYPED_TEST(KeyTraitsOrder, SmallestCriterionReversesOrder) {
  auto vals = interesting_values<TypeParam>();
  std::sort(vals.begin(), vals.end());
  for (size_t i = 1; i < vals.size(); ++i) {
    if (vals[i - 1] == vals[i]) continue;
    EXPECT_GT(directed_key(vals[i - 1], Criterion::kSmallest),
              directed_key(vals[i], Criterion::kSmallest));
  }
}

TEST(KeyTraitsRandomized, MonotoneOnRandomFloatPairs) {
  for (int i = 0; i < 10000; ++i) {
    const f32 a = static_cast<f32>((rand_unit(1, i) - 0.5) * 2e6);
    const f32 b = static_cast<f32>((rand_unit(2, i) - 0.5) * 2e6);
    if (a < b) {
      EXPECT_LT(KeyTraits<f32>::to_key(a), KeyTraits<f32>::to_key(b));
    } else if (a > b) {
      EXPECT_GT(KeyTraits<f32>::to_key(a), KeyTraits<f32>::to_key(b));
    }
  }
}

// ---- Distributions ----

TEST(Distributions, UniformCoversRange) {
  auto v = generate(1 << 16, Distribution::kUniform, 5);
  const auto [mn, mx] = std::minmax_element(v.begin(), v.end());
  EXPECT_LT(*mn, u32{1} << 28);         // something near the bottom
  EXPECT_GT(*mx, 0xF0000000u);          // something near the top
}

TEST(Distributions, NormalIsTightlyConcentrated) {
  auto v = generate(1 << 16, Distribution::kNormal, 5);
  // mean 1e8, stddev 10: everything within ~1e8 +/- 100.
  for (u32 x : v) {
    ASSERT_GT(x, 99999800u);
    ASSERT_LT(x, 100000200u);
  }
  // Massive duplication: far fewer distinct values than elements.
  std::vector<u32> u(v.begin(), v.end());
  std::sort(u.begin(), u.end());
  u.erase(std::unique(u.begin(), u.end()), u.end());
  EXPECT_LT(u.size(), 200u);
}

TEST(Distributions, CustomizedHasDecoysInEveryTopLevelBucket) {
  const u64 n = 1 << 16;
  auto v = generate(n, Distribution::kCustomized, 5);
  // Level-0 decoys: one element in every 2^24-wide bucket except the top.
  std::array<bool, 256> seen{};
  for (u32 x : v) seen[x >> 24] = true;
  for (int b = 0; b < 256; ++b) EXPECT_TRUE(seen[b]) << "bucket " << b;
}

TEST(Distributions, CustomizedMajorityInTopPath) {
  const u64 n = 1 << 16;
  auto v = generate(n, Distribution::kCustomized, 5);
  u64 in_cluster = 0;
  for (u32 x : v)
    if (x >= 0xFFFFFF00u) ++in_cluster;
  // All but the planted decoys collapse into the final cluster.
  EXPECT_EQ(in_cluster, n - kCdDecoys);
}

TEST(Distributions, CustomizedBelowItsDecoyCountIsTheFirstDecoys) {
  // Small CD vectors are prefixes of large ones: n <= kCdDecoys holds only
  // decoys, and the cluster starts at element kCdDecoys.
  const auto small = generate(33, Distribution::kCustomized, 7);
  const auto large = generate(1 << 13, Distribution::kCustomized, 7);
  EXPECT_TRUE(std::equal(small.begin(), small.end(), large.begin()));
  const auto in_cluster = [](const vgpu::device_vector<u32>& v) {
    return std::count_if(v.begin(), v.end(),
                         [](u32 x) { return x >= 0xFFFFFF00u; });
  };
  EXPECT_EQ(in_cluster(generate(kCdDecoys, Distribution::kCustomized, 7)), 0);
  EXPECT_EQ(in_cluster(generate(kCdDecoys + 1, Distribution::kCustomized, 7)),
            1);
}

TEST(Distributions, DeterministicForSameSeed) {
  auto a = generate(4096, Distribution::kUniform, 9);
  auto b = generate(4096, Distribution::kUniform, 9);
  EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
}

// ---- Real-world synthetic datasets ----

TEST(Datasets, TableMatchesPaper) {
  auto t = dataset_table();
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t[0].abbr, "AN");
  EXPECT_EQ(t[0].paper_size, 536'870'912ull);
  EXPECT_EQ(t[1].abbr, "CW");
  EXPECT_EQ(t[1].paper_size, 1'073'741'824ull);
  EXPECT_EQ(t[2].abbr, "TR");
}

TEST(Datasets, AnnDistancesConcentrateAroundSqrtDimOver6) {
  const u32 dim = 128;
  auto d = ann_distances(1 << 12, dim, 1);
  f64 mean = 0;
  for (f32 x : d) {
    ASSERT_GE(x, 0.0f);
    mean += x;
  }
  mean /= static_cast<f64>(d.size());
  // E[ (U-V)^2 ] = 1/6 per dimension -> E[dist] ~ sqrt(dim/6) ~ 4.6.
  EXPECT_NEAR(mean, std::sqrt(dim / 6.0), 0.8);
}

TEST(Datasets, CluewebDegreesAreHeavyTailed) {
  auto deg = clueweb_degrees(1 << 16, 2);
  u64 ones = 0;
  u32 mx = 0;
  for (u32 d : deg) {
    ASSERT_GE(d, 1u);
    if (d == 1) ++ones;
    mx = std::max(mx, d);
  }
  // Pareto(2.1): ~53% of mass at degree 1, max far above the median.
  EXPECT_GT(ones, (u64{1} << 16) / 3);
  EXPECT_GT(mx, 1000u);
}

TEST(Datasets, TwitterScoresTileAUniquePool) {
  const u64 n = 1 << 14;
  auto s = twitter_covid_scores(n, 3, 0.125);
  std::map<f32, int> counts;
  for (f32 x : s) {
    ASSERT_GE(x, 0.0f);
    ASSERT_LE(x, 1.0f);
    counts[x]++;
  }
  // ~n/8 unique values, each duplicated ~8 times.
  EXPECT_LE(counts.size(), n / 8 + 1);
  EXPECT_GE(counts.size(), n / 16);
}

}  // namespace
}  // namespace drtopk::data
