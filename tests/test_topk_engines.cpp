// Correctness and instrumentation tests for every baseline top-k engine.
//
// The central property: every engine returns the exact multiset of the k
// largest keys, for every distribution x size x k combination, including
// tie-heavy inputs (ND) and the bucket-adversarial CD. Validated against
// std::nth_element.
#include <gtest/gtest.h>

#include <algorithm>

#include "data/distributions.hpp"
#include "topk/topk.hpp"

namespace drtopk::topk {
namespace {

using data::Distribution;

vgpu::Device& shared_device() {
  static vgpu::Device dev(vgpu::GpuProfile::v100s());
  return dev;
}

struct EngineCase {
  Algo algo;
  Distribution dist;
  u64 n;
  u64 k;
};

std::string case_name(const ::testing::TestParamInfo<EngineCase>& info) {
  const auto& c = info.param;
  std::string s = to_string(c.algo) + "_" + data::to_string(c.dist) + "_n" +
                  std::to_string(c.n) + "_k" + std::to_string(c.k);
  for (auto& ch : s)
    if (ch == '-') ch = '_';
  return s;
}

class EngineMultisetTest : public ::testing::TestWithParam<EngineCase> {};

TEST_P(EngineMultisetTest, MatchesReference) {
  const auto& c = GetParam();
  auto v = data::generate(c.n, c.dist, /*seed=*/c.n * 31 + c.k);
  std::span<const u32> vs(v.data(), v.size());
  auto expect = reference_topk(vs, c.k);
  auto got = run_topk_keys<u32>(shared_device(), vs, c.k, c.algo);
  ASSERT_EQ(got.keys.size(), c.k);
  EXPECT_EQ(got.keys, expect);
  EXPECT_EQ(got.kth, expect.back());
}

std::vector<EngineCase> all_cases() {
  std::vector<EngineCase> cases;
  const std::vector<Algo> algos = {
      Algo::kRadixFlag,     Algo::kRadixGgksOop, Algo::kRadixGgksInplace,
      Algo::kBucketInplace, Algo::kBucketOop,    Algo::kBucketGgksInplace,
      Algo::kBitonic,       Algo::kSortAndChoose, Algo::kHeap};
  const std::vector<Distribution> dists = {
      Distribution::kUniform, Distribution::kNormal,
      Distribution::kCustomized};
  for (Algo a : algos) {
    for (Distribution d : dists) {
      for (u64 n : {u64{5000}, u64{1} << 15}) {
        for (u64 k : {u64{1}, u64{7}, u64{128}, u64{1000}}) {
          if (k > n) continue;
          cases.push_back({a, d, n, k});
        }
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllEngines, EngineMultisetTest,
                         ::testing::ValuesIn(all_cases()), case_name);

// ---- Edge cases ----

class EngineEdgeTest : public ::testing::TestWithParam<Algo> {};

TEST_P(EngineEdgeTest, KEqualsN) {
  auto v = data::generate(512, Distribution::kUniform, 3);
  std::span<const u32> vs(v.data(), v.size());
  auto got = run_topk_keys<u32>(shared_device(), vs, v.size(), GetParam());
  EXPECT_EQ(got.keys, reference_topk(vs, v.size()));
}

TEST_P(EngineEdgeTest, AllElementsEqual) {
  std::vector<u32> v(4096, 0xABCDu);
  std::span<const u32> vs(v.data(), v.size());
  auto got = run_topk_keys<u32>(shared_device(), vs, 100, GetParam());
  EXPECT_EQ(got.keys, std::vector<u32>(100, 0xABCDu));
}

TEST_P(EngineEdgeTest, TinyInput) {
  std::vector<u32> v = {5, 3, 9, 9, 1};
  std::span<const u32> vs(v.data(), v.size());
  auto got = run_topk_keys<u32>(shared_device(), vs, 3, GetParam());
  EXPECT_EQ(got.keys, (std::vector<u32>{9, 9, 5}));
}

TEST_P(EngineEdgeTest, HeavyDuplicatesAtTheBoundary) {
  // kth value has many copies straddling the cut.
  std::vector<u32> v(1 << 12, 700u);
  for (int i = 0; i < 50; ++i) v[i] = 1000u + static_cast<u32>(i);
  std::span<const u32> vs(v.data(), v.size());
  auto got = run_topk_keys<u32>(shared_device(), vs, 100, GetParam());
  EXPECT_EQ(got.keys, reference_topk(vs, 100));
}

TEST_P(EngineEdgeTest, U64Keys) {
  std::vector<u64> v(1 << 12);
  for (u64 i = 0; i < v.size(); ++i)
    v[i] = data::rand_u64(99, i);
  std::span<const u64> vs(v.data(), v.size());
  auto got = run_topk_keys<u64>(shared_device(), vs, 200, GetParam());
  EXPECT_EQ(got.keys, reference_topk(vs, 200));
}

INSTANTIATE_TEST_SUITE_P(
    Edges, EngineEdgeTest,
    ::testing::Values(Algo::kRadixFlag, Algo::kRadixGgksOop,
                      Algo::kBucketInplace, Algo::kBucketOop, Algo::kBitonic,
                      Algo::kSortAndChoose, Algo::kHeap),
    [](const auto& info) {
      std::string s = to_string(info.param);
      for (auto& ch : s)
        if (ch == '-') ch = '_';
      return s;
    });

// ---- Instrumentation invariants ----

TEST(FlagRadixStats, NeverStoresToInput) {
  auto v = data::generate(1 << 16, Distribution::kUniform, 1);
  std::span<const u32> vs(v.data(), v.size());
  Accum acc(shared_device());
  (void)radix_kth_flag<u32>(acc, vs, 1000);
  // The k-selection never writes the input vector; the only store allowed
  // is the single result cell of the unique-survivor early exit.
  EXPECT_LE(acc.stats().global_store_elems, 1u);
}

TEST(FlagRadixStats, LoadsAtMostDigitsTimesN) {
  const u64 n = 1 << 16;
  auto v = data::generate(n, Distribution::kUniform, 1);
  std::span<const u32> vs(v.data(), v.size());
  Accum acc(shared_device());
  (void)radix_kth_flag<u32>(acc, vs, 1000);
  // 4 digit passes max (early exit can shorten), Equation 3's 4-scan term.
  EXPECT_LE(acc.stats().global_load_elems, 4 * n + n);
  EXPECT_GE(acc.stats().global_load_elems, n);
}

TEST(FlagRadixBounded, SkipsLastDigitOnlyWhileAtMost4kKeysReachThePrefix) {
  // Section 4.3's relaxation with its guard: the selection returns the
  // partial prefix (the k-th key with its low digit cleared) only when at
  // most 4k keys are >= it, and the exact k-th key otherwise.
  const u64 n = 1 << 16;
  std::vector<std::pair<std::string, vgpu::device_vector<u32>>> inputs;
  for (Distribution d : {Distribution::kUniform, Distribution::kNormal,
                         Distribution::kCustomized})
    inputs.emplace_back(data::to_string(d), data::generate(n, d, 17));
  inputs.emplace_back("all-equal", vgpu::device_vector<u32>(n, 42u));
  // Every key alone on its top-three-byte prefix, 256 keys per top-two-byte
  // prefix: the k-th key is the unique survivor of the penultimate digit.
  vgpu::device_vector<u32> one_per_prefix(n);
  for (u64 i = 0; i < n; ++i) one_per_prefix[i] = static_cast<u32>(i << 8);
  inputs.emplace_back("one-per-prefix", std::move(one_per_prefix));
  u64 unique_at_last_digit = 0;
  for (const auto& [name, v] : inputs) {
    std::span<const u32> vs(v.data(), v.size());
    for (u64 k : {u64{1}, u64{64}, u64{1024}}) {
      const std::string at = name + " k=" + std::to_string(k);
      const u32 kth = reference_topk(vs, k).back();
      const auto on_prefix = [&](u32 prefix_mask) {
        return static_cast<u64>(std::count_if(
            vs.begin(), vs.end(), [&](u32 x) {
              return (x & prefix_mask) == (kth & prefix_mask);
            }));
      };
      const auto at_least = [&](u32 t) {
        return static_cast<u64>(
            std::count_if(vs.begin(), vs.end(), [t](u32 x) { return x >= t; }));
      };
      Accum exact_acc(shared_device()), acc(shared_device());
      ASSERT_EQ(radix_kth_flag<u32>(exact_acc, vs, k), kth) << at;
      bool declined = false;
      const u32 got = radix_kth_flag<u32>(acc, vs, k, 4 * k, &declined);
      if (at_least(kth & ~0xFFu) > 4 * k) {
        EXPECT_EQ(got, kth) << at;
        EXPECT_TRUE(declined) << at;
      } else {
        EXPECT_LE(got, kth) << at;
        EXPECT_LE(at_least(got), 4 * k) << at;
        EXPECT_FALSE(declined) << at;
      }
      if (on_prefix(0xFFFF0000u) > 1 && on_prefix(0xFFFFFF00u) == 1) {
        // The exact selection fetches the lone survivor; the prefix admits
        // the same k keys, so the relaxed one returns without that launch.
        ++unique_at_last_digit;
        EXPECT_LT(acc.stats().kernels_launched,
                  exact_acc.stats().kernels_launched) << at;
      } else {
        EXPECT_LE(acc.stats().kernels_launched,
                  exact_acc.stats().kernels_launched) << at;
      }
    }
  }
  EXPECT_GE(unique_at_last_digit, 3u);
}

TEST(GgksInplaceStats, PaysScatteredStores) {
  const u64 n = 1 << 16;
  auto v = data::generate(n, Distribution::kUniform, 2);
  vgpu::device_vector<u32> work(v.begin(), v.end());
  auto r = radix_topk_ggks_inplace<u32>(shared_device(),
                                        std::span<u32>(work.data(), n), 128);
  // Nearly every element is retired (zeroed) exactly once.
  EXPECT_GT(r.stats.global_store_elems, n / 2);
}

TEST(GgksInplaceVsFlag, FlagIsFasterInSimulatedTime) {
  const u64 n = 1 << 18;
  auto v = data::generate(n, Distribution::kUniform, 3);
  std::span<const u32> vs(v.data(), v.size());
  auto flag = radix_topk_flag<u32>(shared_device(), vs, 1 << 7);
  vgpu::device_vector<u32> work(v.begin(), v.end());
  auto ggks = radix_topk_ggks_inplace<u32>(shared_device(),
                                           std::span<u32>(work.data(), n),
                                           1 << 7);
  // Figure 12: the flag-based design wins by avoiding scattered stores.
  EXPECT_LT(flag.sim_ms, ggks.sim_ms);
}

TEST(BitonicStats, SharedPathUsesSharedMemory) {
  auto v = data::generate(1 << 15, Distribution::kUniform, 4);
  std::span<const u32> vs(v.data(), v.size());
  auto r = bitonic_topk<u32>(shared_device(), vs, 64);
  EXPECT_GT(r.stats.shared_loads, 0u);
}

TEST(BitonicStats, LargeKFallsOffTheSharedPath) {
  auto v = data::generate(1 << 20, Distribution::kUniform, 4);
  std::span<const u32> vs(v.data(), v.size());
  auto small = bitonic_topk<u32>(shared_device(), vs, 256);
  auto large = bitonic_topk<u32>(shared_device(), vs, 512);
  // k > 256: merges move to global memory; per-element cost jumps
  // (Section 2.2 / Figure 4's bitonic cliff).
  EXPECT_GT(large.sim_ms, 2.0 * small.sim_ms);
  EXPECT_EQ(large.stats.shared_loads, 0u);
}

TEST(SortAndChoose, SortsAscendingInternally) {
  auto v = data::generate(1 << 14, Distribution::kNormal, 6);
  std::span<const u32> vs(v.data(), v.size());
  auto r = sort_and_choose_topk<u32>(shared_device(), vs, 10);
  EXPECT_TRUE(std::is_sorted(r.keys.begin(), r.keys.end(),
                             std::greater<>()));
  EXPECT_EQ(r.keys, reference_topk(vs, 10));
}

TEST(SortAndChoose, CostsMoreThanRadixTopk) {
  const u64 n = 1 << 18;
  auto v = data::generate(n, Distribution::kUniform, 7);
  std::span<const u32> vs(v.data(), v.size());
  auto sort = sort_and_choose_topk<u32>(shared_device(), vs, 1024);
  auto radix = radix_topk_flag<u32>(shared_device(), vs, 1024);
  // Figure 17: sort-and-choose does far more work than top-k algorithms.
  EXPECT_GT(sort.sim_ms, 2.0 * radix.sim_ms);
}

// ---- Heap baseline ----

TEST(HeapEngine, RoutedThroughDispatchWithDevicePool) {
  // The heap baseline is a first-class Algo: dispatched like the GPU
  // engines, running its parallel variant on the device's host pool. It
  // reports wall-clock only — no kernel stats or simulated GPU time.
  auto v = data::generate(1 << 15, Distribution::kNormal, 77);
  std::span<const u32> vs(v.data(), v.size());
  auto got = run_topk_keys<u32>(shared_device(), vs, 321, Algo::kHeap);
  EXPECT_EQ(got.keys, reference_topk(vs, 321));
  EXPECT_EQ(got.stats.kernels_launched, 0u);
  EXPECT_EQ(got.sim_ms, 0.0);
  EXPECT_EQ(to_string(Algo::kHeap), "heap");
}

TEST(MergeNetwork, ChargeStrictlyBelowResort) {
  // The batched multi-CTA merge's analytic charge: a P-way merge network
  // over m elements arriving as P < m pre-sorted runs must cost strictly
  // less than a full bitonic sort, collapse to zero for a single run, and
  // degenerate to the full sort when every "run" is one element.
  for (u64 m : {u64{64}, u64{1} << 10, u64{1} << 15}) {
    for (u64 pw : {u64{2}, u64{4}, u64{16}}) {
      EXPECT_LT(vgpu::merge_network_cx(m, pw),
                detail::bitonic_sort_cx(std::bit_ceil(m)))
          << "m=" << m << " P=" << pw;
      EXPECT_GT(vgpu::merge_network_cx(m, pw), 0u);
    }
    EXPECT_EQ(vgpu::merge_network_cx(m, 1), 0u);
    EXPECT_EQ(vgpu::merge_network_cx(m, m),
              detail::bitonic_sort_cx(std::bit_ceil(m)));
  }
  EXPECT_EQ(vgpu::merge_network_cx(1, 4), 0u);
  // More ways over the same set never get cheaper (each extra tree level
  // adds exchanges).
  EXPECT_LE(vgpu::merge_network_cx(1 << 10, 2),
            vgpu::merge_network_cx(1 << 10, 4));
}

TEST(HeapTopk, SequentialMatchesReference) {
  auto v = data::generate(1 << 14, Distribution::kUniform, 8);
  std::span<const u32> vs(v.data(), v.size());
  auto r = heap_topk<u32>(vs, 99);
  EXPECT_EQ(r.keys, reference_topk(vs, 99));
}

TEST(HeapTopk, ParallelMatchesReference) {
  vgpu::ThreadPool pool(4);
  auto v = data::generate(1 << 16, Distribution::kCustomized, 8);
  std::span<const u32> vs(v.data(), v.size());
  auto r = heap_topk<u32>(vs, 500, &pool);
  EXPECT_EQ(r.keys, reference_topk(vs, 500));
}

// ---- Typed frontend ----

TEST(TypedFrontend, SmallestCriterionOnFloats) {
  std::vector<f32> v;
  for (int i = 0; i < 4096; ++i)
    v.push_back(static_cast<f32>(data::rand_unit(10, i) * 100.0));
  std::span<const f32> vs(v.data(), v.size());
  auto r = run_topk<f32>(shared_device(), vs, 5, Criterion::kSmallest,
                         Algo::kRadixFlag);
  std::vector<f32> expect(v.begin(), v.end());
  std::sort(expect.begin(), expect.end());
  expect.resize(5);
  EXPECT_EQ(r.values, expect);
  EXPECT_EQ(r.kth, expect.back());
}

TEST(TypedFrontend, LargestOnU32IsZeroCopy) {
  auto v = data::generate(1 << 12, Distribution::kUniform, 11);
  std::span<const u32> vs(v.data(), v.size());
  auto r = run_topk<u32>(shared_device(), vs, 3, Criterion::kLargest,
                         Algo::kBucketInplace);
  EXPECT_EQ(r.values, reference_topk(vs, 3));
}

TEST(TypedFrontend, NegativeFloatsLargest) {
  std::vector<f32> v;
  for (int i = 0; i < 2048; ++i)
    v.push_back(static_cast<f32>((data::rand_unit(12, i) - 0.5) * 1000.0));
  std::span<const f32> vs(v.data(), v.size());
  auto r = run_topk<f32>(shared_device(), vs, 17, Criterion::kLargest,
                         Algo::kBitonic);
  std::vector<f32> expect(v.begin(), v.end());
  std::sort(expect.begin(), expect.end(), std::greater<>());
  expect.resize(17);
  EXPECT_EQ(r.values, expect);
}

}  // namespace
}  // namespace drtopk::topk
