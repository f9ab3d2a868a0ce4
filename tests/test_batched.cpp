// Tests for the batched multi-segment selection engine (topk/batched.hpp):
// batched-vs-per-query parity across distributions, k values and ragged
// segment widths (empty and k > width included), the two-level multi-CTA
// merge path, the same-corpus sort sharing, and launch-count budgets.
#include <gtest/gtest.h>

#include <algorithm>

#include "data/distributions.hpp"
#include "topk/batched.hpp"

namespace drtopk::topk {
namespace {

using data::Distribution;

vgpu::Device& shared_device() {
  static vgpu::Device dev(vgpu::GpuProfile::v100s());
  return dev;
}

template <class K>
void expect_segment_exact(const BatchedSegment<K>& sg,
                          const std::vector<K>& got, const char* what) {
  const u64 keff = std::min(sg.k, sg.data.size());
  if (keff == 0) {
    EXPECT_TRUE(got.empty()) << what;
    return;
  }
  const auto expect = reference_topk(sg.data, keff);
  if (sg.selection_only) {
    ASSERT_EQ(got.size(), 1u) << what;
    EXPECT_EQ(got[0], expect.back()) << what;
  } else {
    EXPECT_EQ(got, expect) << what;
  }
}

TEST(Batched, ParityAcrossDistributionsAndRaggedWidths) {
  // Segments of wildly different widths — empty, sub-warp, k > width, a
  // few thousand — over every distribution, mixed full-top-k and
  // selection-only, all selected in one batch.
  std::vector<vgpu::device_vector<u32>> corpora;
  for (auto d : {Distribution::kUniform, Distribution::kNormal,
                 Distribution::kCustomized})
    corpora.push_back(data::generate(5000, d, 7 + corpora.size()));

  std::vector<BatchedSegment<u32>> segs;
  u64 tag = 0;
  for (const auto& c : corpora) {
    std::span<const u32> cs(c.data(), c.size());
    for (const u64 width : {u64{0}, u64{1}, u64{5}, u64{31}, u64{33},
                            u64{100}, u64{1000}, u64{5000}}) {
      for (const u64 k : {u64{1}, u64{3}, u64{32}, u64{150}}) {
        segs.push_back({cs.subspan(0, width), k, tag, (tag % 3) == 0});
        ++tag;
      }
    }
  }

  Accum acc(shared_device());
  auto r = batched_topk<u32>(acc, segs);
  ASSERT_EQ(r.keys.size(), segs.size());
  for (size_t i = 0; i < segs.size(); ++i)
    expect_segment_exact(segs[i], r.keys[i], "ragged parity");
  // All widths fit one SM: a single selection launch covered everything.
  EXPECT_EQ(r.launches, 1u);
  EXPECT_EQ(r.multi_cta, 0u);
  EXPECT_EQ(r.fallback, 0u);
}

TEST(Batched, SameCorpusSegmentsShareOneSort) {
  // N selections over one span (the serving group's stage-2 shape): one
  // problem, one sort, N emissions.
  auto v = data::generate(4096, Distribution::kUniform, 21);
  std::span<const u32> vs(v.data(), v.size());
  std::vector<BatchedSegment<u32>> segs;
  for (const u64 k : {u64{1}, u64{8}, u64{64}, u64{512}, u64{512}})
    segs.push_back({vs, k, k, /*selection_only=*/true});

  Accum acc(shared_device());
  auto r = batched_topk<u32>(acc, segs);
  EXPECT_EQ(r.shared_sorts, segs.size() - 1);
  EXPECT_EQ(r.single_cta, 1u);
  EXPECT_EQ(r.launches, 1u);
  for (size_t i = 0; i < segs.size(); ++i)
    expect_segment_exact(segs[i], r.keys[i], "shared sort");
}

TEST(Batched, MultiCtaMergePathLiftsTheSharedMemoryCap) {
  const auto& prof = shared_device().profile();
  const u64 cap = batched_single_cap<u32>(prof);
  // ~3.5 slices worth of data: far beyond one SM's shared memory, well
  // within the two-level budget for a small k.
  const u64 n = cap * 3 + cap / 2;
  auto v = data::generate(n, Distribution::kCustomized, 31);
  std::span<const u32> vs(v.data(), v.size());
  ASSERT_FALSE(small_topk_fits<u32>(prof, n));
  ASSERT_TRUE(batched_multi_fits<u32>(prof, n, 1024));

  std::vector<BatchedSegment<u32>> segs;
  segs.push_back({vs, 1024, 0, false});
  segs.push_back({vs, 100, 1, true});  // rides the same slices + merge

  Accum acc(shared_device());
  auto r = batched_topk<u32>(acc, segs);
  EXPECT_EQ(r.multi_cta, 1u);
  EXPECT_EQ(r.launches, 2u);  // slice sort + cross-CTA merge
  for (size_t i = 0; i < segs.size(); ++i)
    expect_segment_exact(segs[i], r.keys[i], "multi-CTA");
}

TEST(Batched, MixedSmallAndMultiCtaSegmentsStayTwoLaunches) {
  const u64 cap = batched_single_cap<u32>(shared_device().profile());
  auto big = data::generate(cap * 2 + 17, Distribution::kUniform, 41);
  auto small = data::generate(2000, Distribution::kNormal, 42);
  std::span<const u32> bs(big.data(), big.size());
  std::span<const u32> ss(small.data(), small.size());

  std::vector<BatchedSegment<u32>> segs;
  segs.push_back({bs, 500, 0, false});
  segs.push_back({ss, 64, 1, false});
  segs.push_back({ss.subspan(0, 10), 10, 2, false});

  Accum acc(shared_device());
  auto r = batched_topk<u32>(acc, segs);
  // The small segments' CTAs ride the multi-CTA segment's slice launch.
  EXPECT_EQ(r.launches, 2u);
  EXPECT_EQ(r.single_cta, 2u);
  EXPECT_EQ(r.multi_cta, 1u);
  for (size_t i = 0; i < segs.size(); ++i)
    expect_segment_exact(segs[i], r.keys[i], "mixed batch");
}

TEST(Batched, FallbackWhenMergeSetOverflows) {
  // k so large that the per-slice prefixes cannot fit one SM either: the
  // engine must degrade to the per-segment engine and stay exact.
  const u64 cap = batched_single_cap<u32>(shared_device().profile());
  const u64 n = cap * 4;
  auto v = data::generate(n, Distribution::kUniform, 51);
  std::span<const u32> vs(v.data(), v.size());
  ASSERT_FALSE(batched_multi_fits<u32>(shared_device().profile(), n, cap));

  std::vector<BatchedSegment<u32>> segs;
  segs.push_back({vs, cap, 0, false});
  Accum acc(shared_device());
  auto r = batched_topk<u32>(acc, segs);
  EXPECT_EQ(r.fallback, 1u);
  EXPECT_GT(r.launches, 1u);
  expect_segment_exact(segs[0], r.keys[0], "fallback");
}

TEST(Batched, U64KeysAndLaneArrayPacking) {
  std::vector<u64> v(20000);
  for (u64 i = 0; i < v.size(); ++i) v[i] = data::rand_u64(71, i);
  std::span<const u64> vs(v.data(), v.size());
  std::vector<BatchedSegment<u64>> segs;
  segs.push_back({vs, 333, 0, false});
  segs.push_back({vs.subspan(100, 4000), 64, 1, true});

  Accum acc(shared_device());
  auto r = batched_topk<u64>(acc, segs);
  for (size_t i = 0; i < segs.size(); ++i)
    expect_segment_exact(segs[i], r.keys[i], "u64");
}

// ---- Cross-run merge entry point (PR 7: the sharded server's reduction
// kernel) ----

TEST(BatchedMerge, ExactOverPreSortedRunsInOneLaunch) {
  const u64 n = 4096;
  auto v = data::generate(n, Distribution::kUniform, 201);
  std::span<const u32> vs(v.data(), v.size());
  // 4 "shards": each run is its slice's exact local top-k, descending.
  std::vector<std::vector<u32>> runs;
  const u64 k = 128;
  for (u64 s = 0; s < 4; ++s)
    runs.push_back(reference_topk(vs.subspan(s * (n / 4), n / 4), k));

  std::vector<MergeSegment<u32>> segs(3);
  for (auto& run : runs) segs[0].runs.emplace_back(run);
  segs[0].k = k;
  // Same runs, selection-only, smaller k.
  for (auto& run : runs) segs[1].runs.emplace_back(run);
  segs[1].k = 17;
  segs[1].selection_only = true;
  // Ragged: one empty run, k beyond the available total.
  segs[2].runs.emplace_back(runs[0]);
  segs[2].runs.emplace_back(std::span<const u32>{});
  segs[2].k = 10 * k;

  Accum acc(shared_device());
  auto r = batched_merge_topk<u32>(acc, segs);
  ASSERT_EQ(r.launches, 1u);  // every segment rode ONE merge_select launch
  EXPECT_EQ(r.single_cta, 3u);
  EXPECT_EQ(r.fallback, 0u);

  // Any global winner is in its shard's local top-k, so merging the local
  // lists reproduces the global answer exactly.
  EXPECT_EQ(r.keys[0], reference_topk(vs, k));
  ASSERT_EQ(r.keys[1].size(), 1u);
  EXPECT_EQ(r.keys[1][0], reference_topk(vs, 17).back());
  EXPECT_EQ(r.keys[2], runs[0]);  // k clamps to the one non-empty run
  EXPECT_GT(acc.sim_ms(), 0.0);
}

TEST(BatchedMerge, EmptySegmentsYieldEmptyResultsWithoutLaunching) {
  std::vector<MergeSegment<u32>> segs(2);
  segs[0].k = 5;  // no runs at all
  segs[1].runs.emplace_back(std::span<const u32>{});
  segs[1].k = 5;
  Accum acc(shared_device());
  auto r = batched_merge_topk<u32>(acc, segs);
  EXPECT_EQ(r.launches, 0u);
  EXPECT_TRUE(r.keys[0].empty());
  EXPECT_TRUE(r.keys[1].empty());
}

TEST(BatchedMerge, OversizedMergeSetFallsBackToRadix) {
  // Merge set larger than one SM's shared memory: the engine concatenates
  // the runs (charged copy) and runs the flag-radix engine instead.
  const vgpu::GpuProfile& p = shared_device().profile();
  const u64 cap = batched_single_cap<u32>(p);
  const u64 run_len = cap / 2;
  auto v = data::generate(4 * run_len, Distribution::kNormal, 202);
  std::span<const u32> vs(v.data(), v.size());
  std::vector<std::vector<u32>> runs;
  for (u64 s = 0; s < 4; ++s) {
    runs.emplace_back(vs.begin() + static_cast<i64>(s * run_len),
                      vs.begin() + static_cast<i64>((s + 1) * run_len));
    std::sort(runs.back().begin(), runs.back().end(), std::greater<>());
  }
  std::vector<MergeSegment<u32>> segs(1);
  for (auto& run : runs) segs[0].runs.emplace_back(run);
  segs[0].k = 333;

  Accum acc(shared_device());
  auto r = batched_merge_topk<u32>(acc, segs);
  EXPECT_EQ(r.fallback, 1u);
  EXPECT_GE(r.launches, 2u);  // concat + at least one radix launch
  EXPECT_EQ(r.keys[0], reference_topk(vs, 333));
}

TEST(BatchedMerge, MergeNetworkChargeBeatsFullResort) {
  // The P-way merge-network recharge: merging pre-sorted runs must cost
  // measurably fewer shared-memory accesses than re-sorting the same set
  // from scratch (which is what a BatchedSegment over the concatenation
  // would charge).
  const u64 m = 1 << 12;
  auto v = data::generate(m, Distribution::kUniform, 203);
  std::span<const u32> vs(v.data(), v.size());
  std::vector<std::vector<u32>> runs;
  for (u64 s = 0; s < 4; ++s) {
    runs.emplace_back(vs.begin() + static_cast<i64>(s * (m / 4)),
                      vs.begin() + static_cast<i64>((s + 1) * (m / 4)));
    std::sort(runs.back().begin(), runs.back().end(), std::greater<>());
  }
  std::vector<u32> flat(vs.begin(), vs.end());
  std::sort(flat.begin(), flat.end(), std::greater<>());
  // flat is one sorted buffer — present it as 4 runs to the merge engine
  // vs one un-merged segment to the sort engine, same element count.
  std::vector<MergeSegment<u32>> ms(1);
  for (u64 s = 0; s < 4; ++s)
    ms[0].runs.emplace_back(
        std::span<const u32>(runs[s].data(), runs[s].size()));
  ms[0].k = 64;
  Accum merge_acc(shared_device());
  auto mr = batched_merge_topk<u32>(merge_acc, ms);

  std::vector<BatchedSegment<u32>> ss(1);
  ss[0].data = std::span<const u32>(flat.data(), flat.size());
  ss[0].k = 64;
  Accum sort_acc(shared_device());
  auto sr = batched_topk<u32>(sort_acc, ss);

  EXPECT_EQ(mr.keys[0], sr.keys[0]);
  EXPECT_LT(merge_acc.stats().shared_loads + merge_acc.stats().shared_stores,
            sort_acc.stats().shared_loads + sort_acc.stats().shared_stores);
}

}  // namespace
}  // namespace drtopk::topk
