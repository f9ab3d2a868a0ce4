// Property tests for delegate-vector construction (core/delegate.hpp):
// the delegates of every subrange are exactly its top-beta multiset, pads
// are well-formed, the shared-memory and warp paths agree, the warp path
// writes its delegates coalesced, and the k-selection API matches the full
// pipeline.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/dr_topk.hpp"
#include "data/distributions.hpp"

namespace drtopk::core {
namespace {

using topk::reference_topk;

vgpu::Device& shared_device() {
  static vgpu::Device dev(vgpu::GpuProfile::v100s());
  return dev;
}

/// Brute-force delegates: top-`beta` of each subrange, descending.
template <class K>
std::vector<K> expected_delegates(std::span<const K> v, u64 s, int alpha,
                                  u32 beta) {
  const u64 len = u64{1} << alpha;
  const u64 begin = s * len;
  const u64 real = std::min(len, v.size() - begin);
  return reference_topk(v.subspan(begin, real), std::min<u64>(beta, real));
}

/// Test keys of width K: the u32 values of `v` for u32, and for u64 the
/// same values in the high word over a hashed low word, so the order and
/// duplicates of the high word carry over and ties break arbitrarily.
template <class K>
std::vector<K> widen(std::span<const u32> v, u64 seed) {
  std::vector<K> out(v.size());
  for (u64 i = 0; i < v.size(); ++i) {
    if constexpr (sizeof(K) == 4)
      out[i] = v[i];
    else
      out[i] = (u64{v[i]} << 32) | (data::rand_u64(seed, i) >> 32);
  }
  return out;
}

struct ConstructCase {
  u64 n;
  int alpha;
  u32 beta;
  bool optimized;
  u32 key_bytes = 4;
};

template <class K>
void expect_exact_delegates(const ConstructCase& c) {
  for (auto d : {data::Distribution::kUniform, data::Distribution::kNormal}) {
    auto v32 = data::generate(c.n, d, c.n + c.alpha);
    const std::vector<K> v =
        widen<K>(std::span<const u32>(v32.data(), v32.size()), c.n);
    std::span<const K> vs(v.data(), v.size());
    topk::Accum acc(shared_device());
    ConstructOpts opts;
    opts.optimized = c.optimized;
    vgpu::Workspace ws;
    auto dv = build_delegate_vector<K>(acc, vs, c.alpha, c.beta, opts, ws);

    ASSERT_EQ(dv.size(), dv.num_subranges * c.beta);
    for (u64 s = 0; s < dv.num_subranges; ++s) {
      auto expect = expected_delegates<K>(vs, s, c.alpha, c.beta);
      for (u64 j = 0; j < c.beta; ++j) {
        const u64 slot = s * c.beta + j;
        if (j < expect.size()) {
          ASSERT_EQ(dv.keys[slot], expect[j])
              << "subrange " << s << " slot " << j;
          ASSERT_EQ(dv.sids[slot], static_cast<u32>(s));
        } else {
          // Padded slot (short tail subrange).
          ASSERT_EQ(dv.keys[slot], K{});
          ASSERT_EQ(dv.sids[slot], kInvalidSid);
        }
      }
    }
  }
}

class DelegateConstruction
    : public ::testing::TestWithParam<ConstructCase> {};

TEST_P(DelegateConstruction, DelegatesAreExactSubrangeTopBeta) {
  const auto& c = GetParam();
  if (c.key_bytes == 8)
    expect_exact_delegates<u64>(c);
  else
    expect_exact_delegates<u32>(c);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DelegateConstruction,
    ::testing::Values(ConstructCase{1 << 12, 3, 1, true},   // shared path
                      ConstructCase{1 << 12, 3, 1, false},  // warp path
                      ConstructCase{1 << 12, 5, 2, true},
                      ConstructCase{1 << 12, 5, 4, true},
                      ConstructCase{1 << 14, 8, 2, true},   // warp (alpha>5)
                      ConstructCase{1 << 14, 8, 4, false},
                      ConstructCase{(1 << 12) + 5, 4, 2, true},  // tail
                      ConstructCase{(1 << 12) + 1, 4, 4, false},
                      ConstructCase{100, 2, 4, true},  // beta == subrange len
                      ConstructCase{100, 1, 4, false},  // beta > subrange len
                      // Staged warp path: tiles over a ragged tail.
                      ConstructCase{(1 << 16) + 5, 6, 3, true},
                      ConstructCase{(1 << 16) + 5, 10, 3, true},
                      ConstructCase{(1 << 16) + 5, 6, 3, true, 8},
                      ConstructCase{(1 << 16) + 5, 10, 3, true, 8},
                      ConstructCase{(1 << 16) + 5, 10, 3, false, 8}));

TEST(DelegateConstruction, SharedAndWarpPathsProduceIdenticalVectors) {
  const u64 n = (1 << 15) + 13;
  auto v = data::generate(n, data::Distribution::kCustomized, 9);
  std::span<const u32> vs(v.data(), v.size());
  vgpu::Workspace ws;
  for (int alpha : {2, 4, 5}) {
    for (u32 beta : {1u, 2u, 3u}) {
      vgpu::Workspace::Scope scope(ws);  // both vectors rewound per config
      topk::Accum a1(shared_device()), a2(shared_device());
      ConstructOpts shared_opts, warp_opts;
      warp_opts.optimized = false;
      auto dvs = build_delegate_vector<u32>(a1, vs, alpha, beta, shared_opts,
                                            ws);
      auto dvw = build_delegate_vector<u32>(a2, vs, alpha, beta, warp_opts,
                                            ws);
      EXPECT_TRUE(std::equal(dvs.keys.begin(), dvs.keys.end(),
                             dvw.keys.begin(), dvw.keys.end()))
          << "alpha=" << alpha << " beta=" << beta;
      EXPECT_TRUE(std::equal(dvs.sids.begin(), dvs.sids.end(),
                             dvw.sids.begin(), dvw.sids.end()));
    }
  }
}

/// Checks the construct launch's store transactions for keys of type K:
/// staged, about one sector per 32 bytes of delegates; unoptimized, one
/// single-lane store per key slot and per sid slot.
template <class K>
void expect_warp_path_store_txns(std::span<const u32> v32) {
  const std::vector<K> v = widen<K>(v32, 3);
  std::span<const K> vs(v.data(), v.size());
  vgpu::Workspace ws;
  for (int alpha : {6, 8, 10}) {
    for (u32 beta : {1u, 2u, 3u, 4u}) {
      for (bool emit_sids : {false, true}) {
        for (bool optimized : {true, false}) {
          vgpu::Workspace::Scope scope(ws);
          topk::Accum acc(shared_device());
          ConstructOpts opts;
          opts.optimized = optimized;
          opts.emit_sids = emit_sids;
          auto dv = build_delegate_vector<K>(acc, vs, alpha, beta, opts, ws);
          const u64 slots = dv.size();
          const u64 txns = acc.stats().global_store_txns;
          const std::string at =
              "K=u" + std::to_string(8 * sizeof(K)) +
              " alpha=" + std::to_string(alpha) +
              " beta=" + std::to_string(beta) +
              " sids=" + std::to_string(emit_sids) +
              " optimized=" + std::to_string(optimized);
          ASSERT_EQ(acc.stats().kernels_launched, 1u) << at;
          if (optimized) {
            const u64 bytes = slots * (sizeof(K) + (emit_sids ? 4 : 0));
            const u64 sectors = (bytes + vgpu::kSectorBytes - 1) /
                                vgpu::kSectorBytes;
            EXPECT_LE(static_cast<double>(txns),
                      1.25 * static_cast<double>(sectors) + 8)
                << at;
          } else {
            EXPECT_EQ(txns, slots * (emit_sids ? 2 : 1)) << at;
          }
        }
      }
    }
  }
}

TEST(DelegateConstruction, WarpPathStoresAreCoalesced) {
  // A single-lane store costs a whole sector plus a write-allocate fill;
  // the staged tiles must write the delegate vector at about its bytes.
  const u64 n = (1 << 16) + 5;
  auto v = data::generate(n, data::Distribution::kUniform, 21);
  std::span<const u32> vs(v.data(), v.size());
  expect_warp_path_store_txns<u32>(vs);
  expect_warp_path_store_txns<u64>(vs);
}

TEST(DelegateConstruction, SubrangeLenGeometry) {
  DelegateVector<u32> dv;
  dv.alpha = 4;
  dv.num_subranges = 5;
  const u64 n = 4 * 16 + 7;  // last subrange short
  EXPECT_EQ(dv.subrange_len(0, n), 16u);
  EXPECT_EQ(dv.subrange_len(3, n), 16u);
  EXPECT_EQ(dv.subrange_len(4, n), 7u);
}

// ---- k-selection API ----

class KSelectionTest : public ::testing::TestWithParam<u64> {};

TEST_P(KSelectionTest, MatchesNthElement) {
  const u64 n = 1 << 15;
  for (auto d : {data::Distribution::kUniform, data::Distribution::kNormal,
                 data::Distribution::kCustomized}) {
    auto v = data::generate(n, d, GetParam());
    std::span<const u32> vs(v.data(), v.size());
    const u64 k = GetParam();
    const u32 got = dr_kth_keys<u32>(shared_device(), vs, k);
    EXPECT_EQ(got, reference_topk(vs, k).back()) << data::to_string(d);
  }
}

INSTANTIATE_TEST_SUITE_P(Ks, KSelectionTest,
                         ::testing::Values(1, 2, 100, 1 << 10, 1 << 13));

TEST(KSelection, CheaperThanFullTopk) {
  const u64 n = 1 << 20;
  const u64 k = 1 << 12;
  auto v = data::generate(n, data::Distribution::kUniform, 10);
  std::span<const u32> vs(v.data(), v.size());
  StageBreakdown sel, full;
  (void)dr_kth_keys<u32>(shared_device(), vs, k, DrTopkConfig{}, &sel);
  (void)dr_topk_keys<u32>(shared_device(), vs, k, DrTopkConfig{}, &full);
  // The selection-only second stage skips the collection pass.
  EXPECT_LE(sel.second_ms, full.second_ms);
  EXPECT_LT(sel.second_stats.global_store_elems,
            full.second_stats.global_store_elems + 1);
}

// ---- Hierarchical reduction option for the second top-k threshold ----

TEST(KappaHook, PipelineUsesHookedThreshold) {
  const u64 n = 1 << 14;
  auto v = data::generate(n, data::Distribution::kUniform, 11);
  std::span<const u32> vs(v.data(), v.size());
  u64 seen_kappa = 0;
  DrTopkConfig cfg;
  cfg.beta = 1;
  cfg.kappa_hook = [&](u64 kappa) {
    seen_kappa = kappa;
    return kappa;  // identity: result must stay exact
  };
  auto r = dr_topk_keys<u32>(shared_device(), vs, 64, cfg);
  EXPECT_GT(seen_kappa, 0u);
  EXPECT_EQ(r.keys, reference_topk(vs, 64));
}

TEST(KappaHook, SharperThresholdShrinksCandidates) {
  const u64 n = 1 << 16;
  const u64 k = 256;
  auto v = data::generate(n, data::Distribution::kUniform, 12);
  std::span<const u32> vs(v.data(), v.size());
  const u32 true_kth = reference_topk(vs, k).back();

  DrTopkConfig plain;
  plain.beta = 1;
  StageBreakdown b0;
  (void)dr_topk_keys<u32>(shared_device(), vs, k, plain, &b0);

  DrTopkConfig sharp = plain;
  // A hook that knows the exact answer (the best any exchange could do).
  sharp.kappa_hook = [true_kth](u64 kappa) {
    return std::max<u64>(kappa, true_kth);
  };
  StageBreakdown b1;
  auto r = dr_topk_keys<u32>(shared_device(), vs, k, sharp, &b1);
  EXPECT_EQ(r.keys, reference_topk(vs, k));
  EXPECT_LE(b1.concat_len, b0.concat_len);
}

}  // namespace
}  // namespace drtopk::core
