// Tests for the Dr. Top-k pipeline: the paper's worked examples (Figures 5
// and 8), the three delegate rules, exhaustive correctness sweeps over every
// configuration knob, and the instrumentation invariants that the cost
// analysis (Equations 2-5) relies on.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/concat_batched.hpp"
#include "core/dr_topk.hpp"
#include "data/distributions.hpp"

namespace drtopk::core {
namespace {

using data::Distribution;
using topk::reference_topk;

vgpu::Device& shared_device() {
  static vgpu::Device dev(vgpu::GpuProfile::v100s());
  return dev;
}

/// The 16-element input vector of Figures 1/2/5/8, split into four
/// subranges of four elements.
std::vector<u32> figure_vector() {
  return {2001, 101,  1323, 3012,   // subrange 0 (max 3012)
          2121, 1322, 2313, 1023,   // subrange 1 (max 2313)
          3000, 3010, 1002, 3210,   // subrange 2 (max 3210)
          1020, 333,  2321, 2003};  // subrange 3 (max 2321)
}

DrTopkConfig exact_cfg() {
  DrTopkConfig cfg;
  cfg.alpha = 2;  // subranges of 4, as in the figures
  cfg.skip_last_first_iter = false;
  return cfg;
}

TEST(PaperExamples, Figure5MaximumDelegateTop2) {
  auto v = figure_vector();
  std::span<const u32> vs(v.data(), v.size());
  DrTopkConfig cfg = exact_cfg();
  cfg.beta = 1;
  cfg.fused_concat = false;  // the paper's inclusive >= kappa walkthrough
  StageBreakdown bd;
  auto r = dr_topk_keys<u32>(shared_device(), vs, 2, cfg, &bd);
  EXPECT_EQ(r.keys, (std::vector<u32>{3210, 3012}));
  EXPECT_EQ(bd.num_subranges, 4u);
  EXPECT_EQ(bd.delegate_len, 4u);  // one delegate per subrange
  // Subranges 0 and 2 qualify (their maxima are the top-2 delegates).
  EXPECT_EQ(bd.qualified_subranges, 2u);
  // Rule 2 filtering: only {3012, 3210} survive into the concatenated
  // vector (Section 4.2's walkthrough of this exact example).
  EXPECT_EQ(bd.concat_len, 2u);
}

TEST(PaperExamples, Figure5TieAwareStreamsOneSubrangeAndPadsWithKappa) {
  // The default pipeline on the same example: kappa = 3012, and only keys
  // strictly above it are candidates. Subrange 2 (delegate 3210) streams
  // and keeps {3210}; subrange 0's delegate equals kappa, so it is not
  // taken. One candidate for k = 2: the answer is it padded with kappa,
  // with no second top-k.
  auto v = figure_vector();
  std::span<const u32> vs(v.data(), v.size());
  DrTopkConfig cfg = exact_cfg();
  cfg.beta = 1;
  StageBreakdown bd;
  auto r = dr_topk_keys<u32>(shared_device(), vs, 2, cfg, &bd);
  EXPECT_EQ(r.keys, (std::vector<u32>{3210, 3012}));
  EXPECT_EQ(bd.qualified_subranges, 1u);
  EXPECT_EQ(bd.taken_delegates, 1u);
  EXPECT_EQ(bd.concat_len, 1u);
  EXPECT_TRUE(bd.second_skipped);
  EXPECT_EQ(bd.second_stats.kernels_launched, 0u);
}

TEST(PaperExamples, Figure5WithoutFilteringConcatenatesWholeSubranges) {
  auto v = figure_vector();
  std::span<const u32> vs(v.data(), v.size());
  DrTopkConfig cfg = exact_cfg();
  cfg.beta = 1;
  cfg.filtering = false;
  StageBreakdown bd;
  auto r = dr_topk_keys<u32>(shared_device(), vs, 2, cfg, &bd);
  EXPECT_EQ(r.keys, (std::vector<u32>{3210, 3012}));
  // Both qualified subranges are copied in full: 8 elements.
  EXPECT_EQ(bd.concat_len, 8u);
}

TEST(PaperExamples, Figure8aBetaDelegateTop3) {
  auto v = figure_vector();
  std::span<const u32> vs(v.data(), v.size());
  DrTopkConfig cfg = exact_cfg();
  cfg.beta = 2;
  cfg.fused_concat = false;  // the paper's inclusive >= kappa walkthrough
  StageBreakdown bd;
  auto r = dr_topk_keys<u32>(shared_device(), vs, 3, cfg, &bd);
  EXPECT_EQ(r.keys, (std::vector<u32>{3210, 3012, 3010}));
  // Subrange 2 is fully taken (both 3210 and 3010 are top-3 delegates);
  // subrange 0 contributes only its taken delegate 3012. The concatenated
  // vector is {3012, 3010, 3210} — exactly Figure 8(a).
  EXPECT_EQ(bd.qualified_subranges, 1u);
  EXPECT_EQ(bd.concat_len, 3u);
  EXPECT_FALSE(bd.second_skipped);
}

TEST(PaperExamples, Figure8bBetaDelegateTop2SkipsSecondTopk) {
  auto v = figure_vector();
  std::span<const u32> vs(v.data(), v.size());
  DrTopkConfig cfg = exact_cfg();
  cfg.beta = 2;
  StageBreakdown bd;
  auto r = dr_topk_keys<u32>(shared_device(), vs, 2, cfg, &bd);
  EXPECT_EQ(r.keys, (std::vector<u32>{3210, 3012}));
  // No subrange has all beta delegates taken: Rule 3 answers from the
  // delegates alone — "neither concatenation nor second top-k is needed".
  EXPECT_EQ(bd.qualified_subranges, 0u);
  EXPECT_TRUE(bd.second_skipped);
  EXPECT_EQ(bd.second_ms, 0.0);
}

// ---- Configuration sweep: every knob combination stays exact ----

struct PipelineCase {
  Distribution dist;
  u64 n;
  u64 k;
  u32 beta;
  bool filtering;
  bool skip_last;
  bool optimized;
};

std::string pipeline_name(const ::testing::TestParamInfo<PipelineCase>& i) {
  const auto& c = i.param;
  return data::to_string(c.dist) + "_n" + std::to_string(c.n) + "_k" +
         std::to_string(c.k) + "_b" + std::to_string(c.beta) +
         (c.filtering ? "_filt" : "_nofilt") + (c.skip_last ? "_skip" : "") +
         (c.optimized ? "_opt" : "");
}

class PipelineTest : public ::testing::TestWithParam<PipelineCase> {};

TEST_P(PipelineTest, ExactMultiset) {
  const auto& c = GetParam();
  auto v = data::generate(c.n, c.dist, c.n * 7 + c.k * 3 + c.beta);
  std::span<const u32> vs(v.data(), v.size());
  DrTopkConfig cfg;
  cfg.beta = c.beta;
  cfg.filtering = c.filtering;
  cfg.skip_last_first_iter = c.skip_last;
  cfg.construct.optimized = c.optimized;
  StageBreakdown bd;
  auto r = dr_topk_keys<u32>(shared_device(), vs, c.k, cfg, &bd);
  EXPECT_EQ(r.keys, reference_topk(vs, c.k));
  EXPECT_EQ(r.kth, r.keys.back());
}

std::vector<PipelineCase> pipeline_cases() {
  std::vector<PipelineCase> cases;
  for (Distribution d : {Distribution::kUniform, Distribution::kNormal,
                         Distribution::kCustomized}) {
    for (u64 n : {u64{4000}, u64{1} << 16}) {
      for (u64 k : {u64{1}, u64{16}, u64{333}, u64{4096}}) {
        if (k * 2 > n) continue;
        for (u32 beta : {1u, 2u, 3u, 4u}) {
          cases.push_back({d, n, k, beta, true, true, true});
        }
        cases.push_back({d, n, k, 2, false, false, true});
        cases.push_back({d, n, k, 1, false, false, false});
        cases.push_back({d, n, k, 2, true, false, false});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, PipelineTest,
                         ::testing::ValuesIn(pipeline_cases()),
                         pipeline_name);

// ---- Explicit alpha sweep (small and large subranges, both paths) ----

class AlphaSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(AlphaSweepTest, ExactForEveryAlpha) {
  const u64 n = 1 << 15;
  const u64 k = 100;
  auto v = data::generate(n, Distribution::kUniform, 77);
  std::span<const u32> vs(v.data(), v.size());
  for (u32 beta : {1u, 2u}) {
    DrTopkConfig cfg;
    cfg.alpha = GetParam();
    cfg.beta = beta;
    StageBreakdown bd;
    auto r = dr_topk_keys<u32>(shared_device(), vs, k, cfg, &bd);
    EXPECT_EQ(r.keys, reference_topk(vs, k)) << "alpha=" << GetParam()
                                             << " beta=" << beta;
    EXPECT_EQ(bd.alpha, GetParam());
  }
}

INSTANTIATE_TEST_SUITE_P(Alphas, AlphaSweepTest, ::testing::Range(1, 9));

// ---- Different first/second algorithms (Dr. Top-k assists them all) ----

class AssistedAlgoTest : public ::testing::TestWithParam<topk::Algo> {};

TEST_P(AssistedAlgoTest, SecondAlgoVariants) {
  const u64 n = 1 << 15;
  auto v = data::generate(n, Distribution::kUniform, 5);
  std::span<const u32> vs(v.data(), v.size());
  DrTopkConfig cfg;
  cfg.second_algo = GetParam();
  auto r = dr_topk_keys<u32>(shared_device(), vs, 257, cfg);
  EXPECT_EQ(r.keys, reference_topk(vs, 257));
}

TEST_P(AssistedAlgoTest, FirstAlgoVariants) {
  const u64 n = 1 << 15;
  auto v = data::generate(n, Distribution::kNormal, 5);
  std::span<const u32> vs(v.data(), v.size());
  DrTopkConfig cfg;
  cfg.first_algo = GetParam();
  auto r = dr_topk_keys<u32>(shared_device(), vs, 64, cfg);
  EXPECT_EQ(r.keys, reference_topk(vs, 64));
}

INSTANTIATE_TEST_SUITE_P(
    Algos, AssistedAlgoTest,
    ::testing::Values(topk::Algo::kRadixFlag, topk::Algo::kBucketInplace,
                      topk::Algo::kBitonic, topk::Algo::kRadixGgksOop),
    [](const auto& info) {
      std::string s = topk::to_string(info.param);
      for (auto& ch : s)
        if (ch == '-') ch = '_';
      return s;
    });

// ---- Fallback and degenerate regimes ----

TEST(Fallback, KCloseToNRunsDirect) {
  auto v = data::generate(1024, Distribution::kUniform, 1);
  std::span<const u32> vs(v.data(), v.size());
  StageBreakdown bd;
  auto r = dr_topk_keys<u32>(shared_device(), vs, 900, DrTopkConfig{}, &bd);
  EXPECT_TRUE(bd.fallback_direct);
  EXPECT_EQ(r.keys, reference_topk(vs, 900));
}

TEST(Fallback, KEqualsHalfNStillWorks) {
  auto v = data::generate(4096, Distribution::kNormal, 2);
  std::span<const u32> vs(v.data(), v.size());
  auto r = dr_topk_keys<u32>(shared_device(), vs, 2048, DrTopkConfig{});
  EXPECT_EQ(r.keys, reference_topk(vs, 2048));
}

TEST(Degenerate, NonPowerOfTwoLengthWithShortTail) {
  // Last subrange shorter than beta: exercises delegate padding.
  const u64 n = (1 << 12) + 1;
  auto v = data::generate(n, Distribution::kUniform, 3);
  std::span<const u32> vs(v.data(), v.size());
  DrTopkConfig cfg;
  cfg.alpha = 4;
  cfg.beta = 4;
  auto r = dr_topk_keys<u32>(shared_device(), vs, 55, cfg);
  EXPECT_EQ(r.keys, reference_topk(vs, 55));
}

TEST(Degenerate, AllElementsEqual) {
  std::vector<u32> v(1 << 14, 42u);
  std::span<const u32> vs(v.data(), v.size());
  auto r = dr_topk_keys<u32>(shared_device(), vs, 100, DrTopkConfig{});
  EXPECT_EQ(r.keys, std::vector<u32>(100, 42u));
}

TEST(Degenerate, TopElementsAllInOneSubrange) {
  // Rule 1 stress: the entire top-k lives in a single subrange.
  auto v = data::generate(1 << 14, Distribution::kUniform, 4);
  for (u64 i = 0; i < 64; ++i) v[512 + i] = 0xFFFF0000u + static_cast<u32>(i);
  std::span<const u32> vs(v.data(), v.size());
  DrTopkConfig cfg;
  cfg.alpha = 6;
  for (u32 beta : {1u, 2u}) {
    cfg.beta = beta;
    auto r = dr_topk_keys<u32>(shared_device(), vs, 64, cfg);
    EXPECT_EQ(r.keys, reference_topk(vs, 64));
  }
}

// ---- Stats invariants (the quantities Equations 2-5 count) ----

TEST(StatsInvariants, ConstructionLoadsInputExactlyOnce) {
  const u64 n = 1 << 16;
  auto v = data::generate(n, Distribution::kUniform, 5);
  std::span<const u32> vs(v.data(), v.size());
  for (bool optimized : {false, true}) {
    for (int alpha : {4, 8}) {
      topk::Accum acc(shared_device());
      ConstructOpts opts;
      opts.optimized = optimized;
      auto dv = build_delegate_vector<u32>(acc, vs, alpha, 1, opts);
      EXPECT_EQ(acc.stats().global_load_elems, n)
          << "alpha=" << alpha << " optimized=" << optimized;
      // Equation 2: |V|/2^alpha delegates written (keys + sids).
      EXPECT_EQ(acc.stats().global_store_elems, 2 * dv.num_subranges);
    }
  }
}

TEST(StatsInvariants, ConstructionIsReadBoundAtEveryAlpha) {
  // Construction reads |V| once and writes |D| keys (the pipeline skips the
  // sids); with coalesced delegate stores it costs one launch plus those
  // bytes at DRAM bandwidth, on the warp path as on the shared path.
  const u64 n = 1 << 20;
  const u32 beta = 2;
  auto v = data::generate(n, Distribution::kUniform, 13);
  std::span<const u32> vs(v.data(), v.size());
  const double bw_bytes_per_ms =
      shared_device().profile().mem_bw_gbps * 1e9 / 1e3;
  for (int alpha = 6; alpha <= 12; ++alpha) {
    topk::Accum acc(shared_device());
    ConstructOpts opts;
    opts.emit_sids = false;
    auto dv = build_delegate_vector<u32>(acc, vs, alpha, beta, opts);
    const double bytes = static_cast<double>(n * 4 + dv.size() * 4);
    EXPECT_LE(acc.sim_ms(), vgpu::CostModel::kKernelLaunchMs +
                                1.03 * bytes / bw_bytes_per_ms)
        << "alpha=" << alpha;
  }
}

TEST(StatsInvariants, WarpPathUsesShufflesSharedPathDoesNot) {
  const u64 n = 1 << 16;
  auto v = data::generate(n, Distribution::kUniform, 5);
  std::span<const u32> vs(v.data(), v.size());

  topk::Accum warp_acc(shared_device());
  ConstructOpts warp_opts;
  warp_opts.optimized = false;
  (void)build_delegate_vector<u32>(warp_acc, vs, 4, 1, warp_opts);
  // One 31-shuffle reduction per subrange (Equation 2's comm term).
  EXPECT_GE(warp_acc.stats().shfl_ops, 31 * (n >> 4));

  topk::Accum sh_acc(shared_device());
  ConstructOpts sh_opts;  // optimized: coalesced-to-shared, strided compute
  (void)build_delegate_vector<u32>(sh_acc, vs, 4, 1, sh_opts);
  EXPECT_EQ(sh_acc.stats().shfl_ops, 0u);
  EXPECT_GT(sh_acc.stats().shared_loads, 0u);
}

TEST(StatsInvariants, SharedPaddingRemovesBankConflicts) {
  const u64 n = 1 << 16;
  auto v = data::generate(n, Distribution::kUniform, 6);
  std::span<const u32> vs(v.data(), v.size());

  topk::Accum padded(shared_device());
  ConstructOpts o1;
  (void)build_delegate_vector<u32>(padded, vs, 4, 2, o1);

  topk::Accum unpadded(shared_device());
  ConstructOpts o2;
  o2.shared_padding = false;
  (void)build_delegate_vector<u32>(unpadded, vs, 4, 2, o2);

  // Section 5.3: "we use padding to avoid shared memory bank conflict".
  EXPECT_LT(padded.stats().shared_bank_conflicts,
            unpadded.stats().shared_bank_conflicts / 4);
}

TEST(StatsInvariants, BetaMultipliesDelegateVector) {
  const u64 n = 1 << 14;
  auto v = data::generate(n, Distribution::kUniform, 7);
  std::span<const u32> vs(v.data(), v.size());
  for (u32 beta : {1u, 2u, 4u}) {
    topk::Accum acc(shared_device());
    auto dv = build_delegate_vector<u32>(acc, vs, 6, beta);
    EXPECT_EQ(dv.size(), (n >> 6) * beta);
  }
}

TEST(StatsInvariants, FilteringShrinksConcatWorkload) {
  const u64 n = 1 << 18;
  const u64 k = 1 << 10;
  auto v = data::generate(n, Distribution::kUniform, 8);
  std::span<const u32> vs(v.data(), v.size());
  DrTopkConfig with, without;
  with.beta = without.beta = 1;
  without.filtering = false;
  StageBreakdown bw, bwo;
  (void)dr_topk_keys<u32>(shared_device(), vs, k, with, &bw);
  (void)dr_topk_keys<u32>(shared_device(), vs, k, without, &bwo);
  // Figure 7 vs Figure 6: filtering cuts the second top-k's input hard.
  EXPECT_LT(bw.concat_len, bwo.concat_len / 4);
  EXPECT_LT(bw.second_ms, bwo.second_ms);
}

TEST(StatsInvariants, WorkloadRatioShrinksWithN) {
  // Figure 20: (|D| + |concat|) / |V| drops as |V| grows, k fixed.
  const u64 k = 1 << 8;
  double prev_ratio = 2.0;
  for (u64 logn : {14u, 16u, 18u}) {
    const u64 n = u64{1} << logn;
    auto v = data::generate(n, Distribution::kUniform, 9);
    std::span<const u32> vs(v.data(), v.size());
    StageBreakdown bd;
    (void)dr_topk_keys<u32>(shared_device(), vs, k, DrTopkConfig{}, &bd);
    const double ratio =
        static_cast<double>(bd.delegate_len + bd.concat_len) /
        static_cast<double>(n);
    EXPECT_LT(ratio, prev_ratio);
    prev_ratio = ratio;
  }
}

// ---- Stage 3 by its definition ----

/// Stage 3 by its definition, on the host, for one threshold: the reference
/// the pipeline and the one-pass kernel must reproduce field by field.
template <class K>
struct Stage3Oracle {
  u64 qualified = 0, taken_total = 0;
  std::vector<K> cand;  ///< sorted candidate multiset
};

/// Per subrange, counts the real delegates above kappa: >= kappa (the
/// paper's inclusive rule) or, with `strict` (the tie-aware rule), >
/// kappa. A subrange whose real delegates are all taken qualifies (under
/// rule2) and contributes its elements above kappa, or all of them without
/// filtering; any other taken subrange contributes its taken delegates.
template <class K>
Stage3Oracle<K> stage3_oracle(std::span<const K> v, std::span<const K> dkeys,
                              u64 S, u32 beta, int alpha, K kappa,
                              bool filter, bool rule2, bool strict = false) {
  const auto above = [&](K x) { return strict ? x > kappa : x >= kappa; };
  const u64 len = u64{1} << alpha;
  Stage3Oracle<K> o;
  for (u64 s = 0; s < S; ++s) {
    const u64 begin = s * len;
    const u64 slen = std::min(len, v.size() - begin);
    const auto real = dkeys.subspan(s * beta, std::min<u64>(beta, slen));
    u64 t = 0;
    for (const K d : real) t += above(d);
    o.taken_total += t;
    if (t == 0) continue;
    if (rule2 && t == real.size()) {
      ++o.qualified;
      for (const K x : v.subspan(begin, slen))
        if (!filter || above(x)) o.cand.push_back(x);
    } else {
      for (const K d : real)
        if (above(d)) o.cand.push_back(d);
    }
  }
  std::sort(o.cand.begin(), o.cand.end());
  return o;
}

/// A delegate vector with a host copy of its keys.
template <class K>
struct BuiltDelegates {
  DelegateVector<K> dv;
  std::vector<K> keys;
};

/// Builds the delegate vector `cfg` resolves for (|v|, k).
template <class K>
BuiltDelegates<K> build_for(std::span<const K> v, u64 k,
                            const DrTopkConfig& cfg) {
  const DelegateGeometry geo = resolve_geometry(v.size(), k, cfg);
  topk::Accum acc(shared_device());
  ConstructOpts copts = cfg.construct;
  copts.emit_sids = !cfg.fused_concat;
  BuiltDelegates<K> b;
  b.dv = build_delegate_vector<K>(acc, v, geo.alpha, geo.beta, copts);
  b.keys.assign(b.dv.keys.begin(), b.dv.keys.end());
  return b;
}

/// The oracle for the exact k-th delegate of `b` (what a first top-k
/// without the Section 4.3 relaxation resolves).
template <class K>
Stage3Oracle<K> oracle_for(std::span<const K> v, u64 k,
                           const BuiltDelegates<K>& b, bool filter,
                           bool rule2, bool strict) {
  std::span<const K> dkeys(b.keys.data(), b.keys.size());
  return stage3_oracle<K>(v, dkeys, b.dv.num_subranges, b.dv.beta,
                          b.dv.alpha, reference_topk(dkeys, k).back(),
                          filter, rule2, strict);
}

/// Checks one breakdown's stage-3 counts against the oracle.
template <class K>
void expect_stage3_fields(const StageBreakdown& bd, const Stage3Oracle<K>& o,
                          const std::string& at) {
  EXPECT_EQ(bd.qualified_subranges, o.qualified) << at;
  EXPECT_EQ(bd.taken_delegates, o.taken_total) << at;
  EXPECT_EQ(bd.concat_len, o.cand.size()) << at;
}

/// Runs stages 2-4 of `cfg` over `v` with an exact first top-k and checks
/// them against stage3_oracle: the qualified and taken counts, the
/// candidate count, the stage-4 skip rule, and the answer against
/// reference_topk (exact fidelity only). The candidate multiset is checked
/// on the stage-3 kernels themselves (expect_batched_matches_definition).
template <class K>
void expect_pipeline_matches_oracle(std::span<const K> v, u64 k,
                                    DrTopkConfig cfg, bool strict,
                                    const std::string& at) {
  cfg.skip_last_first_iter = false;  // kappa = the exact k-th delegate
  const auto expect_answer = [&](const std::vector<K>& keys) {
    if (!cfg.fidelity.exact()) return;
    std::vector<K> want = reference_topk(v, k);
    if (cfg.selection_only) want = {want.back()};
    EXPECT_EQ(keys, want) << at;
  };
  if (resolve_geometry(v.size(), k, cfg).alpha < 0) {
    expect_answer(dr_topk_keys<K>(shared_device(), v, k, cfg).keys);
    return;
  }
  const BuiltDelegates<K> b = build_for<K>(v, k, cfg);
  const auto o = oracle_for<K>(v, k, b, cfg.filtering, cfg.fidelity.exact(),
                               strict);
  StageBreakdown bd;
  auto r = dr_topk_from_delegates<K>(shared_device(), v, k, b.dv, cfg, &bd);
  expect_stage3_fields<K>(bd, o, at);
  if (strict) {
    EXPECT_EQ(bd.second_skipped, o.cand.size() <= k) << at;
    if (bd.second_skipped) {
      EXPECT_EQ(bd.second_stats.kernels_launched, 0u) << at;
    }
  }
  expect_answer(r.keys);
}

// ---- Fused single-pass stage 3 vs the legacy three-pass baseline ----

/// PR-1 baseline configuration: three-pass stage 3, multi-pass radix for
/// the small stages. Same kappa policy as `fused` so the classification
/// outcome is comparable field by field.
DrTopkConfig legacy_of(DrTopkConfig fused) {
  fused.fused_concat = false;
  fused.small_input_shared = false;
  return fused;
}

TEST(FusedConcat, BitIdenticalAndCheaperAcrossDistributions) {
  for (Distribution d : {Distribution::kUniform, Distribution::kNormal,
                         Distribution::kCustomized}) {
    const u64 n = 1 << 17;
    auto v = data::generate(n, d, 123);
    std::span<const u32> vs(v.data(), v.size());
    for (u64 k : {u64{16}, u64{1} << 10}) {
      for (u32 beta : {1u, 2u, 4u}) {
        DrTopkConfig fused;
        fused.beta = beta;
        // Exact kappa on both sides (no relaxation, no small-first) so the
        // classification fields must agree exactly, not just the answer.
        fused.skip_last_first_iter = false;
        fused.small_input_shared = false;
        DrTopkConfig legacy = legacy_of(fused);
        StageBreakdown bf, bl;
        auto rf = dr_topk_keys<u32>(shared_device(), vs, k, fused, &bf);
        auto rl = dr_topk_keys<u32>(shared_device(), vs, k, legacy, &bl);
        const std::string at = data::to_string(d) + " k=" +
                               std::to_string(k) + " beta=" +
                               std::to_string(beta);
        ASSERT_EQ(rf.keys, rl.keys) << at;
        EXPECT_EQ(rf.keys, reference_topk(vs, k));
        // The fused pass classifies tie-aware (> kappa), the legacy pass by
        // the paper's inclusive rule (>= kappa); each matches its oracle.
        expect_stage3_fields<u32>(
            bf,
            oracle_for<u32>(vs, k, build_for<u32>(vs, k, fused), true, true,
                            /*strict=*/true),
            at + " fused");
        expect_stage3_fields<u32>(
            bl,
            oracle_for<u32>(vs, k, build_for<u32>(vs, k, legacy), true, true,
                            /*strict=*/false),
            at + " legacy");
        // The fused pass must not cost more concatenation traffic.
        EXPECT_LE(bf.concat_stats.atomic_ops, bl.concat_stats.atomic_ops);
        EXPECT_LE(bf.concat_stats.global_load_txns,
                  bl.concat_stats.global_load_txns);
      }
    }
  }
}

TEST(FusedConcat, AtomicReductionAtLeast4xAtBeta2) {
  // The acceptance bar: stage-3 simulated atomics down >= 4x at beta = 2
  // (the default) against the PR-1 three-pass baseline.
  const u64 n = 1 << 18;
  const u64 k = 1 << 10;
  for (Distribution d : {Distribution::kUniform, Distribution::kNormal}) {
    auto v = data::generate(n, d, 321);
    std::span<const u32> vs(v.data(), v.size());
    DrTopkConfig fused;
    fused.beta = 2;
    DrTopkConfig legacy = legacy_of(fused);
    StageBreakdown bf, bl;
    auto rf = dr_topk_keys<u32>(shared_device(), vs, k, fused, &bf);
    auto rl = dr_topk_keys<u32>(shared_device(), vs, k, legacy, &bl);
    EXPECT_EQ(rf.keys, rl.keys);
    EXPECT_GE(bl.concat_stats.atomic_ops, 4 * bf.concat_stats.atomic_ops)
        << data::to_string(d);
  }
}

TEST(FusedConcat, ParityOnSelectionOnlyAndKappaHookPaths) {
  const u64 n = 1 << 16;
  for (Distribution d : {Distribution::kUniform, Distribution::kNormal}) {
    auto v = data::generate(n, d, 77);
    std::span<const u32> vs(v.data(), v.size());
    for (u64 k : {u64{5}, u64{300}}) {
      const u64 true_kth = reference_topk(vs, k).back();
      // Selection-only.
      DrTopkConfig fused;
      fused.beta = 2;
      fused.selection_only = true;
      auto legacy = legacy_of(fused);
      EXPECT_EQ(dr_topk_keys<u32>(shared_device(), vs, k, fused).kth,
                dr_topk_keys<u32>(shared_device(), vs, k, legacy).kth);
      // kappa_hook (sharpened threshold, must fire exactly once each).
      int calls_f = 0, calls_l = 0;
      DrTopkConfig hf;
      hf.beta = 2;
      hf.kappa_hook = [&](u64 kp) { ++calls_f; return std::max(kp, true_kth); };
      DrTopkConfig hl = legacy_of(hf);
      hl.kappa_hook = [&](u64 kp) { ++calls_l; return std::max(kp, true_kth); };
      auto rf = dr_topk_keys<u32>(shared_device(), vs, k, hf);
      auto rl = dr_topk_keys<u32>(shared_device(), vs, k, hl);
      EXPECT_EQ(rf.keys, rl.keys) << data::to_string(d) << " k=" << k;
      EXPECT_EQ(rf.keys, reference_topk(vs, k));
      EXPECT_EQ(calls_f, 1);
      EXPECT_EQ(calls_l, 1);
    }
  }
}

TEST(FusedConcat, RelaxationGuardAddsNoLaunches) {
  // ND's ties and CD's 8-bit cluster put far more than 4k delegates on the
  // relaxed prefix. The guard must decline the skip inside the first
  // top-k: same threshold and classification as the exact run, no more
  // first-stage launches and exactly its stage-3 launches.
  struct Case {
    Distribution dist;
    u64 n, k;
  };
  for (const Case& c : {Case{Distribution::kNormal, u64{1} << 17, 1 << 9},
                        Case{Distribution::kCustomized, u64{1} << 20, 1024},
                        Case{Distribution::kCustomized, u64{1} << 20, 16384}}) {
    auto v = data::generate(c.n, c.dist, 55);
    std::span<const u32> vs(v.data(), v.size());
    const std::string at = data::to_string(c.dist) + " k=" +
                           std::to_string(c.k);

    DrTopkConfig relaxed;  // relaxation on: the guard decides
    relaxed.beta = 2;
    relaxed.small_input_shared = false;  // keep the radix first stage (relax)
    DrTopkConfig exact = relaxed;
    exact.skip_last_first_iter = false;  // straight to the exact threshold
    StageBreakdown br, be;
    auto rr = dr_topk_keys<u32>(shared_device(), vs, c.k, relaxed, &br);
    auto re = dr_topk_keys<u32>(shared_device(), vs, c.k, exact, &be);
    EXPECT_EQ(rr.keys, re.keys) << at;
    EXPECT_EQ(rr.keys, reference_topk(vs, c.k)) << at;
    EXPECT_EQ(br.qualified_subranges, be.qualified_subranges) << at;
    EXPECT_EQ(br.taken_delegates, be.taken_delegates) << at;
    EXPECT_EQ(br.concat_len, be.concat_len) << at;
    EXPECT_EQ(br.guard_trips, 1u) << at;
    EXPECT_EQ(be.guard_trips, 0u) << at;
    EXPECT_LE(br.first_stats.kernels_launched,
              be.first_stats.kernels_launched) << at;
    EXPECT_EQ(br.concat_stats.kernels_launched,
              be.concat_stats.kernels_launched) << at;
  }
}

TEST(FusedConcat, LegacyRequestWithoutSidsDegradesToFusedSafely) {
  // fused_concat=false needs the delegate sid tags; when the caller also
  // disabled emit_sids the pipeline must degrade to the fused pass (which
  // derives validity analytically) instead of reading an empty span.
  auto v = data::generate(1 << 14, Distribution::kUniform, 202);
  std::span<const u32> vs(v.data(), v.size());
  DrTopkConfig cfg;
  cfg.beta = 2;
  cfg.fused_concat = false;
  cfg.construct.emit_sids = false;
  auto r = dr_topk_keys<u32>(shared_device(), vs, 128, cfg);
  EXPECT_EQ(r.keys, reference_topk(vs, 128));
}

TEST(SmallTopk, SingleLaunchMatchesReference) {
  // The pipeline's small first/second top-k: a one-segment batch.
  vgpu::Device& dev = shared_device();
  for (u64 n : {u64{33}, u64{1000}, u64{1} << 13}) {
    auto v = data::generate(n, Distribution::kCustomized, n);
    std::span<const u32> vs(v.data(), v.size());
    for (u64 k : {u64{1}, u64{7}, n / 2, n}) {
      const topk::BatchedSegment<u32> full{vs, k, 0, false};
      topk::Accum acc(dev);
      auto r = topk::batched_topk<u32>(acc, {&full, 1});
      EXPECT_EQ(r.keys[0], reference_topk(vs, k)) << "n=" << n << " k=" << k;
      EXPECT_EQ(acc.stats().kernels_launched, 1u);  // the whole point
      const topk::BatchedSegment<u32> sel{vs, k, 0, true};
      topk::Accum sacc(dev);
      EXPECT_EQ(topk::batched_topk<u32>(sacc, {&sel, 1}).keys[0],
                std::vector<u32>{reference_topk(vs, k).back()});
    }
  }
}

// ---- Selection-only mode (pure k-selection, Section 1) ----

TEST(SelectionOnly, ReturnsJustTheKthKey) {
  const u64 n = 1 << 15;
  const u64 k = 123;
  auto v = data::generate(n, Distribution::kUniform, 17);
  std::span<const u32> vs(v.data(), v.size());
  DrTopkConfig cfg;
  cfg.selection_only = true;
  StageBreakdown bd;
  auto r = dr_topk_keys<u32>(shared_device(), vs, k, cfg, &bd);
  ASSERT_EQ(r.keys.size(), 1u);
  EXPECT_EQ(r.kth, reference_topk(vs, k).back());
  EXPECT_EQ(r.keys[0], r.kth);
}

TEST(SelectionOnly, CheaperThanFullTopk) {
  // The selection path skips the second top-k's collection pass; its
  // simulated time must not exceed the full pipeline's.
  const u64 n = 1 << 18;
  const u64 k = 1 << 10;
  auto v = data::generate(n, Distribution::kUniform, 18);
  std::span<const u32> vs(v.data(), v.size());
  DrTopkConfig full, sel;
  sel.selection_only = true;
  StageBreakdown bf, bs;
  auto rf = dr_topk_keys<u32>(shared_device(), vs, k, full, &bf);
  auto rs = dr_topk_keys<u32>(shared_device(), vs, k, sel, &bs);
  EXPECT_EQ(rs.kth, rf.kth);
  EXPECT_LE(bs.second_ms, bf.second_ms);
}

TEST(SelectionOnly, SecondSkippedPathStillSelects) {
  // Figure 8(b)'s Rule 3 fast path with selection_only: the answer comes
  // straight from the taken delegates and is reduced to the k-th.
  auto v = figure_vector();
  std::span<const u32> vs(v.data(), v.size());
  DrTopkConfig cfg = exact_cfg();
  cfg.beta = 2;
  cfg.selection_only = true;
  StageBreakdown bd;
  auto r = dr_topk_keys<u32>(shared_device(), vs, 2, cfg, &bd);
  EXPECT_TRUE(bd.second_skipped);
  ASSERT_EQ(r.keys.size(), 1u);
  EXPECT_EQ(r.kth, 3012u);
}

TEST(SelectionOnly, FallbackDirectPathKeepsContract) {
  // k close to n forces the direct fallback; selection-only must still
  // return exactly one key there.
  auto v = data::generate(1024, Distribution::kUniform, 20);
  std::span<const u32> vs(v.data(), v.size());
  DrTopkConfig cfg;
  cfg.selection_only = true;
  StageBreakdown bd;
  auto r = dr_topk_keys<u32>(shared_device(), vs, 900, cfg, &bd);
  EXPECT_TRUE(bd.fallback_direct);
  ASSERT_EQ(r.keys.size(), 1u);
  EXPECT_EQ(r.kth, reference_topk(vs, 900).back());
}

TEST(SelectionOnly, AgreesWithDrKthAcrossDistributions) {
  for (Distribution d : {Distribution::kUniform, Distribution::kNormal,
                         Distribution::kCustomized}) {
    auto v = data::generate(1 << 14, d, 19);
    std::span<const u32> vs(v.data(), v.size());
    for (u64 k : {u64{1}, u64{50}, u64{999}}) {
      EXPECT_EQ(dr_kth_keys<u32>(shared_device(), vs, k),
                reference_topk(vs, k).back())
          << data::to_string(d) << " k=" << k;
    }
  }
}

// ---- kappa_hook (Section 5.4's distributed threshold exchange) ----

TEST(KappaHook, IdentityHookCalledExactlyOnceAndStaysExact) {
  const u64 n = 1 << 15;
  const u64 k = 200;
  auto v = data::generate(n, Distribution::kUniform, 23);
  std::span<const u32> vs(v.data(), v.size());
  int calls = 0;
  u64 seen_kappa = 0;
  DrTopkConfig cfg;
  cfg.beta = 2;  // would trigger the relaxation — the hook must disable it
  cfg.kappa_hook = [&](u64 kappa) {
    ++calls;
    seen_kappa = kappa;
    return kappa;
  };
  auto r = dr_topk_keys<u32>(shared_device(), vs, k, cfg);
  EXPECT_EQ(r.keys, reference_topk(vs, k));
  // A collective exchange must run exactly once per pipeline invocation,
  // on the exact local threshold: the Section 4.3 relaxation is disabled
  // whenever a hook is installed.
  EXPECT_EQ(calls, 1);
  EXPECT_GT(seen_kappa, 0u);
}

TEST(KappaHook, HookDisablesRelaxationOnTieHeavyData) {
  // ND's ties are what make the relaxation guard decline the skip; even
  // there the hook must fire exactly once.
  auto v = data::generate(1 << 15, Distribution::kNormal, 24);
  std::span<const u32> vs(v.data(), v.size());
  int calls = 0;
  DrTopkConfig cfg;
  cfg.beta = 2;
  cfg.kappa_hook = [&](u64 kappa) {
    ++calls;
    return kappa;
  };
  auto r = dr_topk_keys<u32>(shared_device(), vs, 100, cfg);
  EXPECT_EQ(r.keys, reference_topk(vs, 100));
  EXPECT_EQ(calls, 1);
}

TEST(KappaHook, SharpenedThresholdShrinksCandidatesAndStaysExact) {
  // A hook that returns the *true* k-th element (a valid lower bound that
  // dominates the locally derived kappa — what the multi-GPU exchange
  // produces) must keep the result exact while shrinking the candidate set.
  const u64 n = 1 << 16;
  const u64 k = 1 << 9;
  auto v = data::generate(n, Distribution::kUniform, 25);
  std::span<const u32> vs(v.data(), v.size());
  const u64 true_kth = reference_topk(vs, k).back();

  DrTopkConfig plain;
  plain.beta = 1;
  StageBreakdown bd_plain;
  auto rp = dr_topk_keys<u32>(shared_device(), vs, k, plain, &bd_plain);

  DrTopkConfig hooked = plain;
  hooked.kappa_hook = [&](u64 kappa) {
    EXPECT_LE(kappa, true_kth);  // local kappa lower-bounds the true k-th
    return std::max(kappa, true_kth);
  };
  StageBreakdown bd_hook;
  auto rh = dr_topk_keys<u32>(shared_device(), vs, k, hooked, &bd_hook);

  EXPECT_EQ(rh.keys, rp.keys);
  EXPECT_LE(bd_hook.concat_len, bd_plain.concat_len);
  EXPECT_LE(bd_hook.taken_delegates, bd_plain.taken_delegates);
}

// ---- Tie-aware stage 3 (default exact pipeline) ----

/// The sweep's inputs: the paper's three distributions plus two tie-only
/// layouts, all-equal values and four distinct values.
std::vector<u32> tie_sweep_input(const std::string& name, u64 n) {
  const auto gen = [n](Distribution d, u64 seed) {
    const auto g = data::generate(n, d, seed);
    return std::vector<u32>(g.begin(), g.end());
  };
  if (name == "UD") return gen(Distribution::kUniform, 61);
  if (name == "ND") return gen(Distribution::kNormal, 62);
  if (name == "CD") return gen(Distribution::kCustomized, 63);
  std::vector<u32> v(n, 42u);
  if (name == "four")
    for (u64 i = 0; i < n; ++i)
      v[i] = 1000u * (1 + static_cast<u32>(data::rand_u32(64, i) % 4));
  return v;
}

TEST(TieAware, Stage3MatchesStrictOracleAcrossInputs) {
  for (const std::string name : {"UD", "ND", "CD", "equal", "four"}) {
    for (const u64 n : {u64{1} << 17, (u64{1} << 17) + 5}) {
      const std::vector<u32> v = tie_sweep_input(name, n);
      std::span<const u32> vs(v.data(), v.size());
      // The same values as u64 keys (x * (2^32 + 1) keeps order and ties,
      // and maps the u32 maximum to the u64 maximum), and as the directed
      // keys of a smallest-k query.
      std::vector<u64> w(v.begin(), v.end());
      for (u64& x : w) x *= 0x1'0000'0001ull;
      std::vector<u32> flipped(v.begin(), v.end());
      for (u32& x : flipped) x = ~x;
      std::vector<u32> ascending(v.begin(), v.end());
      std::sort(ascending.begin(), ascending.end());
      for (const u64 k : {u64{1}, u64{16}, u64{1024}, u64{16384}}) {
        const std::string at =
            name + " n=" + std::to_string(n) + " k=" + std::to_string(k);
        for (u32 beta = 1; beta <= 4; ++beta) {
          DrTopkConfig cfg;
          cfg.beta = beta;
          expect_pipeline_matches_oracle<u32>(
              vs, k, cfg, true, at + " beta=" + std::to_string(beta));
        }
        DrTopkConfig sel;
        sel.selection_only = true;
        expect_pipeline_matches_oracle<u32>(vs, k, sel, true,
                                            at + " selection-only");
        expect_pipeline_matches_oracle<u64>(std::span<const u64>(w), k, {},
                                            true, at + " u64");
        // kSmallest runs the pipeline on the directed keys ~x.
        std::span<const u32> fs(flipped.data(), flipped.size());
        expect_pipeline_matches_oracle<u32>(fs, k, {}, true,
                                            at + " smallest keys");
        const auto r = dr_topk<u32>(shared_device(), vs, k,
                                    data::Criterion::kSmallest);
        EXPECT_EQ(r.values, std::vector<u32>(ascending.begin(),
                                             ascending.begin() + k))
            << at << " smallest";
      }
    }
  }
}

TEST(TieAware, MaxKeyKappaLaunchesNoStage3Kernel) {
  // Nothing lies strictly above the key type's maximum: a kappa equal to
  // it leaves no candidate, so stage 3 and stage 4 launch nothing and the
  // answer is k copies of kappa.
  const auto check = [](auto vs, u64 k, const std::string& at) {
    StageBreakdown bd;
    const auto r = dr_topk_keys(shared_device(), vs, k, DrTopkConfig{}, &bd);
    EXPECT_EQ(r.keys, reference_topk(vs, k)) << at;
    EXPECT_EQ(bd.concat_stats.kernels_launched, 0u) << at;
    EXPECT_EQ(bd.concat_len, 0u) << at;
    EXPECT_EQ(bd.taken_delegates, 0u) << at;
    EXPECT_TRUE(bd.second_skipped) << at;
    EXPECT_EQ(bd.second_stats.kernels_launched, 0u) << at;
  };
  const std::vector<u32> max32(1 << 17, ~0u);
  check(std::span<const u32>(max32), 1024, "all 0xFFFFFFFF");
  const std::vector<u64> max64(1 << 17, ~u64{0});
  check(std::span<const u64>(max64), 1024, "all ~0 u64");
  // CD holds 2^20 / 256 = 4096 copies of 0xFFFFFFFF.
  const auto cd = data::generate(1 << 20, Distribution::kCustomized, 65);
  check(std::span<const u32>(cd.data(), cd.size()), 64, "CD 2^20");
}

TEST(TieAware, HookNoFilteringAndRecallTargetKeepInclusiveCounts) {
  // A kappa hook, the Rule 2 ablation and a recall target keep the paper's
  // >= kappa classification: same qualified and taken counts and the same
  // candidate multiset as the inclusive oracle.
  for (const Distribution d : {Distribution::kUniform, Distribution::kNormal,
                               Distribution::kCustomized}) {
    const auto v = data::generate(1 << 17, d, 66);
    std::span<const u32> vs(v.data(), v.size());
    for (const u64 k : {u64{16}, u64{1024}}) {
      const std::string at = data::to_string(d) + " k=" + std::to_string(k);
      DrTopkConfig hook;
      hook.kappa_hook = [](u64 kappa) { return kappa; };
      expect_pipeline_matches_oracle<u32>(vs, k, hook, false, at + " hook");
      DrTopkConfig nofilt;
      nofilt.filtering = false;
      expect_pipeline_matches_oracle<u32>(vs, k, nofilt, false,
                                          at + " no filtering");
      DrTopkConfig approx;
      approx.fidelity = FidelityPolicy::approx(0.9);
      expect_pipeline_matches_oracle<u32>(vs, k, approx, false,
                                          at + " recall 0.9");
    }
  }
}

// ---- Stage 3 (core/concat_batched.hpp) ----

/// Stage-2 threshold for a segment: the k-th largest delegate, exactly
/// what the group's batched first top-k resolves.
template <class K>
std::vector<K> kappas_for(std::span<const K> dkeys,
                          const std::vector<u64>& ks) {
  std::vector<K> out;
  for (u64 k : ks)
    out.push_back(
        reference_topk(dkeys, std::min<u64>(k, dkeys.size())).back());
  return out;
}

/// Runs one stage-3 launch per k in `ks` and checks each against
/// stage3_oracle field by field, candidate multiset included. `strict`
/// checks the tie-aware stage 3 the serving setup runs: the launch
/// classifies against kappa + 1, and a kappa equal to the key maximum
/// launches nothing (nothing lies above it). Each span is sized as the
/// callers size it: stage3_capacity from at most k - 1 delegates above an
/// exact k-th (strict), or |D| (the inclusive rules).
template <class K>
void expect_batched_matches_definition(std::span<const K> vs, int alpha,
                                       u32 beta, bool filter, bool rule2,
                                       const std::vector<u64>& ks,
                                       const std::string& tag,
                                       bool strict = false) {
  topk::Accum dacc(shared_device());
  auto dv = build_delegate_vector<K>(dacc, vs, alpha, beta);
  const u64 S = dv.num_subranges;
  std::vector<K> dhost(dv.keys.begin(), dv.keys.end());
  std::span<const K> dkeys(dhost.data(), dhost.size());

  const std::vector<K> kappas = kappas_for<K>(dkeys, ks);
  for (u64 i = 0; i < kappas.size(); ++i) {
    const K kappa = kappas[i];
    const std::string at = tag + " k=" + std::to_string(ks[i]);
    const Stage3Oracle<K> o = stage3_oracle<K>(vs, dkeys, S, beta, alpha,
                                               kappa, filter, rule2, strict);
    if (strict && kappa == std::numeric_limits<K>::max()) {
      EXPECT_TRUE(o.cand.empty()) << at;
      continue;
    }
    const u64 taken_bound =
        strict ? std::min<u64>(ks[i], dkeys.size()) - 1 : dkeys.size();
    std::vector<K> cand(
        stage3_capacity(vs.size(), beta, alpha, taken_bound, rule2));

    topk::Accum acc(shared_device());
    const Stage3Counts c = concat_stage3<K>(
        acc, vs, dkeys, beta, alpha, strict ? static_cast<K>(kappa + 1) : kappa,
        filter, rule2, std::span<K>(cand));
    EXPECT_EQ(acc.stats().kernels_launched, 1u) << at;

    EXPECT_EQ(c.qualified, o.qualified) << at;
    EXPECT_EQ(c.taken_total, o.taken_total) << at;
    ASSERT_LE(c.cand_count, cand.size()) << at;
    std::vector<K> got(cand.begin(), cand.begin() + c.cand_count);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, o.cand) << at;  // same candidate MULTISET
  }
}

TEST(BatchedConcat, MatchesDefinitionPerSegmentAcrossDistributions) {
  // One segment per k, across thresholds from the top delegate down to
  // the 1000th (a repeated k must reproduce the same classification).
  const std::vector<u64> ks = {1, 16, 16, 333, 1000};
  for (Distribution d : {Distribution::kUniform, Distribution::kNormal,
                         Distribution::kCustomized}) {
    const u64 n = (1 << 16) + 5;  // ragged tail subrange
    auto v = data::generate(n, d, 91);
    std::span<const u32> vs(v.data(), v.size());
    for (int alpha : {6, 8}) {
      for (u32 beta : {1u, 2u, 4u}) {
        // rule2 = false: the approximate mode's delegates-only stage 3.
        for (bool rule2 : {true, false}) {
          expect_batched_matches_definition<u32>(
              vs, alpha, beta, true, rule2, ks,
              data::to_string(d) + " a" + std::to_string(alpha) + " b" +
                  std::to_string(beta) + (rule2 ? "" : " delegates-only"));
        }
      }
    }
    // No Rule-2 filtering: qualified subranges stream whole.
    expect_batched_matches_definition<u32>(vs, 6, 2, false, true, ks,
                                           data::to_string(d) + " nofilt");
  }
}

TEST(BatchedConcat, MatchesDefinitionOn64BitKeys) {
  const u64 n = 1 << 15;
  std::vector<u64> v(n);
  for (u64 i = 0; i < n; ++i) v[i] = data::rand_u64(44, i);
  std::span<const u64> vs(v.data(), v.size());
  for (bool rule2 : {true, false})
    expect_batched_matches_definition<u64>(vs, 7, 2, true, rule2,
                                           {5, 64, 900}, "u64");
}

TEST(TieAware, BatchedStage3MatchesStrictOracleAcrossInputs) {
  // The candidate multiset half of Stage3MatchesStrictOracleAcrossInputs:
  // the same inputs, ks and betas, at the geometry the pipeline resolves,
  // through the batched kernels with kappa + 1 segments (what the serving
  // setup and the one-segment pipeline both launch).
  const auto check = [](auto vs, u64 k, u32 beta, const std::string& at) {
    using K = typename decltype(vs)::value_type;
    DrTopkConfig cfg;
    cfg.beta = beta;
    const DelegateGeometry geo = resolve_geometry(vs.size(), k, cfg);
    if (geo.alpha < 0) return;
    expect_batched_matches_definition<K>(vs, geo.alpha, geo.beta, true, true,
                                         {k}, at, /*strict=*/true);
  };
  for (const std::string name : {"UD", "ND", "CD", "equal", "four"}) {
    for (const u64 n : {u64{1} << 17, (u64{1} << 17) + 5}) {
      const std::vector<u32> v = tie_sweep_input(name, n);
      std::span<const u32> vs(v.data(), v.size());
      std::vector<u64> w(v.begin(), v.end());
      for (u64& x : w) x *= 0x1'0000'0001ull;
      std::vector<u32> flipped(v.begin(), v.end());
      for (u32& x : flipped) x = ~x;
      for (const u64 k : {u64{1}, u64{16}, u64{1024}, u64{16384}}) {
        const std::string at =
            name + " n=" + std::to_string(n) + " k=" + std::to_string(k);
        for (u32 beta = 1; beta <= 4; ++beta)
          check(vs, k, beta, at + " beta=" + std::to_string(beta));
        check(std::span<const u64>(w), k, 2, at + " u64");
        check(std::span<const u32>(flipped), k, 2, at + " smallest keys");
      }
    }
  }
}

// ---- The stage-3 capacity bound (stage3_capacity) ----

/// Ordered and tie-only layouts of n u32 keys: generated UD values (or,
/// with `dense`, the integers 0..n-1) sorted ascending or descending, 64
/// sorted blocks in shuffled order, the n/512 largest keys in one column
/// of a row-major [n/512 x 512] matrix, all keys equal, and four distinct
/// values. Sorted input makes every subrange above kappa qualify, which is
/// where the bound is tight; dense keys put up to 255 more keys into a
/// relaxed prefix's last digit, so it takes well over k delegates.
std::vector<u32> bound_layout(const std::string& name, u64 n,
                              bool dense = false) {
  if (name == "equal" || name == "four") return tie_sweep_input(name, n);
  std::vector<u32> v = tie_sweep_input("UD", n);
  if (dense)
    for (u64 i = 0; i < n; ++i) v[i] = static_cast<u32>(i);
  if (name == "column") {
    for (u64 i = 0; i < n; ++i)
      v[i] = i % 512 == 7 ? v[i] | 0x8000'0000u : v[i] >> 1;
    return v;
  }
  std::sort(v.begin(), v.end());
  if (name == "descending") std::reverse(v.begin(), v.end());
  if (name == "blocks") {
    const u64 blocks = 64, blen = (n + blocks - 1) / blocks;
    std::vector<u64> order(blocks);
    for (u64 b = 0; b < blocks; ++b) order[b] = b;
    for (u64 b = blocks - 1; b > 0; --b)
      std::swap(order[b], order[data::rand_u64(72, b) % (b + 1)]);
    std::vector<u32> out;
    for (const u64 b : order)
      out.insert(out.end(), v.begin() + std::min(n, b * blen),
                 v.begin() + std::min(n, (b + 1) * blen));
    v = std::move(out);
  }
  return v;
}

/// The stage-3 thresholds the callers derive, each with the taken bound
/// its caller passes to stage3_capacity.
enum class Threshold {
  kExactTieAware,  ///< the exact k-th delegate, > kappa: k - 1
  kRelaxedPrefix,  ///< a Section 4.3 radix prefix, > it: the radix's count
  kNoFilter,       ///< the exact k-th delegate, >= kappa, no Rule 2: |D|
  kDelegatesOnly,  ///< a recall target's rule2 = false, >= kappa: |D|
};

/// Runs one stage-3 launch of threshold `th` over `vs` at (alpha, beta),
/// in a span of exactly stage3_capacity, and checks that the candidates
/// fit it and match stage3_oracle, and that the answer they give (top-k,
/// padded with kappa under the tie-aware rule) is bit-identical to
/// reference_topk. Returns {candidates, capacity}.
template <class K>
std::pair<u64, u64> expect_stage3_within_bound(std::span<const K> vs, u64 k,
                                               int alpha, u32 beta,
                                               Threshold th,
                                               const std::string& at) {
  topk::Accum dacc(shared_device());
  const auto dv = build_delegate_vector<K>(dacc, vs, alpha, beta);
  const std::vector<K> dhost(dv.keys.begin(), dv.keys.end());
  std::span<const K> dkeys(dhost);
  K kappa = reference_topk(dkeys, k).back();
  u64 taken_bound = dkeys.size();
  const bool strict =
      th == Threshold::kExactTieAware || th == Threshold::kRelaxedPrefix;
  const bool filter = th != Threshold::kNoFilter;
  const bool rule2 = th != Threshold::kDelegatesOnly;
  if (strict) taken_bound = k - 1;
  if (th == Threshold::kRelaxedPrefix) {
    topk::Accum a2(shared_device());
    kappa = topk::radix_kth_flag(a2, dkeys, k, 4 * k, nullptr, &taken_bound);
  }
  if (strict && kappa == std::numeric_limits<K>::max()) return {0, 0};

  const u64 cap = stage3_capacity(vs.size(), beta, alpha, taken_bound, rule2);
  std::vector<K> cand(cap);
  topk::Accum acc(shared_device());
  const Stage3Counts c = concat_stage3<K>(
      acc, vs, dkeys, beta, alpha, strict ? static_cast<K>(kappa + 1) : kappa,
      filter, rule2, std::span<K>(cand));
  EXPECT_LE(c.cand_count, cap) << at;
  EXPECT_LE(c.taken_total, taken_bound) << at;
  const Stage3Oracle<K> o = stage3_oracle<K>(
      vs, dkeys, dv.num_subranges, beta, alpha, kappa, filter, rule2, strict);
  EXPECT_EQ(c.taken_total, o.taken_total) << at;
  EXPECT_EQ(c.qualified, o.qualified) << at;
  std::vector<K> got(cand.begin(), cand.begin() + c.cand_count);
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, o.cand) << at;
  if (rule2) {  // delegates only is a recall target's superset, not exact
    std::reverse(got.begin(), got.end());
    got.resize(k, kappa);
    EXPECT_EQ(got, reference_topk(vs, k)) << at;
  }
  return {c.cand_count, cap};
}

TEST(Stage3Bound, CandidatesFitTheSpanOnOrderedAndTiedLayouts) {
  // Every layout x key width x geometry (beta 1-4, beta above 2^alpha, a
  // ragged tail) x threshold: the one launch never reserves past its span,
  // and its candidates give the oracle's answer.
  const u64 n = (u64{1} << 13) + 3;
  const std::vector<std::pair<int, u32>> geos = {
      {1, 4}, {1, 3}, {1, 1}, {4, 2}, {6, 1}, {6, 3}, {7, 4}};
  for (const std::string name :
       {"ascending", "descending", "blocks", "column", "equal", "four"}) {
    const std::vector<u32> v = bound_layout(name, n);
    std::vector<u64> w(v.begin(), v.end());
    for (u64& x : w) x *= 0x1'0000'0001ull;
    for (const auto& [alpha, beta] : geos) {
      for (const u64 k : {u64{1}, u64{16}, u64{100}}) {
        for (const Threshold th :
             {Threshold::kExactTieAware, Threshold::kRelaxedPrefix,
              Threshold::kNoFilter, Threshold::kDelegatesOnly}) {
          const std::string at = name + " a" + std::to_string(alpha) + " b" +
                                 std::to_string(beta) + " k=" +
                                 std::to_string(k) + " threshold " +
                                 std::to_string(static_cast<int>(th));
          expect_stage3_within_bound<u32>(std::span<const u32>(v), k, alpha,
                                          beta, th, at);
          expect_stage3_within_bound<u64>(std::span<const u64>(w), k, alpha,
                                          beta, th, at + " u64");
        }
      }
    }
  }
}

TEST(Stage3Bound, PipelineAnswersStayExactOnOrderedLayouts) {
  // The pipeline sizes every fused stage 3 with the bound; a reservation
  // past it would throw. Its default (tie-aware), relaxed-first (alpha 2
  // makes |D| outgrow the shared path), exact-first, no-filter and
  // three-pass configurations all answer bit-identically on every layout.
  const u64 n = (u64{1} << 17) + 7;
  for (const std::string layout :
       {"ascending", "descending", "blocks", "column", "equal", "four",
        "dense ascending", "dense descending", "dense blocks"}) {
    const bool dense = layout.starts_with("dense ");
    const std::string name = dense ? layout.substr(6) : layout;
    const std::vector<u32> v = bound_layout(name, n, dense);
    std::span<const u32> vs(v);
    std::vector<u64> w(v.begin(), v.end());
    for (u64& x : w) x *= 0x1'0000'0001ull;
    std::span<const u64> ws(w);
    for (const u64 k : {u64{1}, u64{64}, u64{1024}}) {
      const std::string at = layout + " k=" + std::to_string(k);
      const std::vector<u32> want = reference_topk(vs, k);
      DrTopkConfig exact_first, nofilt, legacy;
      exact_first.skip_last_first_iter = false;
      nofilt.filtering = false;
      legacy.fused_concat = false;
      for (u32 beta = 1; beta <= 4; ++beta) {
        DrTopkConfig relaxed;
        relaxed.beta = beta;
        relaxed.alpha = 2;
        EXPECT_EQ(dr_topk_keys<u32>(shared_device(), vs, k, relaxed).keys,
                  want)
            << at << " beta=" << beta;
      }
      for (const DrTopkConfig& cfg : {DrTopkConfig{}, exact_first, nofilt,
                                      legacy})
        EXPECT_EQ(dr_topk_keys<u32>(shared_device(), vs, k, cfg).keys, want)
            << at;
      EXPECT_EQ(dr_topk_keys<u64>(shared_device(), ws, k).keys,
                reference_topk(ws, k))
          << at << " u64";
    }
  }
}

TEST(Stage3Bound, WithinTwiceTheCandidatesOnSortedInput) {
  // Sorted ascending 2^20 keys at k = 1024: every subrange above kappa
  // qualifies, so the candidates nearly fill the bound. Sized from the
  // relaxed radix's own count of keys at or above its prefix, the bound
  // stays within 2x of them (the bare 4k guard would give ~4x).
  const u64 n = u64{1} << 20, k = 1024;
  const std::vector<u32> v = bound_layout("ascending", n);
  std::span<const u32> vs(v);
  const DelegateGeometry geo = resolve_geometry(n, k, DrTopkConfig{});
  ASSERT_GE(geo.alpha, 0);
  const auto [cands, cap] = expect_stage3_within_bound<u32>(
      vs, k, geo.alpha, geo.beta, Threshold::kRelaxedPrefix, "sorted 2^20");
  EXPECT_GT(cands, 16 * k);
  EXPECT_LE(cap, 2 * cands);
  EXPECT_EQ(dr_topk_keys<u32>(shared_device(), vs, k).keys,
            reference_topk(vs, k));
}

// ---- Typed frontend ----

TEST(TypedDrTopk, SmallestFloats) {
  std::vector<f32> v;
  for (int i = 0; i < 1 << 15; ++i)
    v.push_back(static_cast<f32>(data::rand_unit(13, i) * 1e6));
  std::span<const f32> vs(v.data(), v.size());
  auto r = dr_topk<f32>(shared_device(), vs, 20, data::Criterion::kSmallest);
  std::vector<f32> expect(v.begin(), v.end());
  std::sort(expect.begin(), expect.end());
  expect.resize(20);
  EXPECT_EQ(r.values, expect);
}

TEST(TypedDrTopk, LargestU64) {
  std::vector<u64> v(1 << 15);
  for (u64 i = 0; i < v.size(); ++i) v[i] = data::rand_u64(14, i);
  std::span<const u64> vs(v.data(), v.size());
  auto r = dr_topk<u64>(shared_device(), vs, 50, data::Criterion::kLargest);
  EXPECT_EQ(r.values, reference_topk(vs, 50));
}

}  // namespace
}  // namespace drtopk::core
