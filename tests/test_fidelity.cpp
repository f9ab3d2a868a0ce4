// PR-9 fidelity suite: exactness as a per-query execution policy.
//
// Two properties anchor everything here:
//   1. EXACT IS BIT-IDENTICAL — a default (exact) FidelityPolicy must
//      produce byte-for-byte the reference answers on every layer
//      (single-device and sharded, both key widths).
//   2. APPROX MEETS ITS TARGET — a recall-target query's measured recall
//      against the exact oracle must be >= rho for every rho x
//      distribution x k tried, at every layer (core, serve, sharded),
//      while never declining the relaxed first top-k's skip. The
//      (subrange count, beta) geometry behind it is checked against a
//      Monte-Carlo placement and a brute-force search, and every serving
//      path (plan-cache hit in the same log2(k) bucket, no plan cache,
//      streamed late joiners) must size it for the k it serves.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <map>
#include <random>

#include "data/distributions.hpp"
#include "serve/sharded.hpp"

namespace drtopk::serve {
namespace {

using data::Criterion;
using data::Distribution;
using topk::reference_topk;

vgpu::Device& shared_device() {
  static vgpu::Device dev(vgpu::GpuProfile::v100s());
  return dev;
}

std::vector<u64> widen(const std::vector<u32>& v) {
  return {v.begin(), v.end()};
}

/// Measured recall: |got ∩ oracle| / |oracle| as MULTISETS (duplicate
/// winners must each be matched; an equal value elsewhere in the corpus
/// legitimately covers a missed position).
template <class K>
double recall_of(std::vector<K> got, std::vector<K> oracle) {
  std::sort(got.begin(), got.end());
  std::sort(oracle.begin(), oracle.end());
  std::vector<K> inter;
  std::set_intersection(got.begin(), got.end(), oracle.begin(), oracle.end(),
                        std::back_inserter(inter));
  return oracle.empty() ? 1.0
                        : static_cast<double>(inter.size()) /
                              static_cast<double>(oracle.size());
}

TEST(Fidelity, PolicyBasicsAndQuantization) {
  core::FidelityPolicy def;
  EXPECT_TRUE(def.exact());
  EXPECT_EQ(def.quantized_bp(), 10000u);

  auto a = core::FidelityPolicy::approx(0.9);
  EXPECT_FALSE(a.exact());
  EXPECT_EQ(a.quantized_bp(), 9000u);
  EXPECT_TRUE(core::FidelityPolicy::approx(1.5).exact());  // clamped up
  EXPECT_DOUBLE_EQ(core::FidelityPolicy::approx(0.1).recall_target, 0.5);

  // Equality is by quantized basis points: float noise cannot split keys.
  EXPECT_TRUE((core::FidelityPolicy{0.90004} == a));
  EXPECT_FALSE(def == a);

  // The expected-miss budget is half the allowance k(1 - rho).
  EXPECT_DOUBLE_EQ(core::approx_miss_budget(1000, a), 50.0);
}

/// Number of subranges of 2^alpha elements over n keys.
u64 subranges_of(u64 n, int alpha) {
  return (n + (u64{1} << alpha) - 1) >> alpha;
}

TEST(Fidelity, ExpectedMissesMatchMonteCarloPlacement) {
  // S * E[(X - beta)+], X ~ Binomial(k, 1/S), against a seeded placement of
  // the k winners into S buckets, each bucket keeping its top beta: the
  // closed form must sit within four standard errors of the sampled mean,
  // from sparse (k << S) through crowded (k = 8S) buckets.
  struct Case {
    u64 k, s;
    u32 beta;
  };
  std::mt19937_64 rng(0xf1de);
  for (const Case c : {Case{64, 64, 1}, Case{100, 1024, 1}, Case{64, 64, 4},
                       Case{256, 128, 2}, Case{1000, 512, 3},
                       Case{4096, 4096, 4}, Case{4096, 512, 4}}) {
    constexpr int kTrials = 2000;
    std::vector<u32> count(c.s);
    double sum = 0.0, sum_sq = 0.0;
    for (int t = 0; t < kTrials; ++t) {
      std::fill(count.begin(), count.end(), 0u);
      for (u64 i = 0; i < c.k; ++i) ++count[rng() % c.s];
      double missed = 0.0;
      for (const u32 x : count) missed += x > c.beta ? x - c.beta : 0;
      sum += missed;
      sum_sq += missed * missed;
    }
    const double mean = sum / kTrials;
    const double se =
        std::sqrt(std::max(0.0, sum_sq / kTrials - mean * mean) / kTrials);
    EXPECT_NEAR(core::approx_expected_misses(c.k, c.s, c.beta), mean,
                4.0 * se + 1e-9)
        << "k=" << c.k << " S=" << c.s << " beta=" << c.beta;
  }
  // Degenerate shapes: no bucket can overflow, or one bucket holds all.
  EXPECT_EQ(core::approx_expected_misses(4, 64, 4), 0.0);
  EXPECT_DOUBLE_EQ(core::approx_expected_misses(10, 1, 3), 7.0);
}

TEST(Fidelity, BetaOneMatchesFirstOrderBound) {
  // beta = 1 is the per-partition scheme the budget used to be written
  // for: E[missed] <= k(k-1)/(2S) (each of the C(k,2) pairs collides with
  // probability 1/S), and Bonferroni's next term bounds it from below, so
  // the closed form converges on the old bound when k << S.
  for (const u64 s : {u64{1024}, u64{8192}, u64{1} << 19}) {
    for (const u64 k : {u64{2}, u64{16}, u64{100}, u64{1000}}) {
      if (k > s) continue;
      const double kk = static_cast<double>(k), ss = static_cast<double>(s);
      const double first = kk * (kk - 1) / (2 * ss);
      const double third = kk * (kk - 1) * (kk - 2) / (6 * ss * ss);
      const double got = core::approx_expected_misses(k, s, 1);
      EXPECT_LE(got, first * (1 + 1e-9)) << "k=" << k << " S=" << s;
      EXPECT_GE(got, first - third - 1e-9) << "k=" << k << " S=" << s;
    }
  }
  // The old rule S >= (k-1)/(1-rho) is exactly "first-order misses within
  // half the allowance": at that S the closed form meets the same budget.
  const auto f = core::FidelityPolicy::approx(0.99);
  const u64 s_old = static_cast<u64>(std::ceil(4095.0 / 0.01));
  EXPECT_LE(core::approx_expected_misses(4096, s_old, 1),
            core::approx_miss_budget(4096, f));
}

TEST(Fidelity, GeometryPicksFewestDelegatesMeetingBudget) {
  // Brute force over every (alpha, beta) the geometry may use: the pick
  // must meet the budget and no admissible geometry may use fewer
  // delegates; when none is admissible the pick is the direct top-k. An
  // admissible geometry holds k REAL delegates: (n >> alpha) full
  // subranges give beta each, a short tail gives min(beta, its length).
  for (const u64 n : {u64{1} << 12, (u64{1} << 16) + 333,
                      (u64{1} << 17) + 1, u64{1} << 18, u64{1} << 20}) {
    for (const u64 k : {u64{1}, u64{16}, u64{64}, u64{256}, u64{1000},
                        u64{4096}, u64{4098}, u64{40000}}) {
      for (const double rho : {0.5, 0.8, 0.9, 0.99, 0.999}) {
        const auto f = core::FidelityPolicy::approx(rho);
        const double budget = core::approx_miss_budget(k, f);
        u64 fewest = 0;  // 0: no admissible geometry
        for (int a = 1; (u64{1} << a) <= n && 2 * k <= n; ++a) {
          const u64 len = u64{1} << a;
          const u64 s = subranges_of(n, a);
          for (u32 b = 1; b <= core::kMaxBeta && b < len; ++b) {
            const u64 real = (n >> a) * b + std::min<u64>(b, n % len);
            if (s < core::kApproxMinSubranges || real < k) continue;
            if (core::approx_expected_misses(k, s, b) > budget) continue;
            if (fewest == 0 || s * b < fewest) fewest = s * b;
          }
        }
        const auto geo = core::approx_geometry(n, k, f);
        const std::string where = "n=" + std::to_string(n) +
                                  " k=" + std::to_string(k) +
                                  " rho=" + std::to_string(rho);
        if (fewest == 0) {
          EXPECT_LT(geo.alpha, 0) << where;
          continue;
        }
        ASSERT_GE(geo.alpha, 1) << where;
        const u64 s = subranges_of(n, geo.alpha);
        EXPECT_EQ(s * geo.beta, fewest) << where;
        EXPECT_LE(core::approx_expected_misses(k, s, geo.beta), budget)
            << where;
        EXPECT_GE(core::real_delegate_count(n, geo.alpha, geo.beta), k)
            << where;
      }
    }
  }
  // A one-element tail: 1025 subranges x beta 4 = 4100 slots, but only
  // 4097 hold an element, so (alpha 7, beta 4) cannot answer k = 4098.
  const u64 n_tail = (u64{1} << 17) + 1;
  EXPECT_EQ(core::real_delegate_count(n_tail, 7, 4), 4097u);
  const auto tail_geo =
      core::approx_geometry(n_tail, 4098, core::FidelityPolicy::approx(0.5));
  ASSERT_GE(tail_geo.alpha, 1);
  EXPECT_GE(core::real_delegate_count(n_tail, tail_geo.alpha, tail_geo.beta),
            4098u);
  // The serving shape that motivated top-beta buckets: rho = 0.99 at
  // k = 4096 on 2^20 keys needs 4096 subranges x 4 delegates instead of
  // 2^19 x 1, few enough for the single-launch shared-memory top-k.
  const auto geo = core::approx_geometry(u64{1} << 20, 4096,
                                         core::FidelityPolicy::approx(0.99));
  EXPECT_EQ(subranges_of(u64{1} << 20, geo.alpha), 4096u);
  EXPECT_EQ(geo.beta, 4u);
  EXPECT_TRUE(topk::small_topk_fits<u32>(shared_device().profile(),
                                         4096 * 4));
}

TEST(Fidelity, QueryFactoriesCarryFidelity) {
  std::vector<u32> v(4096, 7u);
  std::span<const u32> vs(v.data(), v.size());
  Query q = Query::view(vs, 10);
  EXPECT_TRUE(q.fidelity.exact());
  Query qa = Query::view(vs, 10).with_recall(0.9);
  EXPECT_EQ(qa.fidelity.quantized_bp(), 9000u);
  Query qo = Query::owned(std::vector<u64>{1, 2, 3, 4}, 2, Criterion::kLargest,
                          false, core::FidelityPolicy::approx(0.8));
  EXPECT_EQ(qo.fidelity.quantized_bp(), 8000u);
  EXPECT_EQ(qo.width(), KeyWidth::k64);
}

TEST(Fidelity, CoreApproxMeetsRecallTargetAcrossDistributionsAndK) {
  const u64 n = u64{1} << 18;
  for (auto dist : {Distribution::kUniform, Distribution::kNormal,
                    Distribution::kCustomized}) {
    auto v = data::generate(n, dist, 211);
    std::span<const u32> vs(v.data(), v.size());
    for (u64 k : {u64{64}, u64{256}, u64{1024}}) {
      const auto oracle = reference_topk(vs, k);
      for (double rho : {0.8, 0.9, 0.99}) {
        core::DrTopkConfig cfg;
        cfg.fidelity = core::FidelityPolicy::approx(rho);
        core::StageBreakdown bd;
        auto r = core::dr_topk_keys<u32>(shared_device(), vs, k, cfg, &bd);
        ASSERT_EQ(r.keys.size(), k);
        const double rec = recall_of(r.keys, oracle);
        EXPECT_GE(rec, rho) << "dist=" << static_cast<int>(dist)
                            << " k=" << k << " rho=" << rho;
        // Approx construction follows the closed-form geometry.
        const auto geo = core::approx_geometry(n, k, cfg.fidelity);
        EXPECT_EQ(bd.alpha, geo.alpha);
        EXPECT_EQ(bd.beta, geo.beta);
        EXPECT_EQ(bd.delegate_len, subranges_of(n, geo.alpha) * geo.beta);
        EXPECT_EQ(bd.guard_trips, 0u);
      }
    }
  }
}

/// A corpus of n keys over a one-element tail subrange at every alpha
/// (n = 2^17 + 1), with no zero key: a padding delegate (key 0) that
/// leaked into an answer is then a value the corpus does not hold.
auto tail_corpus(u64 seed) {
  auto v = data::generate((u64{1} << 17) + 1, Distribution::kUniform, seed);
  for (u32& x : v) x = std::max(x, 1u);
  return v;
}

/// Every answer value occurs in the corpus at least as often as in the
/// answer.
template <class K>
bool answer_in_corpus(std::vector<K> got, std::span<const u32> corpus) {
  std::vector<K> all(corpus.begin(), corpus.end());
  std::sort(got.begin(), got.end());
  std::sort(all.begin(), all.end());
  return std::includes(all.begin(), all.end(), got.begin(), got.end());
}

TEST(Fidelity, CoreApproxAnswersFromRealDelegatesOverTailSubrange) {
  // k = 4098 at rho = 0.5 on 2^17 + 1 keys: (alpha 7, beta 4) has 4100
  // delegate slots but only 4097 real delegates. The geometry must hold k
  // real ones, or the answer is drawn from fewer than k candidates.
  const u64 k = 4098;
  const auto v = tail_corpus(331);
  std::span<const u32> vs(v.data(), v.size());
  core::DrTopkConfig cfg;
  cfg.fidelity = core::FidelityPolicy::approx(0.5);
  core::StageBreakdown bd;
  auto r = core::dr_topk_keys<u32>(shared_device(), vs, k, cfg, &bd);
  ASSERT_EQ(r.keys.size(), k);
  EXPECT_GE(recall_of(r.keys, reference_topk(vs, k)), 0.5);
  EXPECT_TRUE(answer_in_corpus(r.keys, vs));
  EXPECT_GE(bd.concat_len, k);

  // A pinned geometry is clamped to k real delegates the same way.
  cfg.alpha = 7;
  cfg.beta = 4;
  r = core::dr_topk_keys<u32>(shared_device(), vs, k, cfg, &bd);
  ASSERT_EQ(r.keys.size(), k);
  EXPECT_TRUE(answer_in_corpus(r.keys, vs));
  EXPECT_LT(bd.alpha, 7);
  EXPECT_GE(bd.concat_len, k);
}

TEST(Fidelity, CoreApproxSizesCandidatesForAFullyTakenShortTail) {
  // The maximum sits alone in the one-element tail subrange, so its only
  // real delegate is always taken. Delegates-only classification lists it
  // as partial; sizing the candidates as if a qualified short tail had to
  // be shortened would underflow the capacity.
  const u64 n = (u64{1} << 17) + 1;
  auto v = data::generate(n, Distribution::kUniform, 7);
  std::iter_swap(std::max_element(v.begin(), v.end()), v.end() - 1);
  std::span<const u32> vs(v.data(), v.size());
  for (u64 k : {u64{64}, u64{1024}, u64{4098}}) {
    const auto oracle = reference_topk(vs, k);
    for (double rho : {0.5, 0.9, 0.99}) {
      core::DrTopkConfig cfg;
      cfg.fidelity = core::FidelityPolicy::approx(rho);
      auto r = core::dr_topk_keys<u32>(shared_device(), vs, k, cfg);
      ASSERT_EQ(r.keys.size(), k) << "k=" << k << " rho=" << rho;
      EXPECT_EQ(r.keys.front(), v.back()) << "k=" << k << " rho=" << rho;
      EXPECT_GE(recall_of(r.keys, oracle), rho) << "k=" << k << " rho=" << rho;
    }
  }
}

TEST(Fidelity, CoreApproxSkipsRelaxationGuard) {
  // All-equal data: every delegate >= kappa, so the Section 4.3 guard
  // condition (taken_total > 4k) fires. Exact mode declines the skip
  // (guard_trips); a recall target keeps it (guard_skips) — the relaxed
  // superset only helps recall.
  std::vector<u32> v(u64{1} << 20, 42u);
  std::span<const u32> vs(v.data(), v.size());
  core::DrTopkConfig cfg;
  cfg.alpha = 5;  // delegate vector outgrows the single-launch first top-k
  cfg.fidelity = core::FidelityPolicy::approx(0.9);
  core::StageBreakdown bd;
  auto r = core::dr_topk_keys<u32>(shared_device(), vs, 16, cfg, &bd);
  ASSERT_EQ(r.keys.size(), 16u);
  for (u32 key : r.keys) EXPECT_EQ(key, 42u);  // ties: recall is still 1.0
  EXPECT_GE(bd.guard_skips, 1u);
  EXPECT_EQ(bd.guard_trips, 0u);
}

TEST(Fidelity, ExactModeBitParityMatrix) {
  // The acceptance matrix: a default FidelityPolicy through every layer
  // must be bit-identical to the reference — {single-device, sharded} x
  // {u32, u64}, with repeated ks in each group.
  auto v32 = data::generate(1 << 15, Distribution::kUniform, 221);
  std::span<const u32> vs32(v32.data(), v32.size());
  std::vector<u64> v64(1 << 14);
  for (u64 i = 0; i < v64.size(); ++i) v64[i] = data::rand_u64(222, i);
  std::span<const u64> vs64(v64.data(), v64.size());
  const std::vector<u64> ks = {32, 200, 1000};

  ServerConfig cfg;
  cfg.batch_max = 8;
  TopkServer server(shared_device(), cfg);
  std::vector<Query> queries;
  for (u64 k : ks) {  // each k twice: repeats in one group
    queries.push_back(Query::view(vs32, k));
    queries.push_back(Query::view(vs32, k));
  }
  for (u64 k : ks) queries.push_back(Query::view(vs64, k));
  auto results = server.run_batch(queries);
  for (size_t i = 0; i < 6; ++i)
    ASSERT_EQ(results[i].values, widen(reference_topk(vs32, queries[i].k)))
        << "i=" << i;
  for (size_t i = 6; i < 9; ++i)
    ASSERT_EQ(results[i].values, reference_topk(vs64, queries[i].k))
        << "i=" << i;

  ShardedConfig scfg;
  scfg.num_shards = 2;
  scfg.min_shard_elems = 1;
  ShardedTopkServer sharded(scfg);
  auto corpus = sharded.register_corpus(vs32);
  for (u64 k : ks)
    ASSERT_EQ(sharded.submit(corpus, k).get().values,
              widen(reference_topk(vs32, k)))
        << "sharded k=" << k;
}

TEST(Fidelity, ServeApproxMeetsRecallTargetAndExportsCounters) {
  // Approx queries through the server (both the launch-free batched-group
  // path and the per-item core path a failed group setup falls back to)
  // must hit their recall targets; the oracle-measured recall is fed back
  // via record_recall and must surface in ServerStats and the Prometheus
  // exposition.
  const u64 n = u64{1} << 17;
  auto v = data::generate(n, Distribution::kUniform, 231);
  std::span<const u32> vs(v.data(), v.size());
  for (bool per_item : {false, true}) {
    vgpu::Device dev(vgpu::GpuProfile::v100s());  // private fault seam
    ServerConfig cfg;
    cfg.batch_max = 8;
    TopkServer server(dev, cfg);
    u64 submitted = 0;
    for (double rho : {0.8, 0.9, 0.99}) {
      std::vector<Query> queries;
      for (u64 k : {u64{64}, u64{512}})
        queries.push_back(Query::view(vs, k).with_recall(rho));
      // The per-item arm fails the group's construct launch, so setup
      // falls back and every member runs its own pipeline.
      if (per_item) dev.fail_next_launches("construct", 1);
      auto results = server.run_batch(queries);
      submitted += queries.size();
      for (size_t i = 0; i < queries.size(); ++i) {
        ASSERT_EQ(results[i].values.size(), queries[i].k);
        const double rec = recall_of(
            results[i].values, widen(reference_topk(vs, queries[i].k)));
        EXPECT_GE(rec, rho) << "per_item=" << per_item
                            << " k=" << queries[i].k;
        // Only the per-item path runs a first top-k of its own; a batched
        // group member launches nothing.
        EXPECT_EQ(results[i].breakdown.first_ms > 0.0, per_item)
            << "k=" << queries[i].k;
        server.record_recall(rec);
      }
    }
    const ServerStats s = server.stats();
    EXPECT_EQ(s.failed, 0u);
    EXPECT_EQ(s.approx_queries, submitted);
    EXPECT_EQ(s.recall_samples, submitted);
    EXPECT_GE(s.recall_mean, 0.8);
    EXPECT_LE(s.recall_mean, 1.0);
    const std::string prom = server.metrics_prometheus();
    EXPECT_NE(prom.find("serve_approx_queries"), std::string::npos);
    EXPECT_NE(prom.find("serve_recall_measured_bp"), std::string::npos);
    EXPECT_NE(prom.find("serve_relax_guard_skips"), std::string::npos);
  }
}

TEST(Fidelity, ApproxGroupSizesGeometryForKmax) {
  // An approximate plan pins no geometry, so the group's alpha and beta
  // must come from ONE resolution for the group's kmax (mixing a beta-1
  // alpha with a beta-4 vector, or the reverse, serves a budget sized for
  // neither).
  const u64 n = u64{1} << 17;
  auto v = data::generate(n, Distribution::kUniform, 311);
  std::span<const u32> vs(v.data(), v.size());
  ServerConfig cfg;
  cfg.batch_max = 8;
  TopkServer server(shared_device(), cfg);
  for (double rho : {0.8, 0.9, 0.99}) {
    std::vector<Query> queries;
    for (u64 k : {u64{512}, u64{1024}, u64{2048}})
      queries.push_back(Query::view(vs, k).with_recall(rho));
    auto results = server.run_batch(queries);
    const auto geo =
        core::approx_geometry(n, 2048, core::FidelityPolicy::approx(rho));
    for (size_t i = 0; i < queries.size(); ++i) {
      ASSERT_EQ(results[i].values.size(), queries[i].k);
      EXPECT_GE(recall_of(results[i].values,
                          widen(reference_topk(vs, queries[i].k))),
                rho)
          << "rho=" << rho << " k=" << queries[i].k;
      EXPECT_EQ(results[i].breakdown.beta, geo.beta) << "rho=" << rho;
      EXPECT_EQ(results[i].breakdown.delegate_len,
                subranges_of(n, geo.alpha) * geo.beta)
          << "rho=" << rho;
    }
  }
  EXPECT_EQ(server.stats().failed, 0u);
}

TEST(Fidelity, ServeApproxAnswersFromRealDelegatesOverTailSubrange) {
  // The serving fast path answers straight from the batched top-k of the
  // shared delegate vector: with fewer than k real delegates that top-k
  // would return padding keys. Two ks share the group so the batched
  // launch covers both.
  const auto v = tail_corpus(337);
  std::span<const u32> vs(v.data(), v.size());
  ServerConfig cfg;
  cfg.batch_max = 4;
  TopkServer server(shared_device(), cfg);
  std::vector<Query> queries;
  for (const u64 k : {u64{4098}, u64{4098}, u64{2048}})
    queries.push_back(Query::view(vs, k).with_recall(0.5));
  auto results = server.run_batch(queries);
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_EQ(results[i].values.size(), queries[i].k);
    EXPECT_GE(recall_of(results[i].values,
                        widen(reference_topk(vs, queries[i].k))),
              0.5)
        << "k=" << queries[i].k;
    EXPECT_TRUE(answer_in_corpus(results[i].values, vs))
        << "k=" << queries[i].k;
  }
  EXPECT_EQ(server.stats().failed, 0u);
}

TEST(Fidelity, ApproxPlanHitInSameBucketResizesGeometry) {
  // k = 2048 and k = 4095 share a log2(k) plan bucket. The first group
  // calibrates the bucket's entry; the second hits it and must still build
  // a geometry sized for 4095 — a beta-4 geometry sized for 2048 and
  // replayed at 4095 expects about 0.805 recall, below the 0.9 target.
  // Each group holds two identical queries, so serving them from the
  // group's shared delegate vector (rather than from private pipelines
  // that size their own geometry) shows up as fused queries.
  const u64 n = u64{1} << 17;
  auto v = data::generate(n, Distribution::kUniform, 301);
  std::span<const u32> vs(v.data(), v.size());
  const auto f = core::FidelityPolicy::approx(0.9);
  ServerConfig cfg;
  cfg.executors = 1;
  TopkServer server(shared_device(), cfg);
  for (const u64 k : {u64{2048}, u64{4095}}) {
    const Query q = Query::view(vs, k).with_recall(0.9);
    const auto geo = core::approx_geometry(n, k, f);
    for (const QueryResult& r : server.run_batch({q, q})) {
      ASSERT_EQ(r.values.size(), k);
      EXPECT_GE(recall_of(r.values, widen(reference_topk(vs, k))), 0.9)
          << "k=" << k;
      EXPECT_TRUE(r.fused) << "k=" << k;
      EXPECT_EQ(r.breakdown.beta, geo.beta) << "k=" << k;
      EXPECT_EQ(r.breakdown.delegate_len,
                subranges_of(n, geo.alpha) * geo.beta)
          << "k=" << k;
    }
  }
  const ServerStats s = server.stats();
  EXPECT_EQ(s.plan_misses, 1u);  // one bucket entry...
  EXPECT_EQ(s.plan_hits, 1u);    // ...hit by the larger k
  EXPECT_EQ(s.fused_queries, 4u);
}

TEST(Fidelity, StreamedApproxLateJoinersMeetRecallTarget) {
  // One-at-a-time submits: the first query of each round opens a group
  // whose setup snapshot may hold only k = 64, and the rest join while
  // that setup builds its delegate vector. A recall-target joiner whose k
  // exceeds the k the group's geometry was sized for must run its own
  // pipeline — riding a vector sized for k = 64 at k = 1024 misses far
  // beyond the budget — so every single answer must meet its target.
  const u64 n = u64{1} << 18;
  auto v = data::generate(n, Distribution::kUniform, 281);
  std::span<const u32> vs(v.data(), v.size());
  const std::vector<u64> later = {96, 128, 192, 256, 384, 512, 768, 1024};
  std::map<u64, std::vector<u64>> oracle;
  oracle[64] = widen(reference_topk(vs, 64));
  for (const u64 k : later) oracle[k] = widen(reference_topk(vs, k));

  ServerConfig cfg;
  cfg.executors = 2;
  TopkServer server(shared_device(), cfg);
  u64 answers = 0;
  for (const double rho : {0.8, 0.9, 0.99}) {
    for (int round = 0; round < 8; ++round) {
      std::vector<u64> ks = {64};
      for (size_t i = 0; ks.size() < 12; ++i)
        ks.push_back(later[(static_cast<size_t>(round) + i) % later.size()]);
      std::vector<std::future<QueryResult>> futures;
      for (const u64 k : ks)
        futures.push_back(server.submit(Query::view(vs, k).with_recall(rho)));
      for (size_t i = 0; i < futures.size(); ++i) {
        const QueryResult r = futures[i].get();
        ASSERT_EQ(r.values.size(), ks[i]);
        EXPECT_GE(recall_of(r.values, oracle[ks[i]]), rho)
            << "rho=" << rho << " round=" << round << " k=" << ks[i];
        ++answers;
      }
    }
  }
  EXPECT_EQ(server.stats().completed, answers);
  EXPECT_EQ(server.stats().failed, 0u);
}

TEST(Fidelity, FidelitySplitsGroups) {
  // Mixed-fidelity identical queries must NOT share a group (and so never
  // a candidate set): the exact answers stay bit-identical while the
  // approx ones run the reduced pipeline.
  auto v = data::generate(1 << 16, Distribution::kNormal, 241);
  std::span<const u32> vs(v.data(), v.size());
  ServerConfig cfg;
  cfg.batch_max = 16;
  TopkServer server(shared_device(), cfg);
  std::vector<Query> queries;
  for (int i = 0; i < 3; ++i) queries.push_back(Query::view(vs, 128));
  for (int i = 0; i < 3; ++i)
    queries.push_back(Query::view(vs, 128).with_recall(0.9));
  auto results = server.run_batch(queries);
  const auto oracle = widen(reference_topk(vs, 128));
  for (int i = 0; i < 3; ++i) ASSERT_EQ(results[i].values, oracle) << i;
  for (int i = 3; i < 6; ++i) {
    ASSERT_EQ(results[i].values.size(), 128u);
    EXPECT_GE(recall_of(results[i].values, oracle), 0.9) << i;
  }
  const ServerStats s = server.stats();
  EXPECT_GE(s.groups, 2u);  // exact and approx never merged
  EXPECT_EQ(s.approx_queries, 3u);
}

TEST(Fidelity, PlanCacheKeysOnFidelity) {
  // One shape, two policies -> two plan entries; each re-submission hits
  // its own. (Approx plans are closed-form — deterministic, no probes —
  // but they still occupy a keyed slot.)
  auto v = data::generate(1 << 16, Distribution::kUniform, 251);
  std::span<const u32> vs(v.data(), v.size());
  ServerConfig cfg;
  cfg.executors = 1;
  TopkServer server(shared_device(), cfg);
  server.submit(Query::view(vs, 128)).get();
  const u64 exact_probes = server.stats().calibration_probes;
  EXPECT_GE(exact_probes, 2u);
  server.submit(Query::view(vs, 128).with_recall(0.9)).get();
  const ServerStats cold = server.stats();
  EXPECT_EQ(cold.plan_misses, 2u);
  EXPECT_EQ(cold.plan_hits, 0u);
  EXPECT_EQ(cold.calibration_probes, exact_probes);  // the approx miss
  server.submit(Query::view(vs, 128)).get();
  server.submit(Query::view(vs, 128).with_recall(0.9)).get();
  const ServerStats warm = server.stats();
  EXPECT_EQ(warm.plan_misses, 2u);
  EXPECT_EQ(warm.plan_hits, 2u);
}

TEST(Fidelity, ShardedApproxMeetsRecallTargetExactStaysBitIdentical) {
  // Sharded scatter under a recall target: reduced shard-k sub-queries,
  // tightened local targets, exact merge over the smaller lists — global
  // recall must still meet rho. Exact submissions on the same server stay
  // bit-identical.
  const u64 n = (u64{1} << 16) + 777;
  auto v = data::generate(n, Distribution::kUniform, 261);
  std::span<const u32> vs(v.data(), v.size());
  ShardedConfig cfg;
  cfg.num_shards = 3;
  cfg.min_shard_elems = 1;
  ShardedTopkServer srv(cfg);
  auto corpus = srv.register_corpus(vs);
  ASSERT_EQ(srv.corpus_shards(corpus), 3u);
  for (u64 k : {u64{64}, u64{512}}) {
    const auto oracle = widen(reference_topk(vs, k));
    for (double rho : {0.8, 0.9, 0.99}) {
      auto got = srv.submit(corpus, k, Criterion::kLargest, false,
                            core::FidelityPolicy::approx(rho))
                     .get();
      ASSERT_EQ(got.values.size(), k) << "k=" << k << " rho=" << rho;
      EXPECT_GE(recall_of(got.values, oracle), rho)
          << "k=" << k << " rho=" << rho;
    }
    EXPECT_EQ(srv.submit(corpus, k).get().values, oracle);
  }
  srv.drain();
  EXPECT_EQ(srv.unattributed_launches(), 0u);
}

}  // namespace
}  // namespace drtopk::serve
