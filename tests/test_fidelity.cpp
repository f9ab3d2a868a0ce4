// PR-9 fidelity suite: exactness as a per-query execution policy.
//
// Two properties anchor everything here:
//   1. EXACT IS BIT-IDENTICAL — a default (exact) FidelityPolicy must
//      produce byte-for-byte the reference answers on every layer
//      (single-device and sharded, both key widths).
//   2. APPROX MEETS ITS TARGET — a recall-target query's measured recall
//      against the exact oracle must be >= rho for every rho x
//      distribution x k tried, at every layer (core, serve, sharded),
//      while never re-thresholding through the relaxation guard.
// Plus the PR-6 residual fix: a parked single-executor window owner must
// execute queued groups instead of stalling behind the window.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>

#include "core/concat_batched.hpp"
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

  // Budget floor: max(64, k, ceil((k-1)/(1-rho))).
  EXPECT_EQ(core::approx_min_subranges(1, a), 64u);
  EXPECT_EQ(core::approx_min_subranges(100,
                                       core::FidelityPolicy::approx(0.99)),
            9900u);
  EXPECT_GE(core::approx_min_subranges(5000, a), 49990u);
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
        // Approx construction is single-delegate and never re-thresholds.
        EXPECT_EQ(bd.beta, 1u);
        EXPECT_EQ(bd.guard_trips, 0u);
      }
    }
  }
}

TEST(Fidelity, CoreApproxSkipsRelaxationGuard) {
  // All-equal data: every delegate >= kappa, so the Section 4.3 guard
  // condition (taken_total > 4k) fires. Exact mode re-thresholds
  // (guard_trips); a recall target waves it off (guard_skips) — the
  // relaxed superset only helps recall.
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

TEST(Fidelity, MarkGuardRetryHonorsPerSegmentPolicy) {
  // The batched stage-3 guard helper: only tripped segments whose policy
  // demands exactness get a retry pass; tripped approx segments are
  // counted as skips.
  std::vector<core::BatchedConcatSegment<u32>> segs(3);
  segs[0].taken_total = 100;  // tripped (4k = 40), exact -> retry
  segs[1].taken_total = 100;  // tripped, approx -> skip + count
  segs[2].taken_total = 20;   // not tripped -> skip, not counted
  const u64 ks[] = {10, 10, 10};
  const core::FidelityPolicy fids[] = {{}, core::FidelityPolicy::approx(0.9),
                                       {}};
  u64 skips = 0;
  const u64 need = core::mark_guard_retry<u32>(
      std::span<core::BatchedConcatSegment<u32>>(segs),
      std::span<const u64>(ks), std::span<const core::FidelityPolicy>(fids),
      &skips);
  EXPECT_EQ(need, 1u);
  EXPECT_EQ(skips, 1u);
  EXPECT_FALSE(segs[0].skip);
  EXPECT_TRUE(segs[1].skip);
  EXPECT_TRUE(segs[2].skip);
}

TEST(Fidelity, ExactModeBitParityMatrix) {
  // The acceptance matrix: a default FidelityPolicy through every layer
  // must be bit-identical to the reference — {single-device, sharded} x
  // {u32, u64}, with repeated ks sharing stage-3 entries.
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
  for (u64 k : ks) {  // repeated ks share one stage-3 entry
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
  // path and the per-item core path a non-radix plan takes) must hit
  // their recall targets; the oracle-measured recall is fed back via
  // record_recall and must surface in ServerStats and the Prometheus
  // exposition.
  const u64 n = u64{1} << 17;
  auto v = data::generate(n, Distribution::kUniform, 231);
  std::span<const u32> vs(v.data(), v.size());
  for (bool per_item : {false, true}) {
    ServerConfig cfg;
    cfg.batch_max = 8;
    if (per_item) {
      cfg.use_plan_cache = false;  // no probing back to the radix engines
      cfg.base.second_algo = topk::Algo::kSortAndChoose;
    }
    TopkServer server(shared_device(), cfg);
    u64 submitted = 0;
    for (double rho : {0.8, 0.9, 0.99}) {
      std::vector<Query> queries;
      for (u64 k : {u64{64}, u64{512}})
        queries.push_back(Query::view(vs, k).with_recall(rho));
      auto results = server.run_batch(queries);
      submitted += queries.size();
      for (size_t i = 0; i < queries.size(); ++i) {
        ASSERT_EQ(results[i].values.size(), queries[i].k);
        const double rec = recall_of(
            results[i].values, widen(reference_topk(vs, queries[i].k)));
        EXPECT_GE(rec, rho) << "per_item=" << per_item
                            << " k=" << queries[i].k;
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

TEST(Fidelity, FidelitySplitsGroups) {
  // Mixed-fidelity identical queries must NOT share a group (and so never
  // a stage-3 entry): the exact answers stay bit-identical while the
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
  server.submit(Query::view(vs, 128).with_recall(0.9)).get();
  const ServerStats cold = server.stats();
  EXPECT_EQ(cold.plan_misses, 2u);
  EXPECT_EQ(cold.plan_hits, 0u);
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

TEST(Fidelity, ParkedWindowOwnerExecutesQueuedGroups) {
  // PR-6 residual fix: a single-executor server with a huge finalize
  // window and TWO groups queued. The owner of the first group parks with
  // the second group still un-run — pre-fix it sat out the whole window
  // (the pool is not idle, so the early flush cannot fire). Post-fix the
  // parked owner claims and executes the queued group itself; that group
  // deposits into the owner's open window and the queue-empty early flush
  // then fires. The wall-clock bound IS the regression test.
  auto a = data::generate(1 << 15, Distribution::kNormal, 271);
  auto b = data::generate((1 << 15) + 33, Distribution::kNormal, 272);
  std::span<const u32> as(a.data(), a.size());
  std::span<const u32> bs(b.data(), b.size());

  ServerConfig cfg;
  cfg.executors = 1;
  cfg.batch_max = 4;
  cfg.finalize_window_us = 2'000'000;
  TopkServer server(shared_device(), cfg);

  std::vector<Query> queries;
  for (u64 k : {u64{32}, u64{64}, u64{96}, u64{128}})
    queries.push_back(Query::view(as, k));
  for (u64 k : {u64{48}, u64{80}, u64{112}, u64{144}})
    queries.push_back(Query::view(bs, k));

  topk::WallTimer wall;
  auto results = server.run_batch(queries);
  const double elapsed_ms = wall.ms();

  for (size_t i = 0; i < 4; ++i)
    EXPECT_EQ(results[i].values, widen(reference_topk(as, queries[i].k)))
        << i;
  for (size_t i = 4; i < 8; ++i)
    EXPECT_EQ(results[i].values, widen(reference_topk(bs, queries[i].k)))
        << i;
  EXPECT_LT(elapsed_ms, 1500.0);  // far below the 2 s window

  const ServerStats s = server.stats();
  EXPECT_EQ(s.failed, 0u);
  EXPECT_EQ(s.groups, 2u);
  EXPECT_GE(s.window_flushes, 1u);
  // Both groups landed in the owner's window: one merged flush covers 2.
  EXPECT_GE(s.window_merged_groups, 2u);
}

}  // namespace
}  // namespace drtopk::serve
