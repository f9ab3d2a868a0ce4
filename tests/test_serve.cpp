// Tests for the batched top-k serving engine: admission batching with
// shared delegate construction, plan-cache behaviour, backpressure, and —
// the central property — every concurrently served query returning results
// bit-identical to the CPU reference oracle (topk::reference_topk).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iterator>
#include <map>
#include <thread>

#include "data/distributions.hpp"
#include "serve/server.hpp"

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

/// The CPU oracle for any served query: reference_topk under the query's
/// criterion (the smallest k are the largest k of the complement), cut to
/// the k-th value for a selection-only query.
std::vector<u64> oracle(const Query& q) {
  std::vector<u64> v = q.width() == KeyWidth::k64
                           ? std::vector<u64>(q.data64().begin(),
                                              q.data64().end())
                           : std::vector<u64>(q.data32().begin(),
                                              q.data32().end());
  const bool smallest = q.criterion == Criterion::kSmallest;
  if (smallest)
    for (u64& x : v) x = ~x;
  std::vector<u64> top = reference_topk(std::span<const u64>(v), q.k);
  if (smallest)
    for (u64& x : top) x = ~x;
  if (q.selection_only) top.erase(top.begin(), top.end() - 1);
  return top;
}

/// Plants `len` distinct keys above every other one in a contiguous run
/// starting at `at`. The run fills a few subranges, each holding more than
/// beta of the top keys, so for every k < len more than k keys lie strictly
/// above the stage-2 threshold and the group's batched second top-k runs.
void plant_hot_run(std::span<u32> v, u64 at, u64 len) {
  for (u64 i = 0; i < len; ++i) v[at + i] = 0xFFFF0000u + static_cast<u32>(i);
}

/// A corpus whose group candidate set holds exactly `hot` keys: every 8th
/// element is a plateau key P above all the others, so every subrange's
/// delegates are copies of P and a group's kappa at any k up to the
/// delegate count is P, and `hot` distinct keys above P sit in one
/// contiguous run. Under the tie-aware rule the set G = {x > P} is that
/// run: a member whose k is below `hot` parks on it, and every other member
/// pads it with copies of P.
std::vector<u32> plateau_with_hot_run(u64 n, u64 hot) {
  std::vector<u32> v(n);
  for (u64 i = 0; i < n; ++i)
    v[i] = i % 8 == 0 ? 0x40000000u : data::rand_u32(231, i) % 0x40000000u;
  plant_hot_run(v, n / 2, hot);
  return v;
}

/// The ks of a one-set test group: repeated ks, and selection-only members
/// beside full ones.
std::vector<Query> one_set_queries(const auto& vs, Criterion c) {
  std::vector<Query> qs;
  for (const u64 k : {u64{16}, u64{64}, u64{128}, u64{256}})
    qs.push_back(Query::view(vs, k, c));
  qs.push_back(Query::view(vs, 64, c, /*selection_only=*/true));
  qs.push_back(Query::view(vs, 256, c, /*selection_only=*/true));
  return qs;
}

/// Serves one_set_queries twice through a one-executor server with `base`
/// and checks the one-set rule on the warmed group: every member is
/// oracle-exact and rides the shared vector, reports the group's one
/// candidate set as its concat_len, and answers on the host exactly when
/// the set holds at most its k; the group launches at most one stage-3
/// launch (exactly one when the set is non-empty) and at most one
/// finalization, which delivers every parked member. Returns the number of
/// members that parked.
template <class T>
u64 expect_one_set_group(std::span<const T> vs, const core::DrTopkConfig& base,
                         Criterion c, const std::string& tag) {
  ServerConfig cfg;
  cfg.executors = 1;  // deterministic grouping: one group per batch
  cfg.batch_max = 16;
  cfg.base = base;
  TopkServer server(shared_device(), cfg);
  const std::vector<Query> qs = one_set_queries(vs, c);
  (void)server.run_batch(qs);  // warm: plans calibrate, arenas grow
  const ServerStats warm = server.stats();
  const auto rs = server.run_batch(qs);
  const ServerStats after = server.stats();
  EXPECT_EQ(after.groups - warm.groups, 1u) << tag;
  const u64 set = rs[0].breakdown.concat_len;
  u64 parked = 0;
  for (size_t i = 0; i < qs.size(); ++i) {
    const std::string at = tag + " query " + std::to_string(i);
    EXPECT_EQ(rs[i].values, oracle(qs[i])) << at;
    EXPECT_TRUE(rs[i].fused) << at;
    EXPECT_EQ(rs[i].breakdown.concat_len, set) << at;
    EXPECT_EQ(rs[i].breakdown.second_skipped, set <= qs[i].k) << at;
    parked += set > qs[i].k;
  }
  const u64 concat = after.concat_launches - warm.concat_launches;
  EXPECT_LE(concat, 1u) << tag;
  if (set > 0) {
    EXPECT_EQ(concat, 1u) << tag;
  }
  EXPECT_EQ(after.finalize_launches - warm.finalize_launches,
            parked ? 1u : 0u)
      << tag;
  EXPECT_EQ(after.batched_queries - warm.batched_queries, parked) << tag;
  // The repeats of 64 and 256.
  EXPECT_EQ(after.deduped_queries - warm.deduped_queries, 2u) << tag;
  EXPECT_EQ(after.failed, 0u) << tag;
  return parked;
}

/// Fraction of the oracle's top-k an answer holds, as multisets.
double recall_of(std::vector<u64> got, std::vector<u64> want) {
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  std::vector<u64> hits;
  std::set_intersection(got.begin(), got.end(), want.begin(), want.end(),
                        std::back_inserter(hits));
  return static_cast<double>(hits.size()) / static_cast<double>(want.size());
}

TEST(Serve, SingleQueryMatchesSingleQueryPath) {
  auto v = data::generate(1 << 16, Distribution::kUniform, 11);
  std::span<const u32> vs(v.data(), v.size());
  const auto expect = core::dr_topk_keys<u32>(shared_device(), vs, 100).keys;

  TopkServer server(shared_device());
  auto r = server.submit(Query::view(vs, 100)).get();
  EXPECT_EQ(r.values, widen(expect));
  EXPECT_EQ(r.kth, static_cast<u64>(expect.back()));
  EXPECT_GT(r.latency_sim_ms, 0.0);
}

TEST(Serve, ConcurrentMixedQueriesBitIdenticalToSequential) {
  // Several corpora x several k x criteria x widths, all in flight at once
  // on one device; every answer must match the single-query path exactly.
  auto a = data::generate(1 << 16, Distribution::kUniform, 21);
  auto b = data::generate((1 << 15) + 777, Distribution::kNormal, 22);
  std::vector<u64> c(1 << 15);
  for (u64 i = 0; i < c.size(); ++i) c[i] = data::rand_u64(23, i);
  std::span<const u32> as(a.data(), a.size());
  std::span<const u32> bs(b.data(), b.size());
  std::span<const u64> cs(c.data(), c.size());

  ServerConfig cfg;
  cfg.executors = 4;
  TopkServer server(shared_device(), cfg);

  std::vector<Query> queries;
  for (u64 k : {u64{1}, u64{17}, u64{256}, u64{2048}}) {
    queries.push_back(Query::view(as, k));
    queries.push_back(Query::view(bs, k));
    queries.push_back(Query::view(cs, k));
    queries.push_back(Query::view(as, k, Criterion::kSmallest));
  }
  auto results = server.run_batch(queries);
  ASSERT_EQ(results.size(), queries.size());

  for (size_t i = 0; i < queries.size(); ++i) {
    const Query& q = queries[i];
    const QueryResult& r = results[i];
    std::vector<u64> expect;
    if (q.width() == KeyWidth::k64) {
      auto e = core::dr_topk<u64>(shared_device(), q.data64(), q.k,
                                  q.criterion);
      expect = e.values;
    } else {
      auto e = core::dr_topk<u32>(shared_device(), q.data32(), q.k,
                                  q.criterion);
      expect = widen(e.values);
    }
    ASSERT_EQ(r.values, expect) << "query " << i << " k=" << q.k;
    ASSERT_EQ(r.kth, expect.back()) << "query " << i;
  }
}

TEST(Serve, BatchedGroupSharesOneConstructionPass) {
  const u64 n = 1 << 16;
  auto v = data::generate(n, Distribution::kUniform, 31);
  std::span<const u32> vs(v.data(), v.size());

  ServerConfig cfg;
  cfg.executors = 1;  // deterministic grouping
  cfg.batch_max = 8;
  TopkServer server(shared_device(), cfg);

  std::vector<Query> queries;
  for (int i = 0; i < 8; ++i) queries.push_back(Query::view(vs, 64 + i));
  auto results = server.run_batch(queries);

  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(results[i].values,
              widen(reference_topk(vs, queries[i].k)));
    EXPECT_TRUE(results[i].fused) << i;
  }
  const ServerStats s = server.stats();
  EXPECT_EQ(s.completed, 8u);
  EXPECT_EQ(s.fused_queries, 8u);
  EXPECT_EQ(s.groups, 1u);
  // The whole batch paid for exactly one construction pass: the delegate
  // builder reads each input element once (|V| element loads).
  EXPECT_EQ(s.stages.construct_stats.global_load_elems, n);
}

TEST(Serve, StreamedSubmitsJoinTheInFlightGroup) {
  // One-at-a-time submits against one corpus: queries arriving while the
  // first query's group is still setting up (plan probes + construction)
  // must join it rather than each paying their own construction pass.
  const u64 n = 1 << 18;
  auto v = data::generate(n, Distribution::kUniform, 35);
  std::span<const u32> vs(v.data(), v.size());

  const auto expect = widen(reference_topk(vs, 128));
  // How many submits land in a shared group depends on how far setup has
  // progressed when they arrive; with millisecond setups and microsecond
  // submits, batching is near-certain per attempt — retry a couple of
  // times so scheduler preemption on a loaded machine cannot flake this.
  u64 min_groups = 8;
  for (int attempt = 0; attempt < 3 && min_groups >= 8; ++attempt) {
    ServerConfig cfg;
    cfg.executors = 1;
    cfg.batch_max = 16;
    TopkServer server(shared_device(), cfg);
    std::vector<std::future<QueryResult>> futures;
    for (int i = 0; i < 8; ++i)
      futures.push_back(server.submit(Query::view(vs, 128)));
    for (auto& f : futures) EXPECT_EQ(f.get().values, expect);
    min_groups = std::min(min_groups, server.stats().groups);
  }
  EXPECT_LT(min_groups, 8u);
}

TEST(Serve, PlanCacheHitsOnRecurringShape) {
  auto v = data::generate(1 << 16, Distribution::kUniform, 41);
  std::span<const u32> vs(v.data(), v.size());

  ServerConfig cfg;
  cfg.executors = 1;
  TopkServer server(shared_device(), cfg);

  (void)server.run_batch({Query::view(vs, 128)});
  const ServerStats cold = server.stats();
  EXPECT_EQ(cold.plan_hits, 0u);
  EXPECT_GE(cold.plan_misses, 1u);

  (void)server.run_batch({Query::view(vs, 128)});
  const ServerStats warm = server.stats();
  EXPECT_GE(warm.plan_hits, 1u);
  EXPECT_EQ(warm.plan_misses, cold.plan_misses);  // no re-calibration
  EXPECT_GE(server.plan_cache().size(), 1u);
}

TEST(Serve, PlanCacheKeysOnShapeAndDistribution) {
  auto ud = data::generate(1 << 15, Distribution::kUniform, 51);
  auto nd = data::generate(1 << 15, Distribution::kNormal, 51);
  std::span<const u32> us(ud.data(), ud.size());
  std::span<const u32> ns(nd.data(), nd.size());

  ServerConfig cfg;
  cfg.executors = 1;
  TopkServer server(shared_device(), cfg);
  (void)server.run_batch({Query::view(us, 64)});
  (void)server.run_batch({Query::view(ns, 64)});
  // Same (n, k) but different distribution fingerprints: two plans.
  EXPECT_EQ(server.plan_cache().size(), 2u);
  (void)server.run_batch({Query::view(us, 64)});
  EXPECT_EQ(server.plan_cache().size(), 2u);
  EXPECT_GE(server.stats().plan_hits, 1u);
}

/// The alpha a server's plan cache holds for a top-k of `v` at `k`.
int planned_alpha(const TopkServer& server, std::span<const u32> v, u64 k) {
  const PlanKey key = PlanCache::make_key(v, k, Criterion::kLargest);
  for (const auto& [entry_key, plan] : server.plan_cache().entries())
    if (entry_key == key) return plan.plan.alpha;
  ADD_FAILURE() << "no plan cached for n=" << v.size() << " k=" << k;
  return -1;
}

TEST(Serve, CalibrationFindsTheFullSizeOracleAlpha) {
  // serve-exact's two shapes. Rule 4 gives alpha 5 and 4 here; the
  // full-size optimum is two steps up, beyond a +-1 probe on a 2^15 prefix,
  // where fixed launch costs dominate the ranking.
  const u64 k = 4096;
  for (const auto& [logn, want] : {std::pair{20, 7}, std::pair{18, 6}}) {
    const u64 n = u64{1} << logn;
    auto v = data::generate(n, Distribution::kUniform, 71);
    std::span<const u32> vs(v.data(), v.size());
    ServerConfig cfg;
    cfg.executors = 1;
    TopkServer server(shared_device(), cfg);
    const auto r = server.run_batch({Query::view(vs, k)});
    EXPECT_EQ(r[0].values, widen(reference_topk(vs, k)));

    const core::DrTopkConfig base;
    const int hi = core::clamp_alpha(n, k, base.beta, 64);
    const int oracle = core::oracle_alpha(shared_device(), vs, k, base, 1, hi);
    EXPECT_EQ(planned_alpha(server, vs, k), oracle) << "n=2^" << logn;
    EXPECT_EQ(oracle, want) << "n=2^" << logn;
  }
}

TEST(Serve, CalibrationNeverLosesToRule4AndWalksShort) {
  // Every exact plan is measured against the closed form it starts from:
  // its full-size time is never above Rule 4's, and the walk spends at most
  // |pick - Rule 4| + 3 full-size runs (ServerStats::calibration_probes).
  const core::DrTopkConfig base;
  const auto full_ms = [&](std::span<const u32> v, u64 k, int alpha) {
    core::DrTopkConfig cfg = base;
    cfg.alpha = alpha;
    return core::dr_topk<u32>(shared_device(), v, k, Criterion::kLargest, cfg)
        .sim_ms;
  };
  for (const int logn : {16, 17, 18}) {
    const u64 n = u64{1} << logn;
    for (const Distribution d : {Distribution::kUniform, Distribution::kNormal,
                                 Distribution::kCustomized}) {
      auto v = data::generate(n, d, 73);
      std::span<const u32> vs(v.data(), v.size());
      for (const u64 k : {u64{64}, u64{1024}, u64{4096}}) {
        SCOPED_TRACE(::testing::Message()
                     << "n=2^" << logn << " dist=" << static_cast<int>(d)
                     << " k=" << k);
        ServerConfig cfg;
        cfg.executors = 1;
        TopkServer server(shared_device(), cfg);
        const auto r = server.run_batch({Query::view(vs, k)});
        ASSERT_EQ(r[0].values, widen(reference_topk(vs, k)));

        const int rule4 = core::clamp_alpha(
            n, k, base.beta,
            core::AlphaTuner{base.tuner_const}.rule4_alpha(n, k));
        const int pick = planned_alpha(server, vs, k);
        ASSERT_GE(rule4, 1);
        ASSERT_GE(pick, 1);
        EXPECT_LE(full_ms(vs, k, pick), full_ms(vs, k, rule4));
        const ServerStats st = server.stats();
        EXPECT_GE(st.calibration_probes, 2u);  // Rule 4 and a neighbour
        EXPECT_LE(st.calibration_probes,
                  static_cast<u64>(std::abs(pick - rule4) + 3));
        EXPECT_GT(st.calibration_sim_ms, 0.0);
      }
    }
  }
}

TEST(Serve, CalibrationLandsNearTheOracleOnUdK64) {
  // 2^20 UD at k = 64: under the inclusive stage 3 a stage-4 launch fired
  // at alpha 8 although exactly 64 candidates survived, a step in the time
  // curve that led the walk to alpha 11, 16.2% slower than the oracle's 7.
  // The tie-aware rule skips that launch at every alpha, and the walk
  // reaches the oracle.
  const u64 n = u64{1} << 20, k = 64;
  auto v = data::generate(n, Distribution::kUniform, 11);
  std::span<const u32> vs(v.data(), v.size());
  ServerConfig cfg;
  cfg.executors = 1;
  TopkServer server(shared_device(), cfg);
  const auto r = server.run_batch({Query::view(vs, k)});
  EXPECT_EQ(r[0].values, widen(reference_topk(vs, k)));

  core::DrTopkConfig base;
  const int hi = core::clamp_alpha(n, k, base.beta, 64);
  const int oracle_a = core::oracle_alpha(shared_device(), vs, k, base, 1, hi);
  const auto full_ms = [&](int alpha) {
    core::DrTopkConfig c = base;
    c.alpha = alpha;
    return core::dr_topk<u32>(shared_device(), vs, k, Criterion::kLargest, c)
        .sim_ms;
  };
  const int pick = planned_alpha(server, vs, k);
  EXPECT_LE(full_ms(pick), 1.03 * full_ms(oracle_a))
      << "pick=" << pick << " oracle=" << oracle_a;
}

TEST(Serve, PinnedAlphaWinsOverCalibration) {
  // An explicit base.alpha is a contract (resolve_geometry: "an explicit
  // cfg.alpha pins the geometry"); the plan cache must not probe its way
  // to a different subrange size.
  auto v = data::generate(1 << 16, Distribution::kUniform, 55);
  std::span<const u32> vs(v.data(), v.size());

  ServerConfig cfg;
  cfg.executors = 1;
  cfg.base.alpha = 9;
  TopkServer server(shared_device(), cfg);
  auto r = server.submit(Query::view(vs, 64)).get();
  EXPECT_EQ(r.values, widen(reference_topk(vs, 64)));
  EXPECT_EQ(r.breakdown.alpha, 9);
  EXPECT_EQ(server.stats().calibration_probes, 0u);
}

TEST(Serve, BackpressureBoundsInFlightAndStaysExact) {
  auto v = data::generate(1 << 14, Distribution::kCustomized, 61);
  std::span<const u32> vs(v.data(), v.size());
  const auto expect = widen(reference_topk(vs, 33));

  ServerConfig cfg;
  cfg.executors = 2;
  cfg.max_in_flight = 3;  // force submit() to block and release repeatedly
  TopkServer server(shared_device(), cfg);

  std::vector<std::future<QueryResult>> futures;
  for (int i = 0; i < 24; ++i)
    futures.push_back(server.submit(Query::view(vs, 33)));
  for (auto& f : futures) EXPECT_EQ(f.get().values, expect);
  EXPECT_EQ(server.stats().completed, 24u);
}

TEST(Serve, SelectionOnlyQueriesReturnTheKth) {
  auto v = data::generate(1 << 15, Distribution::kUniform, 71);
  std::span<const u32> vs(v.data(), v.size());
  const u64 k = 200;
  const u32 kth = reference_topk(vs, k).back();

  TopkServer server(shared_device());
  auto r = server
               .submit(Query::view(vs, k, Criterion::kLargest,
                                   /*selection_only=*/true))
               .get();
  ASSERT_EQ(r.values.size(), 1u);
  EXPECT_EQ(r.kth, static_cast<u64>(kth));
  EXPECT_EQ(r.values[0], static_cast<u64>(kth));
}

TEST(Serve, OwnedPayloadQueries) {
  std::vector<u32> payload(1 << 14);
  for (u64 i = 0; i < payload.size(); ++i)
    payload[i] = data::rand_u32(81, i);
  std::span<const u32> ps(payload.data(), payload.size());
  const auto expect = widen(reference_topk(ps, 50));

  TopkServer server(shared_device());
  auto r = server.submit(Query::owned(std::move(payload), 50)).get();
  EXPECT_EQ(r.values, expect);
}

TEST(Serve, SmallestCriterionThroughServer) {
  auto v = data::generate(1 << 15, Distribution::kUniform, 91);
  std::span<const u32> vs(v.data(), v.size());
  std::vector<u32> asc(v.begin(), v.end());
  std::sort(asc.begin(), asc.end());
  asc.resize(20);

  TopkServer server(shared_device());
  auto r = server.submit(Query::view(vs, 20, Criterion::kSmallest)).get();
  EXPECT_EQ(r.values, widen(asc));
}

TEST(Serve, RejectsInvalidQueries) {
  auto v = data::generate(1024, Distribution::kUniform, 95);
  std::span<const u32> vs(v.data(), v.size());
  TopkServer server(shared_device());
  EXPECT_THROW((void)server.submit(Query::view(vs, 0)),
               std::invalid_argument);
  EXPECT_THROW((void)server.submit(Query::view(vs, 2048)),
               std::invalid_argument);
  EXPECT_THROW((void)server.submit(Query::view(std::span<const u32>{}, 1)),
               std::invalid_argument);
}

TEST(Serve, StatsAreCoherent) {
  auto v = data::generate(1 << 15, Distribution::kUniform, 97);
  std::span<const u32> vs(v.data(), v.size());
  ServerConfig cfg;
  cfg.executors = 2;
  TopkServer server(shared_device(), cfg);

  std::vector<Query> queries;
  for (int i = 0; i < 6; ++i) queries.push_back(Query::view(vs, 100));
  (void)server.run_batch(queries);
  (void)server.run_batch(queries);  // second group of the same shape: hits

  const ServerStats s = server.stats();
  EXPECT_EQ(s.completed, 12u);
  EXPECT_EQ(s.failed, 0u);
  EXPECT_GT(s.qps(), 0.0);
  EXPECT_GT(s.makespan_sim_ms, 0.0);
  // The busiest executor cannot have done more than all query work plus
  // the one-time calibration probes (which belong to no query's latency).
  EXPECT_LE(s.makespan_sim_ms, s.total_sim_ms + s.calibration_sim_ms + 1e-9);
  EXPECT_LE(s.p50_sim_ms, s.p99_sim_ms + 1e-12);
  EXPECT_GT(s.plan_hit_rate(), 0.0);  // recurring shape hits after group 1
}

TEST(Serve, MixedKGroupKeepsFusionForFeasibleQueries) {
  // One near-n outlier in a group must not disable shared construction for
  // the feasible majority: the delegate vector is sized for the largest
  // feasible k, the outlier runs unfused, everyone stays exact.
  auto v = data::generate(2048, Distribution::kUniform, 98);
  std::span<const u32> vs(v.data(), v.size());

  ServerConfig cfg;
  cfg.executors = 1;
  cfg.batch_max = 8;
  TopkServer server(shared_device(), cfg);

  std::vector<Query> queries;
  queries.push_back(Query::view(vs, 1800));  // delegation infeasible
  for (int i = 0; i < 7; ++i) queries.push_back(Query::view(vs, 10));
  auto results = server.run_batch(queries);

  EXPECT_EQ(results[0].values, widen(reference_topk(vs, 1800)));
  EXPECT_FALSE(results[0].fused);
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[i].values, widen(reference_topk(vs, 10))) << i;
    EXPECT_TRUE(results[i].fused) << i;
  }
  EXPECT_EQ(server.stats().groups, 1u);
}

TEST(Serve, BatchedFinalizeOneSecondTopkLaunchPerWarmedGroup) {
  // The launch-count regression test: a warmed server with batching enabled
  // must perform exactly ONE second-top-k launch per admission group.
  const u64 n = 1 << 16;
  auto v = data::generate(n, Distribution::kUniform, 103);
  plant_hot_run(v, 4096, 256);  // more than k candidates for every member
  std::span<const u32> vs(v.data(), v.size());

  ServerConfig cfg;
  cfg.executors = 1;  // deterministic grouping: one group per batch
  cfg.batch_max = 8;
  TopkServer server(shared_device(), cfg);

  std::vector<Query> queries;
  for (int i = 0; i < 8; ++i) queries.push_back(Query::view(vs, 64 + 8 * i));

  (void)server.run_batch(queries);  // warm: plans calibrate, arenas grow
  const ServerStats warm = server.stats();
  EXPECT_GE(warm.batched_groups, 1u);

  const int rounds = 3;
  for (int r = 0; r < rounds; ++r) {
    auto results = server.run_batch(queries);
    for (size_t i = 0; i < queries.size(); ++i)
      ASSERT_EQ(results[i].values, widen(reference_topk(vs, queries[i].k)))
          << i;
  }
  const ServerStats after = server.stats();
  const u64 groups = after.groups - warm.groups;
  EXPECT_EQ(groups, static_cast<u64>(rounds));
  // Exactly one batched finalization — and one selection launch — per group.
  EXPECT_EQ(after.batched_groups - warm.batched_groups, groups);
  EXPECT_EQ(after.finalize_launches - warm.finalize_launches, groups);
  // Every query of every warmed group rode the batch.
  EXPECT_EQ(after.batched_queries - warm.batched_queries,
            groups * queries.size());
  // Distinct ks: no member repeats another's k.
  EXPECT_EQ(after.deduped_queries, 0u);
}

TEST(Serve, BatchedStreamedSubmitsStayExact) {
  // One-at-a-time submissions (queries join groups whose construction is
  // in flight) through the batched path: deferral bookkeeping must close
  // every group.
  const u64 n = 1 << 16;
  auto v = data::generate(n, Distribution::kUniform, 121);
  std::span<const u32> vs(v.data(), v.size());
  const auto expect = widen(reference_topk(vs, 96));

  ServerConfig cfg;
  cfg.executors = 2;
  TopkServer server(shared_device(), cfg);
  for (int round = 0; round < 3; ++round) {
    std::vector<std::future<QueryResult>> futures;
    for (int i = 0; i < 12; ++i)
      futures.push_back(server.submit(Query::view(vs, 96)));
    for (auto& f : futures) EXPECT_EQ(f.get().values, expect);
  }
  EXPECT_EQ(server.stats().completed, 36u);
  EXPECT_EQ(server.stats().failed, 0u);
}

TEST(Serve, DedupIdenticalQueriesParkOnTheOneSet) {
  // N identical queries: the setup builds the group's one candidate set at
  // their k, every member parks a segment over it, and the batched
  // finalization sorts it once for all of them.
  const u64 n = 1 << 16;
  auto v = data::generate(n, Distribution::kUniform, 131);
  plant_hot_run(v, 4096, 256);  // more than k candidates: stage 4 runs
  std::span<const u32> vs(v.data(), v.size());
  const auto expect = widen(reference_topk(vs, 100));

  ServerConfig cfg;
  cfg.executors = 1;  // deterministic grouping: one group
  cfg.batch_max = 8;
  TopkServer server(shared_device(), cfg);

  std::vector<Query> queries;
  for (int i = 0; i < 8; ++i) queries.push_back(Query::view(vs, 100));
  auto results = server.run_batch(queries);
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].values, expect) << i;
    EXPECT_EQ(results[i].kth, expect.back()) << i;
  }

  const ServerStats s = server.stats();
  EXPECT_EQ(s.completed, 8u);
  EXPECT_EQ(s.failed, 0u);
  EXPECT_EQ(s.deduped_queries, 7u);
  // Everyone was delivered by the one batched finalization launch.
  EXPECT_EQ(s.batched_queries, 8u);
  EXPECT_EQ(s.batched_groups, 1u);
  EXPECT_EQ(s.finalize_launches, 1u);
}

TEST(Serve, DedupMixedIdenticalAndDistinctQueries) {
  // Every member answers from the group's one candidate set, built at the
  // largest k; only a repeated k counts as deduplicated, and everyone stays
  // exact.
  const u64 n = 1 << 16;
  auto v = data::generate(n, Distribution::kUniform, 133);
  std::span<const u32> vs(v.data(), v.size());

  ServerConfig cfg;
  cfg.executors = 1;
  cfg.batch_max = 8;
  TopkServer server(shared_device(), cfg);

  std::vector<Query> queries;
  for (int i = 0; i < 4; ++i) queries.push_back(Query::view(vs, 64));
  for (u64 k : {u64{33}, u64{128}, u64{256}, u64{512}})
    queries.push_back(Query::view(vs, k));
  auto results = server.run_batch(queries);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(results[i].values, widen(reference_topk(vs, queries[i].k)))
        << i;
    EXPECT_EQ(results[i].breakdown.concat_len,
              results[0].breakdown.concat_len)
        << i;
  }

  const ServerStats s = server.stats();
  EXPECT_EQ(s.deduped_queries, 3u);  // the three repeats of k=64
  EXPECT_EQ(s.failed, 0u);
  EXPECT_EQ(s.concat_launches, 1u);  // one stage-3 launch
}

TEST(Serve, DedupSelectionOnlySharesTheSpanNotTheEmission) {
  // Same k, mixed selection_only: all six answer from the one set, but each
  // segment keeps its own emission contract — full lists stay full, the
  // selection-only answers carry just the k-th.
  auto v = data::generate(1 << 15, Distribution::kUniform, 137);
  std::span<const u32> vs(v.data(), v.size());
  const auto full = widen(reference_topk(vs, 77));

  ServerConfig cfg;
  cfg.executors = 1;
  cfg.batch_max = 8;
  TopkServer server(shared_device(), cfg);

  std::vector<Query> queries;
  for (int i = 0; i < 3; ++i) queries.push_back(Query::view(vs, 77));
  for (int i = 0; i < 3; ++i)
    queries.push_back(Query::view(vs, 77, Criterion::kLargest,
                                  /*selection_only=*/true));
  auto results = server.run_batch(queries);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(results[i].values, full) << i;
  for (int i = 3; i < 6; ++i) {
    ASSERT_EQ(results[i].values.size(), 1u) << i;
    EXPECT_EQ(results[i].kth, full.back()) << i;
  }
  const ServerStats s = server.stats();
  EXPECT_EQ(s.deduped_queries, 5u);
}

TEST(Serve, OneSetServesPaddedAndParkedMembersOfOneGroup) {
  // The group's set at kride = 256 is the 100-key hot run above the
  // plateau: the members asking for fewer than 100 keys park on it and
  // share one sort, the others pad it with copies of the plateau key.
  const auto v = plateau_with_hot_run(u64{1} << 13, 100);
  std::span<const u32> vs(v);
  const u64 parked = expect_one_set_group<u32>(vs, {}, Criterion::kLargest,
                                               "plateau");
  EXPECT_EQ(parked, 3u);  // k = 16, 64 and the selection-only 64
}

TEST(Serve, OneSetRuleHoldsAcrossInputsWidthsAndBases) {
  // Every input, key width, criterion and stage-3 base through the one-set
  // rule: tie-aware (the default) and inclusive (the three-pass base and
  // the Rule-2 ablation, whose set holds the top-kride and more).
  const u64 n = u64{1} << 13;  // every inclusive set fits one finalize CTA
  const auto input = [n](const std::string& name) -> std::vector<u32> {
    const auto gen = [n](Distribution d, u64 seed) {
      const auto g = data::generate(n, d, seed);
      return std::vector<u32>(g.begin(), g.end());
    };
    if (name == "UD") return gen(Distribution::kUniform, 241);
    if (name == "ND") return gen(Distribution::kNormal, 242);
    if (name == "CD") return gen(Distribution::kCustomized, 243);
    std::vector<u32> v(n, 42u);
    if (name == "four")
      for (u64 i = 0; i < n; ++i)
        v[i] = 1000u * (1 + static_cast<u32>(data::rand_u32(244, i) % 4));
    return v;
  };
  core::DrTopkConfig three_pass;
  three_pass.fused_concat = false;
  core::DrTopkConfig no_filter;
  no_filter.filtering = false;
  const std::vector<std::pair<std::string, core::DrTopkConfig>> bases = {
      {"tie-aware", {}}, {"three-pass", three_pass}, {"no-filter", no_filter}};
  for (const std::string name : {"UD", "ND", "CD", "equal", "four"}) {
    const std::vector<u32> v = input(name);
    // The same values as u64 keys (order and ties kept).
    std::vector<u64> w(v.begin(), v.end());
    for (u64& x : w) x *= 0x1'0000'0001ull;
    for (const auto& [bname, base] : bases) {
      const std::string at = name + " " + bname;
      expect_one_set_group<u32>(std::span<const u32>(v), base,
                                Criterion::kLargest, at + " u32");
      expect_one_set_group<u64>(std::span<const u64>(w), base,
                                Criterion::kLargest, at + " u64");
      expect_one_set_group<u32>(std::span<const u32>(v), base,
                                Criterion::kSmallest, at + " smallest");
    }
  }
}

TEST(Serve, SortedCorpusGroupPaysOneStage3Launch) {
  // Sorted keys: every subrange above kappa qualifies, so the group's one
  // set is as large as the stage-3 capacity bound gets (and the bound is
  // tight there). The warmed group still pays exactly one stage-3 launch
  // and every member, parked or padded, is oracle-exact.
  const auto g = data::generate(u64{1} << 16, Distribution::kUniform, 245);
  std::vector<u32> v(g.begin(), g.end());
  std::sort(v.begin(), v.end());
  std::span<const u32> vs(v);
  for (const Criterion c : {Criterion::kLargest, Criterion::kSmallest}) {
    ServerConfig cfg;
    cfg.executors = 1;  // deterministic grouping: one group per batch
    cfg.batch_max = 16;
    TopkServer server(shared_device(), cfg);
    const std::vector<Query> qs = one_set_queries(vs, c);
    (void)server.run_batch(qs);  // warm: plans calibrate, arenas grow
    const ServerStats warm = server.stats();
    const auto rs = server.run_batch(qs);
    const ServerStats after = server.stats();
    EXPECT_EQ(after.groups - warm.groups, 1u);
    EXPECT_EQ(after.concat_launches - warm.concat_launches, 1u);
    for (size_t i = 0; i < qs.size(); ++i) {
      EXPECT_EQ(rs[i].values, oracle(qs[i])) << i;
      EXPECT_TRUE(rs[i].fused) << i;
      EXPECT_GT(rs[i].breakdown.concat_len, 0u) << i;
    }
    EXPECT_EQ(after.failed, 0u);
  }
}

TEST(Serve, StreamedJoinerAboveTheSnapshotKmaxBuildsTheSet) {
  // A query that joins while its group's delegate vector is built may ask
  // for more than the setup snapshot's largest k. When the vector holds
  // its top-k it rides: the group's one set is built at ITS k, and the
  // snapshot's smaller member answers exactly from that set too. Arrival
  // order is a race, so the attempt repeats until the joiner arrived after
  // the snapshot (the plan cache then holds only the snapshot k's shape).
  const u64 n = u64{1} << 18;
  auto v = data::generate(n, Distribution::kUniform, 251);
  std::span<const u32> vs(v.data(), v.size());
  const u64 k_snap = 8, k_join = 48;
  const auto want_snap = widen(reference_topk(vs, k_snap));
  const auto want_join = widen(reference_topk(vs, k_join));
  bool seen = false;
  for (int attempt = 0; attempt < 20 && !seen; ++attempt) {
    ServerConfig cfg;
    cfg.executors = 1;
    TopkServer server(shared_device(), cfg);
    auto f_snap = server.submit(Query::view(vs, k_snap));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    auto f_join = server.submit(Query::view(vs, k_join));
    const QueryResult r_snap = f_snap.get();
    const QueryResult r_join = f_join.get();
    ASSERT_EQ(r_snap.values, want_snap) << "attempt " << attempt;
    ASSERT_EQ(r_join.values, want_join) << "attempt " << attempt;
    server.drain();
    const auto plans = server.plan_cache().entries();
    const bool after_snapshot =
        server.stats().groups == 1 && plans.size() == 1 &&
        plans.front().first ==
            PlanCache::make_key(vs, k_snap, Criterion::kLargest);
    if (!after_snapshot || !r_join.fused) continue;
    seen = true;
    EXPECT_TRUE(r_snap.fused);
    EXPECT_EQ(r_snap.breakdown.concat_len, r_join.breakdown.concat_len);
    EXPECT_GE(r_join.breakdown.concat_len, k_join - 1);
  }
  EXPECT_TRUE(seen) << "no joiner arrived after the setup snapshot";
}

TEST(Serve, RecallTargetMembersTakePrefixesOfTheKrideAnswer) {
  // A recall-target group's stage-2 launch emits the sorted top-kride of
  // the delegate vector, and each member's per-partition answer is its
  // k-prefix: no stage-3 or finalize launch, and every member meets the
  // target against the oracle.
  const u64 n = u64{1} << 18;
  auto v = data::generate(n, Distribution::kUniform, 261);
  std::span<const u32> vs(v.data(), v.size());
  const double rho = 0.9;

  ServerConfig cfg;
  cfg.executors = 1;  // deterministic grouping: one group
  cfg.batch_max = 8;
  TopkServer server(shared_device(), cfg);
  std::vector<Query> queries;
  for (const u64 k : {u64{64}, u64{256}, u64{1024}, u64{256}})
    queries.push_back(Query::view(vs, k).with_recall(rho));
  queries.push_back(Query::view(vs, 1024, Criterion::kLargest,
                                /*selection_only=*/true)
                        .with_recall(rho));
  const auto results = server.run_batch(queries);
  const std::vector<u64>& top = results[2].values;  // kride = 1024
  ASSERT_EQ(top.size(), 1024u);
  for (size_t i = 0; i < queries.size(); ++i) {
    const QueryResult& r = results[i];
    const u64 k = queries[i].k;
    EXPECT_TRUE(r.fused) << i;
    EXPECT_TRUE(r.breakdown.second_skipped) << i;
    EXPECT_EQ(r.breakdown.concat_len, 1024u) << i;
    if (queries[i].selection_only) {
      EXPECT_EQ(r.values, std::vector<u64>{top[k - 1]}) << i;
      continue;
    }
    ASSERT_EQ(r.values.size(), k) << i;
    EXPECT_TRUE(std::equal(r.values.begin(), r.values.end(), top.begin()))
        << i;
    EXPECT_GE(recall_of(r.values, widen(reference_topk(vs, k))), rho) << i;
  }
  const ServerStats s = server.stats();
  EXPECT_EQ(s.groups, 1u);
  EXPECT_EQ(s.concat_launches, 0u);
  EXPECT_EQ(s.finalize_launches, 0u);
  EXPECT_EQ(s.deduped_queries, 2u);  // the repeats of 256 and 1024
}

TEST(Serve, TieAwareGroupSelfServesWithPaddingOnCd) {
  // CD holds 2^18 / 256 = 1024 copies of the maximum key, so every
  // member's exact kappa is that maximum: no key lies strictly above it,
  // the setup's batched stage 3 gets no segment, and every member answers
  // k copies of kappa on the host. No concat and no finalize launch.
  auto v = data::generate(1 << 18, Distribution::kCustomized, 141);
  std::span<const u32> vs(v.data(), v.size());

  ServerConfig cfg;
  cfg.executors = 1;  // deterministic grouping: one group
  cfg.batch_max = 8;
  TopkServer server(shared_device(), cfg);

  std::vector<Query> queries;
  for (const u64 k : {u64{16}, u64{64}, u64{256}, u64{64}})
    queries.push_back(Query::view(vs, k));
  queries.push_back(Query::view(vs, 64, Criterion::kLargest,
                                /*selection_only=*/true));
  auto results = server.run_batch(queries);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(results[i].values, oracle(queries[i])) << i;
    EXPECT_TRUE(results[i].breakdown.second_skipped) << i;
    EXPECT_EQ(results[i].breakdown.concat_len, 0u) << i;
  }
  const ServerStats s = server.stats();
  EXPECT_EQ(s.completed, queries.size());
  EXPECT_EQ(s.groups, 1u);
  EXPECT_EQ(s.finalize_launches, 0u);
  EXPECT_EQ(s.batched_groups, 0u);
  EXPECT_EQ(s.concat_launches, 0u);
}

TEST(Serve, SetupFailureFallsBackCountedAndTraced) {
  // One failed construct launch in a served group's setup: the group falls
  // back to the unshared per-query pipeline, every member still answers
  // oracle-exact, and the fallback shows in ServerStats, the Prometheus
  // text and a trace instant carrying the exception text.
  auto v = data::generate(1 << 16, Distribution::kUniform, 143);
  std::span<const u32> vs(v.data(), v.size());

  vgpu::Device dev(vgpu::GpuProfile::v100s());  // private launch ledger
  ServerConfig cfg;
  cfg.executors = 1;  // deterministic grouping: one group
  cfg.batch_max = 8;
  cfg.obs.tracing = true;
  TopkServer server(dev, cfg);
  dev.fail_next_launches("construct", 1);

  std::vector<Query> queries;
  for (const u64 k : {u64{16}, u64{100}, u64{100}, u64{700}})
    queries.push_back(Query::view(vs, k));
  auto results = server.run_batch(queries);
  server.drain();
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(results[i].values, oracle(queries[i])) << i;
    EXPECT_FALSE(results[i].fused) << i;
  }
  const ServerStats s = server.stats();
  EXPECT_EQ(s.setup_fallbacks, 1u);
  EXPECT_EQ(s.failed, 0u);
  EXPECT_NE(server.metrics_prometheus().find("serve_setup_fallbacks 1\n"),
            std::string::npos);
  EXPECT_EQ(dev.unattributed_launches(), 0u);
  u64 instants = 0;
  for (const auto& [lane, span] : server.tracer().snapshot()) {
    if (std::string_view(span.name) != "setup-fallback") continue;
    ++instants;
    EXPECT_NE(span.detail.find("injected launch failure (stage construct)"),
              std::string::npos)
        << span.detail;
  }
  EXPECT_EQ(instants, 1u);

  // The seam is spent: the next group sets up normally.
  (void)server.run_batch(queries);
  EXPECT_EQ(server.stats().setup_fallbacks, 1u);
}

TEST(Serve, FailedSetupLaunchOnTheOneSetPathFallsBackExact) {
  // A failed kappa ("first") or stage-3 ("concat") launch in a warmed
  // group's setup: the group falls back to the unshared per-query
  // pipeline, counted in serve_setup_fallbacks, and every member (padded
  // and parked alike on the one-set path) answers oracle-exact. The spent
  // seam leaves the next group on the one-set path.
  const auto v = plateau_with_hot_run(u64{1} << 13, 100);
  std::span<const u32> vs(v);
  const std::vector<Query> queries = one_set_queries(vs, Criterion::kLargest);
  for (const char* stage : {"first", "concat"}) {
    vgpu::Device dev(vgpu::GpuProfile::v100s());  // private fault seam
    ServerConfig cfg;
    cfg.executors = 1;  // deterministic grouping: one group per batch
    cfg.batch_max = 8;
    TopkServer server(dev, cfg);
    (void)server.run_batch(queries);  // warm: the plan is cached
    dev.fail_next_launches(stage, 1);
    auto results = server.run_batch(queries);
    server.drain();
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(results[i].values, oracle(queries[i])) << stage << " " << i;
      EXPECT_FALSE(results[i].fused) << stage << " " << i;
    }
    ServerStats s = server.stats();
    EXPECT_EQ(s.setup_fallbacks, 1u) << stage;
    EXPECT_EQ(s.failed, 0u) << stage;
    EXPECT_NE(server.metrics_prometheus().find("serve_setup_fallbacks 1\n"),
              std::string::npos)
        << stage;

    results = server.run_batch(queries);
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(results[i].values, oracle(queries[i])) << stage << " " << i;
      EXPECT_TRUE(results[i].fused) << stage << " " << i;
    }
    s = server.stats();
    EXPECT_EQ(s.setup_fallbacks, 1u) << stage;
    EXPECT_EQ(s.failed, 0u) << stage;
  }
}

TEST(Serve, FailedFinalizeLaunchFailsOnlyTheParkedMembers) {
  // A failed batched finalization ("second"): every member parked on the
  // group's one set gets the launch's exception and is counted in
  // `failed`, the members that padded the set on the host still answer,
  // and drain() returns. Once disarmed, the next batch is exact.
  const auto v = plateau_with_hot_run(u64{1} << 13, 100);
  std::span<const u32> vs(v);
  const std::vector<Query> queries = one_set_queries(vs, Criterion::kLargest);
  vgpu::Device dev(vgpu::GpuProfile::v100s());  // private fault seam
  ServerConfig cfg;
  cfg.executors = 1;  // deterministic grouping: one group per batch
  cfg.batch_max = 8;
  TopkServer server(dev, cfg);
  (void)server.run_batch(queries);  // warm
  const ServerStats warm = server.stats();

  dev.fail_next_launches("second", 1000);
  auto futures = server.submit_many(queries);
  server.drain();
  u64 parked = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    if (queries[i].k < 100) {  // below the set's 100 keys: parked
      ++parked;
      EXPECT_THROW((void)futures[i].get(), std::runtime_error) << i;
    } else {
      EXPECT_EQ(futures[i].get().values, oracle(queries[i])) << i;
    }
  }
  ServerStats s = server.stats();
  EXPECT_EQ(parked, 3u);
  EXPECT_EQ(s.failed, parked);
  EXPECT_EQ(s.completed - warm.completed, queries.size() - parked);
  EXPECT_EQ(s.setup_fallbacks, 0u);

  dev.fail_next_launches("second", 0);
  const auto results = server.run_batch(queries);
  for (size_t i = 0; i < queries.size(); ++i)
    EXPECT_EQ(results[i].values, oracle(queries[i])) << i;
  s = server.stats();
  EXPECT_EQ(s.failed, parked);
  EXPECT_EQ(s.completed - warm.completed, 2 * queries.size() - parked);
}

TEST(Serve, EachGroupFinalizesInItsOwnLaunch) {
  // Two admission groups on DIFFERENT corpora served concurrently (two
  // independent sets, not siblings): the executor that finishes a set's
  // last item finalizes that set's parked queries in one batched launch of
  // its own, so finalization launches track finalized sets one for one
  // (small, single-CTA candidate segments) and never merge across
  // corpora.
  const u64 n = 1 << 15;
  auto va = data::generate(n, Distribution::kUniform, 151);
  auto vb = data::generate(n, Distribution::kNormal, 152);
  std::span<const u32> as(va.data(), va.size());
  std::span<const u32> bs(vb.data(), vb.size());

  ServerConfig cfg;
  cfg.executors = 2;
  cfg.batch_max = 4;
  TopkServer server(shared_device(), cfg);

  std::vector<Query> queries;
  for (u64 k : {u64{32}, u64{64}, u64{96}, u64{128}})
    queries.push_back(Query::view(as, k));
  for (u64 k : {u64{32}, u64{64}, u64{96}, u64{128}})
    queries.push_back(Query::view(bs, k));
  auto results = server.run_batch(queries);
  for (size_t i = 0; i < 4; ++i)
    EXPECT_EQ(results[i].values, widen(reference_topk(as, queries[i].k)))
        << i;
  for (size_t i = 4; i < 8; ++i)
    EXPECT_EQ(results[i].values, widen(reference_topk(bs, queries[i].k)))
        << i;

  const ServerStats s = server.stats();
  EXPECT_EQ(s.failed, 0u);
  EXPECT_EQ(s.groups, 2u);
  EXPECT_EQ(s.finalize_launches, s.batched_groups);
}

TEST(Serve, SpanLifetimeStressAcrossGroups) {
  // Span-lifetime stress: executors steal items across groups, so a
  // set's last finisher finalizes candidate spans that other executors
  // parked — its arena-backed spans (shared by repeated ks included) must
  // stay valid until the set's launch consumes them. Several rounds over
  // four corpora with duplicate queries; everything must stay exact with
  // zero failures.
  const u64 n = 1 << 14;
  std::vector<vgpu::device_vector<u32>> corpora;
  for (u64 t = 0; t < 4; ++t)
    corpora.push_back(data::generate(n, Distribution::kUniform, 161 + t));

  ServerConfig cfg;
  cfg.executors = 3;
  cfg.batch_max = 4;
  TopkServer server(shared_device(), cfg);

  for (int round = 0; round < 4; ++round) {
    std::vector<Query> queries;
    for (u64 t = 0; t < 4; ++t) {
      std::span<const u32> vs(corpora[t].data(), corpora[t].size());
      queries.push_back(Query::view(vs, 40));
      queries.push_back(Query::view(vs, 40));  // repeated k: shared span
      queries.push_back(Query::view(vs, 80));
      queries.push_back(Query::view(vs, 120));
    }
    auto results = server.run_batch(queries);
    for (size_t i = 0; i < queries.size(); ++i) {
      std::span<const u32> vs = queries[i].data32();
      ASSERT_EQ(results[i].values,
                widen(reference_topk(vs, queries[i].k)))
          << "round " << round << " query " << i;
    }
  }
  const ServerStats s = server.stats();
  EXPECT_EQ(s.failed, 0u);
  EXPECT_EQ(s.completed, 64u);
  EXPECT_GE(s.deduped_queries, 1u);
}

TEST(Serve, ParityMatrixAgainstReference) {
  // The acceptance parity matrix: distributions x widths x criteria x
  // selection_only x repeated and distinct ks, served concurrently through
  // the batched setup, the shared stage-3 spans and the batched
  // finalization — every answer bit-identical to the CPU oracle.
  auto a = data::generate(1 << 15, Distribution::kUniform, 181);
  auto b = data::generate((1 << 14) + 99, Distribution::kNormal, 182);
  auto c = data::generate(1 << 14, Distribution::kCustomized, 183);
  std::vector<u64> d(1 << 13);
  for (u64 i = 0; i < d.size(); ++i) d[i] = data::rand_u64(184, i);
  std::span<const u32> as(a.data(), a.size());
  std::span<const u32> bs(b.data(), b.size());
  std::span<const u32> cs(c.data(), c.size());
  std::span<const u64> dsn(d.data(), d.size());

  std::vector<Query> queries;
  for (int rep = 0; rep < 3; ++rep) {  // each k three times per corpus
    for (u64 k : {u64{1}, u64{33}, u64{512}, u64{1000}}) {
      queries.push_back(Query::view(as, k));
      queries.push_back(Query::view(bs, k, Criterion::kSmallest));
      queries.push_back(Query::view(cs, k, Criterion::kLargest,
                                    /*selection_only=*/true));
      queries.push_back(Query::view(dsn, k));
    }
  }

  ServerConfig cfg;
  cfg.executors = 3;
  TopkServer server(shared_device(), cfg);
  const auto results = server.run_batch(queries);
  ASSERT_EQ(results.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    const std::vector<u64> expect = oracle(queries[i]);
    EXPECT_EQ(results[i].values, expect) << "query " << i;
    EXPECT_EQ(results[i].kth, expect.back()) << "query " << i;
  }
  const ServerStats s = server.stats();
  EXPECT_EQ(s.failed, 0u);
  EXPECT_GE(s.concat_launches, 1u);
  EXPECT_GE(s.deduped_queries, 1u);
}

TEST(Serve, Stage3OneLaunchPerWarmedGroup) {
  // THE launch-count regression test: a warmed group of 16 distinct-k
  // queries costs ONE stage-3 launch and ~4 device launches total —
  // construct, batched kappa, stage 3, batched finalize. Member queries
  // launch nothing.
  const u64 n = 1 << 16;
  auto v = data::generate(n, Distribution::kUniform, 191);
  std::span<const u32> vs(v.data(), v.size());

  vgpu::Device dev(vgpu::GpuProfile::v100s());  // private launch ledger
  ServerConfig cfg;
  cfg.executors = 1;  // deterministic grouping: one group per batch
  cfg.batch_max = 16;
  TopkServer server(dev, cfg);

  std::vector<Query> queries;
  for (u64 i = 0; i < 16; ++i) queries.push_back(Query::view(vs, 32 * (i + 1)));

  (void)server.run_batch(queries);  // warm: plans calibrate, arenas grow
  (void)server.run_batch(queries);
  const ServerStats warm = server.stats();
  const u64 warm_launches = dev.total_stats().kernels_launched;

  const u64 rounds = 3;
  for (u64 r = 0; r < rounds; ++r) {
    auto results = server.run_batch(queries);
    for (size_t i = 0; i < queries.size(); ++i)
      ASSERT_EQ(results[i].values, widen(reference_topk(vs, queries[i].k)))
          << i;
  }
  const ServerStats after = server.stats();
  const u64 groups = after.groups - warm.groups;
  EXPECT_EQ(groups, rounds);
  // Exactly one stage-3 launch per group, regardless of the 16 member ks.
  EXPECT_EQ(after.concat_launches - warm.concat_launches, groups);
  EXPECT_EQ(after.finalize_launches - warm.finalize_launches, groups);
  EXPECT_EQ(after.relax_guard_trips, 0u);  // exact kappas: guard never fires
  // The whole-pipeline launch budget: at most 6 launches per group — vs
  // 16 queries * ~2 stage-3 launches each on the per-query path.
  const u64 launches = dev.total_stats().kernels_launched - warm_launches;
  EXPECT_LE(launches, 6 * groups);
  const double lpq = static_cast<double>(launches) /
                     static_cast<double>(queries.size() * rounds);
  EXPECT_LT(lpq, 0.5);
}

/// Launches `dev` has recorded under the stage label `stage`.
u64 stage_launches(const vgpu::Device& dev, const std::string& stage) {
  for (const vgpu::StageStats& st : dev.stage_stats())
    if (st.stage == stage) return st.stats.kernels_launched;
  return 0;
}

/// A burst of `count` compatible queries for a sibling-set test: twelve
/// distinct ks, then repeats of them; query 5 is selection-only.
template <class T>
std::vector<Query> sibling_burst(std::span<const T> vs, u64 count,
                                 Criterion c) {
  std::vector<Query> qs;
  for (u64 i = 0; i < count; ++i)
    qs.push_back(Query::view(vs, 16 + 20 * (i % 12), c,
                             /*selection_only=*/i == 5));
  return qs;
}

/// Serves sibling_burst(vs, count, c) through a warmed server with
/// batch_max 16 and checks, per round, that the ceil(count / 16) groups
/// the burst fills share ONE setup and ONE finalization: one construction
/// (plus its directed-key conversion under kSmallest, also a "construct"
/// launch), one kappa ("first"), one stage-3 ("concat") and one finalize
/// ("second") launch for members parked in every group, every answer
/// oracle-exact and fused, and the members' latencies summing to the
/// device's simulated time.
template <class T>
void expect_one_setup_per_burst(std::span<const T> vs, Criterion c,
                                u32 executors, const std::string& tag) {
  vgpu::Device dev(vgpu::GpuProfile::v100s());  // private launch ledger
  ServerConfig cfg;
  cfg.executors = executors;
  cfg.batch_max = 16;
  TopkServer server(dev, cfg);
  const u64 construct = topk::key_is_identity<T>(c) ? 1 : 2;
  for (const u64 count : {u64{32}, u64{40}}) {
    const std::vector<Query> qs = sibling_burst(vs, count, c);
    (void)server.run_batch(qs);  // warm: plans calibrate, arenas grow
    const u64 groups = (count + 15) / 16;
    for (int round = 0; round < 2; ++round) {
      const std::string at = tag + " count " + std::to_string(count) +
                             " round " + std::to_string(round);
      std::map<std::string, u64> before;
      for (const char* stage : {"construct", "first", "concat", "second"})
        before[stage] = stage_launches(dev, stage);
      const double sim0 = dev.total_sim_ms();
      const ServerStats s0 = server.stats();
      const auto rs = server.run_batch(qs);
      const ServerStats s1 = server.stats();
      std::vector<bool> group_parked(groups, false);
      u64 parked = 0;
      double latency = 0.0;
      for (size_t i = 0; i < qs.size(); ++i) {
        EXPECT_EQ(rs[i].values, oracle(qs[i])) << at << " query " << i;
        EXPECT_TRUE(rs[i].fused) << at << " query " << i;
        // submit_many fills the groups in order, batch_max at a time.
        if (!rs[i].breakdown.second_skipped) {
          group_parked[i / 16] = true;
          ++parked;
        }
        latency += rs[i].latency_sim_ms;
      }
      // Members of every group park, and one launch finalizes them all.
      EXPECT_EQ(std::count(group_parked.begin(), group_parked.end(), true),
                static_cast<std::ptrdiff_t>(groups))
          << at;
      EXPECT_EQ(stage_launches(dev, "construct") - before["construct"],
                construct)
          << at;
      EXPECT_EQ(stage_launches(dev, "first") - before["first"], 1u) << at;
      EXPECT_EQ(stage_launches(dev, "concat") - before["concat"], 1u) << at;
      EXPECT_EQ(stage_launches(dev, "second") - before["second"], 1u) << at;
      EXPECT_EQ(s1.groups - s0.groups, groups) << at;
      EXPECT_EQ(s1.shared_setup_groups - s0.shared_setup_groups, groups - 1)
          << at;
      EXPECT_EQ(s1.finalize_launches - s0.finalize_launches, 1u) << at;
      EXPECT_EQ(s1.batched_groups - s0.batched_groups, 1u) << at;
      EXPECT_EQ(s1.batched_queries - s0.batched_queries, parked) << at;
      const double device = dev.total_sim_ms() - sim0;
      EXPECT_NEAR(latency, device, 1e-9 * device) << at;
    }
  }
  const ServerStats s = server.stats();
  EXPECT_EQ(s.failed, 0u) << tag;
  EXPECT_EQ(s.setup_fallbacks, 0u) << tag;
  EXPECT_EQ(dev.unattributed_launches(), 0u) << tag;
}

TEST(Serve, SiblingGroupsShareOneSetup) {
  // A burst larger than batch_max fills one group and opens siblings of
  // it: they claim no setup of their own, so the whole burst pays one
  // construction, one kappa, one stage-3 and one finalize launch.
  auto v = data::generate(u64{1} << 16, Distribution::kUniform, 271);
  plant_hot_run(v, 4096, 256);  // more candidates than any k: members park
  std::span<const u32> vs(v.data(), v.size());
  std::vector<u64> w(u64{1} << 15);
  for (u64 i = 0; i < w.size(); ++i) w[i] = data::rand_u64(272, i);
  for (const u32 executors : {1u, 3u}) {
    const std::string ex = " executors " + std::to_string(executors);
    expect_one_setup_per_burst<u32>(vs, Criterion::kLargest, executors,
                                    "u32 largest" + ex);
    expect_one_setup_per_burst<u64>(std::span<const u64>(w),
                                    Criterion::kSmallest, executors,
                                    "u64 smallest" + ex);
  }
}

TEST(Serve, RecallTargetSiblingAnswersFromTheFirstGroupsGeometry) {
  // serve-approx's corpus-0 shape at rho 0.9: a first group of 16 whose
  // largest k is 2,474 and a sibling of 10 whose largest is 1,923. The
  // sibling answers from the first group's delegate vector, sized at
  // 2,474, and every member still meets its target.
  const u64 n = u64{1} << 20;
  auto v = data::generate(n, Distribution::kUniform, 273);
  std::span<const u32> vs(v.data(), v.size());
  const double rho = 0.9;
  const std::vector<u64> first = {256, 329,  424, 545,  702, 903,
                                  1162, 1495, 1923, 2474, 256, 545,
                                  903,  1495, 2474, 424};
  const std::vector<u64> sibling = {1923, 256, 329, 424, 545,
                                    702,  903, 1162, 1495, 702};
  std::vector<Query> qs;
  for (const u64 k : first) qs.push_back(Query::view(vs, k).with_recall(rho));
  for (const u64 k : sibling)
    qs.push_back(Query::view(vs, k).with_recall(rho));

  vgpu::Device dev(vgpu::GpuProfile::v100s());  // private launch ledger
  ServerConfig cfg;
  cfg.executors = 1;
  cfg.batch_max = 16;
  TopkServer server(dev, cfg);
  const auto rs = server.run_batch(qs);

  core::DrTopkConfig base;
  base.fidelity = core::FidelityPolicy::approx(rho);
  const core::DelegateGeometry geo = core::resolve_geometry(n, 2474, base);
  ASSERT_GE(geo.alpha, 0);
  const std::vector<u32> top = reference_topk(vs, 2474);
  for (size_t i = 0; i < qs.size(); ++i) {
    const u64 k = qs[i].k;
    EXPECT_TRUE(rs[i].fused) << i;
    EXPECT_EQ(rs[i].breakdown.alpha, geo.alpha) << i;
    EXPECT_EQ(rs[i].breakdown.beta, geo.beta) << i;
    ASSERT_EQ(rs[i].values.size(), k) << i;
    const std::vector<u64> want(top.begin(), top.begin() + k);
    EXPECT_GE(recall_of(rs[i].values, want), rho) << i << " k=" << k;
  }
  const ServerStats s = server.stats();
  EXPECT_EQ(s.groups, 2u);
  EXPECT_EQ(s.shared_setup_groups, 1u);
  EXPECT_EQ(stage_launches(dev, "construct"), 1u);
  EXPECT_EQ(stage_launches(dev, "first"), 1u);
  EXPECT_EQ(s.concat_launches, 0u);
  EXPECT_EQ(s.finalize_launches, 0u);
}

TEST(Serve, SiblingSetupFaultsFallBackOnceOrFailTyped) {
  // A 32-query burst fills a group and its sibling. A construct, kappa
  // ("first") or stage-3 ("concat") launch that fails once makes the ONE
  // shared setup fall back: one serve_setup_fallbacks for both groups, and
  // every member answers oracle-exact from its own pipeline. A sticky
  // fault fails that pipeline too, so every future ends in the launch's
  // typed exception. drain() returns either way, and once disarmed the
  // next burst shares one setup again.
  auto v = data::generate(u64{1} << 16, Distribution::kUniform, 275);
  std::span<const u32> vs(v.data(), v.size());
  const std::vector<Query> qs = sibling_burst(vs, 32, Criterion::kLargest);
  for (const char* stage : {"construct", "first", "concat"}) {
    for (const u64 count : {u64{1}, u64{1000}}) {
      const std::string at =
          std::string(stage) + " x" + std::to_string(count);
      vgpu::Device dev(vgpu::GpuProfile::v100s());  // private fault seam
      ServerConfig cfg;
      cfg.executors = 2;
      cfg.batch_max = 16;
      TopkServer server(dev, cfg);
      (void)server.run_batch(qs);  // warm: the plan is cached
      dev.fail_next_launches(stage, count);
      auto futures = server.submit_many(qs);
      server.drain();
      for (size_t i = 0; i < qs.size(); ++i) {
        if (count == 1) {
          const QueryResult r = futures[i].get();
          EXPECT_EQ(r.values, oracle(qs[i])) << at << " query " << i;
          EXPECT_FALSE(r.fused) << at << " query " << i;
        } else {
          EXPECT_THROW((void)futures[i].get(), std::runtime_error)
              << at << " query " << i;
        }
      }
      ServerStats s = server.stats();
      EXPECT_EQ(s.setup_fallbacks, 1u) << at;
      EXPECT_EQ(s.failed, count == 1 ? 0u : qs.size()) << at;
      EXPECT_NE(server.metrics_prometheus().find("serve_setup_fallbacks 1\n"),
                std::string::npos)
          << at;

      dev.fail_next_launches(stage, 0);
      const u64 constructs = stage_launches(dev, "construct");
      const auto rs = server.run_batch(qs);
      for (size_t i = 0; i < qs.size(); ++i) {
        EXPECT_EQ(rs[i].values, oracle(qs[i])) << at << " query " << i;
        EXPECT_TRUE(rs[i].fused) << at << " query " << i;
      }
      EXPECT_EQ(stage_launches(dev, "construct") - constructs, 1u) << at;
      s = server.stats();
      EXPECT_EQ(s.setup_fallbacks, 1u) << at;
    }
  }
}

TEST(Serve, SiblingSetFinalizeFaultFailsEveryParkedMember) {
  // The sibling set's one finalize launch serves the parked members of
  // both groups, so when it fails every one of them gets the launch's
  // exception, counted in `failed`, while members answered on the host
  // still answer; drain() returns. Once disarmed, one launch finalizes the
  // next burst again.
  auto v = data::generate(u64{1} << 16, Distribution::kUniform, 279);
  plant_hot_run(v, 4096, 256);  // more candidates than any k: members park
  std::span<const u32> vs(v.data(), v.size());
  const std::vector<Query> qs = sibling_burst(vs, 32, Criterion::kLargest);
  vgpu::Device dev(vgpu::GpuProfile::v100s());  // private fault seam
  ServerConfig cfg;
  cfg.executors = 2;
  cfg.batch_max = 16;
  TopkServer server(dev, cfg);
  const auto warm_rs = server.run_batch(qs);  // warm: the plan is cached
  std::vector<bool> parks(qs.size());
  std::vector<bool> group_parks(2, false);
  for (size_t i = 0; i < qs.size(); ++i) {
    parks[i] = !warm_rs[i].breakdown.second_skipped;
    if (parks[i]) group_parks[i / 16] = true;
  }
  ASSERT_TRUE(group_parks[0] && group_parks[1]);
  const u64 parked =
      static_cast<u64>(std::count(parks.begin(), parks.end(), true));
  const ServerStats warm = server.stats();

  dev.fail_next_launches("second", 1);
  auto futures = server.submit_many(qs);
  server.drain();
  for (size_t i = 0; i < qs.size(); ++i) {
    if (parks[i]) {
      EXPECT_THROW((void)futures[i].get(), std::runtime_error) << i;
    } else {
      EXPECT_EQ(futures[i].get().values, oracle(qs[i])) << i;
    }
  }
  ServerStats s = server.stats();
  EXPECT_EQ(s.failed, parked);
  EXPECT_EQ(s.completed - warm.completed, qs.size() - parked);
  EXPECT_EQ(s.setup_fallbacks, 0u);

  const u64 seconds = stage_launches(dev, "second");
  const auto rs = server.run_batch(qs);
  for (size_t i = 0; i < qs.size(); ++i)
    EXPECT_EQ(rs[i].values, oracle(qs[i])) << i;
  EXPECT_EQ(stage_launches(dev, "second") - seconds, 1u);
  s = server.stats();
  EXPECT_EQ(s.failed, parked);
}

TEST(Serve, StreamedJoinerOpensASiblingWhileTheFirstGroupSetsUp) {
  // A full group's setup is in flight when one more compatible query
  // arrives: it opens a sibling instead of an independent group, so the
  // set's one setup covers it (one construct launch, plan key at the
  // snapshot's k) — and when that setup's construct launch fails, the
  // joiner falls back with the rest, counted once. Arrival order is a
  // race, so each case repeats until the joiner arrived after the setup
  // snapshot (a cold setup calibrates for milliseconds first).
  const u64 n = u64{1} << 18;
  auto v = data::generate(n, Distribution::kUniform, 277);
  std::span<const u32> vs(v.data(), v.size());
  std::vector<Query> burst;
  for (u64 i = 0; i < 16; ++i) burst.push_back(Query::view(vs, 8 * (i + 1)));
  const Query joiner = Query::view(vs, 200);
  for (const bool fault : {false, true}) {
    bool seen = false;
    for (int attempt = 0; attempt < 20 && !seen; ++attempt) {
      const std::string at = std::string(fault ? "fault" : "clean") +
                             " attempt " + std::to_string(attempt);
      vgpu::Device dev(vgpu::GpuProfile::v100s());  // private launch ledger
      ServerConfig cfg;
      cfg.executors = 1;
      cfg.batch_max = 16;
      TopkServer server(dev, cfg);
      if (fault) dev.fail_next_launches("construct", 1);
      auto futures = server.submit_many(burst);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      futures.push_back(server.submit(joiner));
      for (size_t i = 0; i < futures.size(); ++i) {
        const Query& q = i < burst.size() ? burst[i] : joiner;
        const QueryResult r = futures[i].get();
        ASSERT_EQ(r.values, oracle(q)) << at << " query " << i;
        EXPECT_EQ(r.fused, !fault) << at << " query " << i;
      }
      server.drain();
      const ServerStats s = server.stats();
      const auto plans = server.plan_cache().entries();
      const bool after_snapshot =
          s.shared_setup_groups == 1 && plans.size() == 1 &&
          plans.front().first ==
              PlanCache::make_key(vs, 128, Criterion::kLargest);
      if (!after_snapshot) continue;
      seen = true;
      EXPECT_EQ(s.groups, 2u) << at;
      EXPECT_EQ(s.setup_fallbacks, fault ? 1u : 0u) << at;
      EXPECT_EQ(s.failed, 0u) << at;
      if (!fault) {
        EXPECT_EQ(stage_launches(dev, "construct"), 1u) << at;
      }
    }
    EXPECT_TRUE(seen) << (fault ? "fault" : "clean")
                      << ": no joiner opened a sibling after the snapshot";
  }
}

TEST(Serve, RelaxationGuardTripsAreCountedAndExported) {
  // All-equal data makes every delegate >= kappa, so the per-query path's
  // Section 4.3 relaxation guard must fire (taken_total > 4k), be counted
  // in ServerStats, and be visible in the Prometheus exposition. The
  // group setup feeds exact kappas, so it never trips the guard — the
  // counter is the observability seam proving that.
  std::vector<u32> v(1 << 20, 42u);
  std::span<const u32> vs(v.data(), v.size());

  vgpu::Device dev(vgpu::GpuProfile::v100s());  // private fault seam
  ServerConfig cfg;
  cfg.executors = 1;
  // Pin a small subrange size: the delegate vector must outgrow the
  // single-launch shared-memory first top-k (which is exact and would
  // bypass the relaxation entirely).
  cfg.base.alpha = 5;
  TopkServer server(dev, cfg);
  // The group's construct launch fails, so setup falls back and the item
  // runs the unshared pipeline with its own relaxed stage 2.
  dev.fail_next_launches("construct", 1);
  auto r = server.submit(Query::view(vs, 16)).get();
  EXPECT_EQ(r.values, std::vector<u64>(16, 42u));

  const ServerStats s = server.stats();
  EXPECT_GE(s.relax_guard_trips, 1u);
  EXPECT_NE(server.metrics_prometheus().find("serve_relax_guard_trips"),
            std::string::npos);
}

TEST(Serve, StreamedJoinersRideTheGroupSetupAndStayExact) {
  // Streamed one-at-a-time submits: queries that join while a group's
  // delegate vector is being built are covered by that group's batched
  // stages 2-3, so no member launches a first top-k or a stage-3 kernel of
  // its own; everything stays exact across duplicate and distinct ks.
  const u64 n = 1 << 16;
  auto v = data::generate(n, Distribution::kNormal, 193);
  std::span<const u32> vs(v.data(), v.size());

  ServerConfig cfg;
  cfg.executors = 2;
  TopkServer server(shared_device(), cfg);
  for (int round = 0; round < 3; ++round) {
    std::vector<std::future<QueryResult>> futures;
    std::vector<u64> ks;
    for (int i = 0; i < 12; ++i) {
      const u64 k = 16 + 16 * static_cast<u64>(i % 6);
      ks.push_back(k);
      futures.push_back(server.submit(Query::view(vs, k)));
    }
    for (size_t i = 0; i < futures.size(); ++i) {
      const QueryResult r = futures[i].get();
      EXPECT_EQ(r.values, widen(reference_topk(vs, ks[i])))
          << "round " << round << " query " << i;
      if (!r.fused) continue;
      EXPECT_EQ(r.breakdown.first_ms, 0.0) << "round " << round << " " << i;
      EXPECT_EQ(r.breakdown.concat_ms, 0.0) << "round " << round << " " << i;
    }
  }
  EXPECT_EQ(server.stats().completed, 36u);
  EXPECT_EQ(server.stats().failed, 0u);
}

TEST(AdmissionQueue, SetupClosesAdmissionAndLaterQueriesOpenANewGroup) {
  // Deterministic, with no executor thread: a group admits while its setup
  // runs, close_admission freezes its members, a later compatible query
  // opens a new group, and publish closes a group whose setup never did.
  auto v = data::generate(1 << 12, Distribution::kUniform, 211);
  std::span<const u32> vs(v.data(), v.size());
  AdmissionQueue q(/*batch_max=*/8, /*max_in_flight=*/64);

  auto f1 = q.submit(Query::view(vs, 10));
  AdmissionQueue::Claim setup1;
  ASSERT_TRUE(q.next(setup1));
  ASSERT_TRUE(setup1.needs_setup);
  const std::shared_ptr<Group> g1 = setup1.group;
  EXPECT_EQ(g1->setup_ks, std::vector<u64>{10});

  // Setup claimed, vector not built yet: a compatible query joins.
  auto f2 = q.submit(Query::view(vs, 20));
  EXPECT_EQ(g1->items.size(), 2u);

  // Setup closes admission once the vector is built: every member's k.
  EXPECT_EQ(q.close_admission(*g1), (std::vector<u64>{10, 20}));
  EXPECT_EQ(g1->final_items, 2u);

  // The next compatible query opens a second group.
  auto f3 = q.submit(Query::view(vs, 30));
  EXPECT_EQ(g1->items.size(), 2u);
  AdmissionQueue::Claim setup2;
  ASSERT_TRUE(q.next(setup2));
  ASSERT_TRUE(setup2.needs_setup);
  const std::shared_ptr<Group> g2 = setup2.group;
  ASSERT_NE(g2, g1);
  EXPECT_EQ(g2->setup_ks, std::vector<u64>{30});

  // publish closes a group still admitting (a direct shape, a setup that
  // threw): its one item becomes claimable and the next query opens a
  // third group.
  q.publish(g2);
  EXPECT_EQ(g2->final_items, 1u);
  auto f4 = q.submit(Query::view(vs, 40));
  EXPECT_EQ(g2->items.size(), 1u);
  AdmissionQueue::Claim item;
  ASSERT_TRUE(q.next(item));
  EXPECT_FALSE(item.needs_setup);
  EXPECT_EQ(item.group, g2);
  EXPECT_EQ(item.item->query.k, 30u);
  AdmissionQueue::Claim setup3;
  ASSERT_TRUE(q.next(setup3));
  ASSERT_TRUE(setup3.needs_setup);
  EXPECT_NE(setup3.group, g1);
  EXPECT_NE(setup3.group, g2);
  EXPECT_EQ(setup3.group->setup_ks, std::vector<u64>{40});
  EXPECT_EQ(q.in_flight(), 4u);
}

TEST(AdmissionQueue, FullGroupsOpenSiblingsThatShareOneSetup) {
  // Deterministic, with no executor thread: a query that finds the
  // admitting group full opens a sibling group of it, which joins the
  // group's set instead of claiming a setup of its own: the one setup claim
  // snapshots every member's k, the close freezes the set and returns every
  // member's k, a later query opens an independent group, and publish makes
  // every member claimable through the set's one cursor.
  auto v = data::generate(1 << 12, Distribution::kUniform, 213);
  std::span<const u32> vs(v.data(), v.size());
  AdmissionQueue q(/*batch_max=*/2, /*max_in_flight=*/64);

  std::vector<std::future<QueryResult>> fs;
  for (const u64 k : {10, 20, 30}) fs.push_back(q.submit(Query::view(vs, k)));
  AdmissionQueue::Claim setup;
  ASSERT_TRUE(q.next(setup));
  ASSERT_TRUE(setup.needs_setup);
  const std::shared_ptr<Group> g = setup.group;
  EXPECT_EQ(g->items.size(), 3u);
  EXPECT_EQ(g->groups, 2u);
  EXPECT_EQ(g->setup_ks, (std::vector<u64>{10, 20, 30}));

  // While the setup runs, the youngest group takes a joiner, and a full
  // one opens a third sibling.
  fs.push_back(q.submit(Query::view(vs, 40)));
  EXPECT_EQ(g->groups, 2u);
  fs.push_back(q.submit(Query::view(vs, 50)));
  EXPECT_EQ(g->groups, 3u);
  EXPECT_EQ(g->items.size(), 5u);

  EXPECT_EQ(q.close_admission(*g), (std::vector<u64>{10, 20, 30, 40, 50}));
  EXPECT_EQ(g->final_items, 5u);
  EXPECT_EQ(g->groups, 3u);
  EXPECT_TRUE(q.close_admission(*g).empty());  // already closed

  // Closed: the next compatible query opens an independent group, whose
  // setup is the next claim — no sibling claimed one before it.
  fs.push_back(q.submit(Query::view(vs, 60)));
  AdmissionQueue::Claim other;
  ASSERT_TRUE(q.next(other));
  ASSERT_TRUE(other.needs_setup);
  EXPECT_NE(other.group, g);
  EXPECT_EQ(other.group->groups, 1u);
  EXPECT_EQ(other.group->setup_ks, std::vector<u64>{60});

  // publish: every sibling's members become claimable, in FIFO order.
  q.publish(g);
  std::vector<u64> claimed;
  for (int i = 0; i < 5; ++i) {
    AdmissionQueue::Claim item;
    ASSERT_TRUE(q.next(item));
    ASSERT_FALSE(item.needs_setup);
    EXPECT_EQ(item.group, g);
    claimed.push_back(item.item->query.k);
  }
  EXPECT_EQ(claimed, (std::vector<u64>{10, 20, 30, 40, 50}));
  EXPECT_EQ(q.in_flight(), 6u);
}

TEST(Serve, ConstructorRejectsBasesTheBatchedStagesCannotServe) {
  // The group setup's batched stages 2-4 are the radix engines with no
  // kappa hook; a base naming anything else is the caller's error,
  // reported before any executor starts.
  ServerConfig first;
  first.base.first_algo = topk::Algo::kBucketInplace;
  EXPECT_THROW({ TopkServer s(shared_device(), first); },
               std::invalid_argument);
  ServerConfig second;
  second.base.second_algo = topk::Algo::kSortAndChoose;
  EXPECT_THROW({ TopkServer s(shared_device(), second); },
               std::invalid_argument);
  ServerConfig hook;
  hook.base.kappa_hook = [](u64 kappa) { return kappa; };
  EXPECT_THROW({ TopkServer s(shared_device(), hook); },
               std::invalid_argument);
  EXPECT_NO_THROW({ TopkServer s(shared_device()); });
}

TEST(Serve, FallbackWhenDelegationInfeasible) {
  // k close to n: delegation infeasible, server must degrade to the direct
  // path and still answer exactly.
  auto v = data::generate(2048, Distribution::kUniform, 99);
  std::span<const u32> vs(v.data(), v.size());
  TopkServer server(shared_device());
  auto r = server.submit(Query::view(vs, 1800)).get();
  EXPECT_EQ(r.values, widen(reference_topk(vs, 1800)));
  EXPECT_FALSE(r.fused);
  EXPECT_EQ(server.stats().calibration_probes, 0u);  // nothing to walk
}

}  // namespace
}  // namespace drtopk::serve
