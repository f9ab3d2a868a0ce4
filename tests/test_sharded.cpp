// Cross-shard parity suite for serve::ShardedTopkServer: the sharded
// answer must be bit-identical to the CPU reference oracle across
// distributions x k x shard counts — including ragged last shards,
// k larger than a shard's winner list, duplicate keys straddling shards,
// repeated queries, selection-only and both key widths — plus input
// validation, the routing short-circuit, topology, labeled metrics and
// trace/attribution gates.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>

#include "data/distributions.hpp"
#include "dist/topology.hpp"
#include "serve/sharded.hpp"

namespace drtopk::serve {
namespace {

using data::Criterion;
using data::Distribution;

std::vector<u64> widen(const std::vector<u32>& v) {
  return {v.begin(), v.end()};
}

/// The bit-identity target: topk::reference_topk under the criterion (the
/// smallest k are the largest k of the complement), cut to the k-th value
/// for a selection-only query.
std::vector<u64> oracle(std::span<const u32> v, u64 k,
                        Criterion c = Criterion::kLargest,
                        bool selection_only = false) {
  std::vector<u64> w(v.begin(), v.end());
  const bool smallest = c == Criterion::kSmallest;
  if (smallest)
    for (u64& x : w) x = ~x;
  std::vector<u64> top = topk::reference_topk(std::span<const u64>(w), k);
  if (smallest)
    for (u64& x : top) x = ~x;
  if (selection_only) top.erase(top.begin(), top.end() - 1);
  return top;
}

/// A sharded config that actually shards small test corpora.
ShardedConfig sharded_cfg(u32 shards) {
  ShardedConfig cfg;
  cfg.num_shards = shards;
  cfg.min_shard_elems = 1;  // every corpus spreads over all shards
  return cfg;
}

TEST(Sharded, ParityAcrossDistributionsKAndShardCounts) {
  const u64 n = (u64{1} << 15) + 777;  // ragged under every shard count
  for (auto dist : {Distribution::kUniform, Distribution::kNormal}) {
    auto v = data::generate(n, dist, 91);
    std::span<const u32> vs(v.data(), v.size());
    for (u32 shards : {2u, 3u, 4u}) {
      ShardedTopkServer srv(sharded_cfg(shards));
      auto corpus = srv.register_corpus(vs);
      ASSERT_EQ(srv.corpus_shards(corpus), shards);
      for (u64 k : {u64{1}, u64{10}, u64{100}, u64{1000}}) {
        const auto expect = oracle(vs, k);
        auto got = srv.submit(corpus, k).get();
        ASSERT_EQ(got.values, expect)
            << "dist=" << static_cast<int>(dist) << " shards=" << shards
            << " k=" << k;
        EXPECT_EQ(got.kth, expect.back());
        EXPECT_GT(got.latency_sim_ms, 0.0);
      }
    }
  }
}

TEST(Sharded, TieAwareParityOnNdAndCd) {
  // Tie-heavy corpora: each shard answers from the keys strictly above its
  // kappa padded with copies of kappa (CD's maximum key alone has about
  // n / 256 copies), and the merge must keep every copy.
  const u64 n = (u64{1} << 17) + 333;
  for (auto dist : {Distribution::kNormal, Distribution::kCustomized}) {
    auto v = data::generate(n, dist, 95);
    std::span<const u32> vs(v.data(), v.size());
    for (u32 shards : {2u, 4u}) {
      ShardedTopkServer srv(sharded_cfg(shards));
      auto corpus = srv.register_corpus(vs);
      ASSERT_EQ(srv.corpus_shards(corpus), shards);
      for (u64 k : {u64{1}, u64{64}, u64{1000}, u64{5000}}) {
        const auto expect = oracle(vs, k);
        ASSERT_EQ(srv.submit(corpus, k).get().values, expect)
            << "dist=" << data::to_string(dist) << " shards=" << shards
            << " k=" << k;
      }
    }
  }
}

TEST(Sharded, KLargerThanShardWinnersAndRaggedLastShard) {
  // 4 shards over 3*4096+5 elements: the last shard holds 5 elements, and
  // k = 9000 exceeds every shard's length — each sub-query clamps to its
  // shard, and the merged union must still be the exact global top-k.
  const u64 n = 3 * 4096 + 5;
  auto v = data::generate(n, Distribution::kUniform, 92);
  std::span<const u32> vs(v.data(), v.size());
  ShardedConfig cfg = sharded_cfg(4);
  cfg.min_shard_elems = 1024;  // 12293/1024 -> 4 shards (clamped)
  ShardedTopkServer srv(cfg);
  auto corpus = srv.register_corpus(vs);
  ASSERT_EQ(srv.corpus_shards(corpus), 4u);
  const u64 k = 9000;
  auto expect = topk::reference_topk(vs, k);
  auto got = srv.submit(corpus, k).get();
  EXPECT_EQ(got.values, widen(expect));
}

TEST(Sharded, DuplicateKeysAcrossShardsKeepMultiplicity) {
  // Only 64 distinct values: every shard holds copies of every winner, so
  // a merge that mis-handled ties would drop or double-count duplicates.
  std::vector<u32> v(1 << 14);
  for (u64 i = 0; i < v.size(); ++i) v[i] = static_cast<u32>(i % 64);
  std::span<const u32> vs(v.data(), v.size());
  ShardedTopkServer srv(sharded_cfg(4));
  auto corpus = srv.register_corpus(vs);
  for (u64 k : {u64{3}, u64{300}, u64{1000}}) {
    auto expect = topk::reference_topk(vs, k);
    auto got = srv.submit(corpus, k).get();
    ASSERT_EQ(got.values, widen(expect)) << "k=" << k;
  }
}

TEST(Sharded, RepeatedQueriesMatchReference) {
  auto v = data::generate(1 << 15, Distribution::kUniform, 93);
  std::span<const u32> vs(v.data(), v.size());
  ShardedTopkServer srv(sharded_cfg(2));
  auto corpus = srv.register_corpus(vs);
  // Identical queries share each shard's group candidate set.
  std::vector<std::future<QueryResult>> fs;
  for (int i = 0; i < 6; ++i) fs.push_back(srv.submit(corpus, 50));
  const auto expect = widen(topk::reference_topk(vs, 50));
  for (auto& f : fs) EXPECT_EQ(f.get().values, expect);
}

TEST(Sharded, RejectsInvalidQueries) {
  // Checked in every build mode: an unregistered corpus id or a k outside
  // [1, |V|] is the caller's error, reported as std::invalid_argument
  // instead of indexing past the corpus table.
  auto v = data::generate(1 << 12, Distribution::kUniform, 97);
  std::span<const u32> vs(v.data(), v.size());
  ShardedTopkServer srv(sharded_cfg(2));
  auto corpus = srv.register_corpus(vs);
  EXPECT_THROW((void)srv.submit(corpus + 1, 10), std::invalid_argument);
  EXPECT_THROW((void)srv.submit(corpus, 0), std::invalid_argument);
  EXPECT_THROW((void)srv.submit(corpus, vs.size() + 1),
               std::invalid_argument);
  // The server stays usable after the rejections.
  EXPECT_EQ(srv.submit(corpus, 10).get().values,
            widen(topk::reference_topk(vs, 10)));
}

TEST(Sharded, FailedShardSubQueryFailsOnlyItsOwnQuery) {
  // A shard sub-query that throws fails only the query it belongs to, with
  // that shard's exception: the merge thread keeps merging the rest of its
  // batch, drain() returns and the stats count only merged answers. Every
  // construct launch on shard 1 fails: a sub-query over the 2^16 corpus
  // falls back from its group setup, then its own construction throws. The
  // 128-element corpus has 64-element shards, which answer k 40-64 with the
  // direct top-k and construct nothing, so none of its sub-queries fails.
  auto big = data::generate(u64{1} << 16, Distribution::kUniform, 103);
  auto small = data::generate(128, Distribution::kUniform, 104);
  std::span<const u32> bigs(big.data(), big.size());
  std::span<const u32> smalls(small.data(), small.size());

  ShardedTopkServer srv(sharded_cfg(2));
  const auto big_id = srv.register_corpus(bigs);
  const auto small_id = srv.register_corpus(smalls);
  ASSERT_EQ(srv.corpus_shards(big_id), 2u);
  ASSERT_EQ(srv.corpus_shards(small_id), 2u);
  srv.shard_device(1).fail_next_launches("construct", 1000);

  std::vector<u64> ks;
  std::vector<std::future<QueryResult>> answered, failed;
  for (int i = 0; i < 12; ++i) {
    const u64 k = 40 + 8 * static_cast<u64>(i % 4);
    ks.push_back(k);
    answered.push_back(srv.submit(small_id, k));
    failed.push_back(srv.submit(big_id, k));
  }
  for (size_t i = 0; i < ks.size(); ++i) {
    EXPECT_EQ(answered[i].get().values,
              widen(topk::reference_topk(smalls, ks[i])))
        << "k=" << ks[i];
    EXPECT_THROW((void)failed[i].get(), std::runtime_error) << "k=" << ks[i];
  }
  srv.drain();
  const ShardedStats st = srv.stats();
  EXPECT_EQ(st.completed, ks.size());
  EXPECT_EQ(st.merged_queries, ks.size());
  EXPECT_EQ(st.failed, ks.size());
  // The merge thread survived: the server still answers.
  srv.shard_device(1).fail_next_launches("construct", 0);
  EXPECT_EQ(srv.submit(big_id, 7).get().values,
            widen(topk::reference_topk(bigs, 7)));
}

TEST(Sharded, FailedMergeLaunchFailsItsBatchAndTheMergeThreadLivesOn) {
  // A merge launch that throws fails the queries of its batch with the
  // launch's exception, counted in `failed` (and sharded_failed_queries)
  // before their futures resolve. The merge thread lives on: drain()
  // returns, and once the fault is spent the next query is oracle-exact.
  auto v = data::generate(u64{1} << 16, Distribution::kUniform, 106);
  std::span<const u32> vs(v.data(), v.size());
  ShardedTopkServer srv(sharded_cfg(2));
  const auto id = srv.register_corpus(vs);
  ASSERT_EQ(srv.corpus_shards(id), 2u);
  EXPECT_EQ(srv.submit(id, 64).get().values,
            widen(topk::reference_topk(vs, 64)));

  srv.merge_device().fail_next_launches("merge", 1);
  auto faulted = srv.submit(id, 100);
  EXPECT_THROW((void)faulted.get(), std::runtime_error);
  srv.drain();
  ShardedStats st = srv.stats();
  EXPECT_EQ(st.failed, 1u);
  EXPECT_EQ(st.completed, 1u);
  EXPECT_NE(srv.metrics_prometheus().find(
                "sharded_failed_queries{shard=\"merge\"} 1\n"),
            std::string::npos);

  EXPECT_EQ(srv.submit(id, 333).get().values,
            widen(topk::reference_topk(vs, 333)));
  srv.drain();
  st = srv.stats();
  EXPECT_EQ(st.failed, 1u);
  EXPECT_EQ(st.completed, 2u);
}

TEST(Sharded, BurstScatterMatchesReference) {
  // submit_many scatters one burst per shard and enqueues every merge job
  // under one lock; each answer must still be bit-identical to the oracle
  // in the order of `ks`, on every route: exact, selection-only,
  // kSmallest, 64-bit keys, a recall target and a single-shard corpus.
  auto v = data::generate((1 << 16) + 77, Distribution::kNormal, 105);
  std::span<const u32> vs(v.data(), v.size());
  const std::vector<u64> ks = {1, 16, 16, 100, 333, 1000, 64, 2048};
  ShardedTopkServer srv(sharded_cfg(3));
  const auto id = srv.register_corpus(vs);
  for (const auto c : {Criterion::kLargest, Criterion::kSmallest}) {
    for (const bool sel : {false, true}) {
      auto fs = srv.submit_many(id, ks, c, sel);
      ASSERT_EQ(fs.size(), ks.size());
      for (size_t i = 0; i < ks.size(); ++i)
        EXPECT_EQ(fs[i].get().values, oracle(vs, ks[i], c, sel))
            << "k=" << ks[i] << " smallest=" << (c == Criterion::kSmallest)
            << " selection-only=" << sel;
    }
  }

  std::vector<u64> w(1 << 15);
  for (u64 i = 0; i < w.size(); ++i) w[i] = data::rand_u64(106, i);
  std::span<const u64> ws(w.data(), w.size());
  const auto wid = srv.register_corpus(ws);
  auto wf = srv.submit_many(wid, {5, 200, 200, 999});
  const std::vector<u64> wks = {5, 200, 200, 999};
  for (size_t i = 0; i < wks.size(); ++i)
    EXPECT_EQ(wf[i].get().values, topk::reference_topk(ws, wks[i]))
        << "u64 k=" << wks[i];

  auto rf = srv.submit_many(id, {64, 512}, Criterion::kLargest, false,
                            core::FidelityPolicy::approx(0.9));
  const std::vector<u64> rks = {64, 512};
  for (size_t i = 0; i < rks.size(); ++i) {
    std::vector<u64> got = rf[i].get().values;
    ASSERT_EQ(got.size(), rks[i]);
    std::vector<u64> want = oracle(vs, rks[i]);
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    std::vector<u64> hits;
    std::set_intersection(got.begin(), got.end(), want.begin(), want.end(),
                          std::back_inserter(hits));
    EXPECT_GE(static_cast<double>(hits.size()) / static_cast<double>(rks[i]),
              0.9)
        << "recall target k=" << rks[i];
  }

  ShardedConfig one;
  one.num_shards = 3;  // default min_shard_elems keeps 1k elements on one
  ShardedTopkServer single(one);
  auto small = data::generate(1 << 10, Distribution::kUniform, 107);
  std::span<const u32> ss(small.data(), small.size());
  const auto sid = single.register_corpus(ss);
  ASSERT_EQ(single.corpus_shards(sid), 1u);
  auto sf = single.submit_many(sid, {3, 25, 25, 500});
  const std::vector<u64> sks = {3, 25, 25, 500};
  for (size_t i = 0; i < sks.size(); ++i)
    EXPECT_EQ(sf[i].get().values, oracle(ss, sks[i])) << "single k=" << sks[i];
  single.drain();
  EXPECT_EQ(single.stats().single_shard_queries, sks.size());
  EXPECT_EQ(single.stats().merge_batches, 0u);

  // Validation happens before anything is submitted.
  EXPECT_THROW((void)srv.submit_many(id, {10, 0}), std::invalid_argument);
  EXPECT_THROW((void)srv.submit_many(id + 99, {10}), std::invalid_argument);
  srv.drain();
  EXPECT_EQ(srv.stats().failed, 0u);
}

TEST(Sharded, ConstructorRejectsAShardBaseTopkServerRejects) {
  ShardedConfig hook = sharded_cfg(2);
  hook.shard.base.kappa_hook = [](u64 kappa) { return kappa; };
  EXPECT_THROW({ ShardedTopkServer srv(hook); }, std::invalid_argument);
  ShardedConfig engine = sharded_cfg(2);
  engine.shard.base.first_algo = topk::Algo::kBitonic;
  EXPECT_THROW({ ShardedTopkServer srv(engine); }, std::invalid_argument);
}

TEST(Sharded, SelectionOnlyAndSmallestCriterion) {
  auto v = data::generate((1 << 15) + 13, Distribution::kNormal, 94);
  std::span<const u32> vs(v.data(), v.size());
  ShardedTopkServer srv(sharded_cfg(3));
  auto corpus = srv.register_corpus(vs);
  for (auto c : {Criterion::kLargest, Criterion::kSmallest}) {
    const auto expect = oracle(vs, 77, c, /*selection_only=*/true);
    auto got = srv.submit(corpus, 77, c, /*selection_only=*/true).get();
    EXPECT_EQ(got.kth, expect.back());
    EXPECT_EQ(got.values, expect);  // just the k-th value
    auto full = srv.submit(corpus, 77, c).get();
    EXPECT_EQ(full.values, oracle(vs, 77, c));
  }
}

TEST(Sharded, U64CorpusParity) {
  std::vector<u64> v(1 << 14);
  for (u64 i = 0; i < v.size(); ++i) v[i] = data::rand_u64(95, i);
  std::span<const u64> vs(v.data(), v.size());
  const auto expect = topk::reference_topk(vs, 200);

  ShardedTopkServer srv(sharded_cfg(4));
  auto corpus = srv.register_corpus(vs);
  auto got = srv.submit(corpus, 200).get();
  EXPECT_EQ(got.values, expect);
  EXPECT_EQ(got.kth, expect.back());
}

TEST(Sharded, SingleShardCorpusShortCircuits) {
  auto v = data::generate(1 << 10, Distribution::kUniform, 96);
  std::span<const u32> vs(v.data(), v.size());
  ShardedConfig cfg;
  cfg.num_shards = 4;  // default min_shard_elems keeps 1k elements on one
  ShardedTopkServer srv(cfg);
  auto corpus = srv.register_corpus(vs);
  EXPECT_EQ(srv.corpus_shards(corpus), 1u);
  auto expect = topk::reference_topk(vs, 25);
  auto got = srv.submit(corpus, 25).get();
  srv.drain();
  EXPECT_EQ(got.values, widen(expect));
  auto st = srv.stats();
  EXPECT_EQ(st.single_shard_queries, 1u);
  EXPECT_EQ(st.completed, 1u);
  EXPECT_EQ(st.merged_queries, 0u);
  EXPECT_EQ(st.merge_batches, 0u);  // forwarded without a merge launch
  EXPECT_EQ(st.merge_launches, 0u);
}

TEST(Sharded, SingleShardRouteCountsEachQueryOnceItsAnswerExists) {
  // A single-shard query is counted when its answer or its exception
  // exists: a failed one lands in `failed`, never in `completed`, and a
  // later success in `completed` alone.
  auto v = data::generate(1 << 10, Distribution::kUniform, 98);
  std::span<const u32> vs(v.data(), v.size());
  ShardedConfig cfg;
  cfg.num_shards = 2;  // default min_shard_elems keeps 1k elements on one
  ShardedTopkServer srv(cfg);
  auto corpus = srv.register_corpus(vs);
  ASSERT_EQ(srv.corpus_shards(corpus), 1u);
  for (u32 s = 0; s < srv.num_shards(); ++s)
    srv.shard_device(s).fail_next_launches("construct", 1000);

  auto bad = srv.submit(corpus, 25);
  EXPECT_THROW((void)bad.get(), std::runtime_error);
  srv.drain();
  ShardedStats st = srv.stats();
  EXPECT_EQ(st.completed, 0u);
  EXPECT_EQ(st.failed, 1u);
  EXPECT_EQ(st.single_shard_queries, 1u);

  for (u32 s = 0; s < srv.num_shards(); ++s)
    srv.shard_device(s).fail_next_launches("construct", 0);
  EXPECT_EQ(srv.submit(corpus, 25).get().values,
            widen(topk::reference_topk(vs, 25)));
  srv.drain();
  st = srv.stats();
  EXPECT_EQ(st.completed, 1u);
  EXPECT_EQ(st.failed, 1u);
  EXPECT_EQ(st.merge_launches, 0u);
}

TEST(Sharded, TopologyHelpersMatchReduction) {
  using namespace drtopk::dist;
  EXPECT_EQ(group_leader(5, 4), 4u);
  EXPECT_EQ(group_leader(5, 0), 0u);
  EXPECT_TRUE(is_group_leader(8, 4));
  EXPECT_FALSE(is_group_leader(9, 4));
  EXPECT_EQ(group_end(8, 4, 10), 10u);  // ragged last group
  EXPECT_EQ(group_count(10, 4), 3u);
  EXPECT_FALSE(hierarchy_engages(4, 4));
  EXPECT_TRUE(hierarchy_engages(5, 4));
  EXPECT_EQ(primary_messages(16, 4, true), 3u);
  EXPECT_EQ(primary_messages(16, 4, false), 15u);
  EXPECT_EQ(primary_messages(4, 4, true), 3u);  // hierarchy disengaged
}

TEST(Sharded, MetricsCarryShardLabels) {
  auto v = data::generate(1 << 14, Distribution::kUniform, 98);
  std::span<const u32> vs(v.data(), v.size());
  ShardedTopkServer srv(sharded_cfg(2));
  auto corpus = srv.register_corpus(vs);
  srv.submit(corpus, 10).get();
  srv.drain();

  const std::string prom = srv.metrics_prometheus();
  EXPECT_NE(prom.find("serve_queries_completed{shard=\"0\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("serve_queries_completed{shard=\"1\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("sharded_merged_queries{shard=\"merge\"}"),
            std::string::npos);
  // Histogram buckets splice the shard label next to le.
  EXPECT_NE(prom.find("_bucket{shard=\"0\",le="), std::string::npos);

  const std::string json = srv.metrics_json();
  EXPECT_NE(json.find("\"serve_queries_completed{shard=\\\"0\\\"}\":"),
            std::string::npos);
  EXPECT_NE(json.find("\"sharded_merge_batches{shard=\\\"merge\\\"}\":"),
            std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(Sharded, UnattributedZeroAcrossAllDevices) {
  auto v = data::generate(1 << 15, Distribution::kUniform, 99);
  std::span<const u32> vs(v.data(), v.size());
  ShardedTopkServer srv(sharded_cfg(3));
  auto corpus = srv.register_corpus(vs);
  std::vector<std::future<QueryResult>> fs;
  for (u64 k : {u64{5}, u64{50}, u64{500}}) fs.push_back(srv.submit(corpus, k));
  for (auto& f : fs) f.get();
  srv.drain();
  EXPECT_EQ(srv.unattributed_launches(), 0u);
  // The merge device saw only "merge"-stage kernels.
  bool merge_stage_seen = false;
  for (const auto& st : srv.merge_device().stage_stats()) {
    EXPECT_STREQ(st.stage.c_str(), "merge");
    merge_stage_seen = true;
  }
  EXPECT_TRUE(merge_stage_seen);
}

TEST(Sharded, UnifiedTraceHasOneProcessPerShard) {
  auto v = data::generate(1 << 14, Distribution::kUniform, 100);
  std::span<const u32> vs(v.data(), v.size());
  ShardedConfig cfg = sharded_cfg(2);
  cfg.shard.obs.tracing = true;
  ShardedTopkServer srv(cfg);
  auto corpus = srv.register_corpus(vs);
  srv.submit(corpus, 20).get();
  srv.drain();

  const std::string path = "sharded_trace_test.json";
  ASSERT_TRUE(srv.dump_trace(path));
  std::ifstream f(path);
  std::stringstream ss;
  ss << f.rdbuf();
  const std::string trace = ss.str();
  EXPECT_NE(trace.find("\"name\":\"shard-0\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"shard-1\""), std::string::npos);
  EXPECT_NE(trace.find("\"pid\":2"), std::string::npos);
  EXPECT_NE(trace.find("process_name"), std::string::npos);
  std::remove(path.c_str());

  // Tracing off: no trace to dump.
  ShardedTopkServer off(sharded_cfg(2));
  EXPECT_FALSE(off.dump_trace(path));
}

TEST(Sharded, PlanSharingSkipsSiblingCalibrationProbes) {
  // Four same-shape single-shard corpora land round-robin on different
  // shards (min_shard_elems keeps each corpus on one device). Shard 0
  // calibrates once; drain() cross-publishes the plan, so the other
  // N-1 shards answer recurring shapes without ever probing.
  auto v = data::generate(1 << 16, Distribution::kUniform, 102);
  std::span<const u32> vs(v.data(), v.size());
  ShardedConfig cfg;
  cfg.num_shards = 4;
  cfg.min_shard_elems = u64{1} << 30;  // single-shard placement
  ShardedTopkServer srv(cfg);
  std::vector<u32> ids;
  for (int i = 0; i < 4; ++i) ids.push_back(srv.register_corpus(vs));
  for (auto id : ids) EXPECT_EQ(srv.corpus_shards(id), 1u);

  auto expect = topk::reference_topk(vs, 128);
  EXPECT_EQ(srv.submit(ids[0], 128).get().values, widen(expect));
  srv.drain();  // publishes shard 0's calibrated plan to the siblings

  for (int i = 1; i < 4; ++i)
    EXPECT_EQ(srv.submit(ids[i], 128).get().values, widen(expect));
  srv.drain();

  auto st = srv.stats();
  EXPECT_GE(st.plan_publishes, 3u);       // adopted by the 3 siblings
  EXPECT_EQ(st.plan_probes_skipped, 3u);  // (N-1)/N probe sets never ran
}

TEST(Sharded, ManyQueriesBatchThroughTheMergeThread) {
  // A burst of in-flight queries: the merge thread drains whatever queued
  // while it blocked, so rounds cover >= 1 query and everything completes.
  auto v = data::generate(1 << 15, Distribution::kUniform, 101);
  std::span<const u32> vs(v.data(), v.size());
  ShardedTopkServer srv(sharded_cfg(2));
  auto corpus = srv.register_corpus(vs);
  std::vector<std::future<QueryResult>> fs;
  for (int i = 0; i < 24; ++i)
    fs.push_back(srv.submit(corpus, 10 + (i % 5) * 30));
  for (auto& f : fs) EXPECT_FALSE(f.get().values.empty());
  srv.drain();
  auto st = srv.stats();
  EXPECT_EQ(st.merged_queries, 24u);
  EXPECT_EQ(st.completed, 24u);
  EXPECT_GE(st.merge_batches, 1u);
  EXPECT_LE(st.merge_batches, 24u);
  EXPECT_GT(st.merge_sim_ms, 0.0);
  EXPECT_GT(st.qps(), 0.0);
}

}  // namespace
}  // namespace drtopk::serve
