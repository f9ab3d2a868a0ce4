// Serving: many top-k queries against one corpus through the batched
// TopkServer, with plan caching and shared delegate construction.
//
//   $ ./examples/example_serving
//
// Shows the serving happy path (device, server, submit/run_batch), what a
// QueryResult carries, and the aggregate ServerStats (QPS, latency
// percentiles, plan-cache hit rate) against a sequential baseline.
#include <cstdio>

#include "data/distributions.hpp"
#include "serve/server.hpp"

using namespace drtopk;

int main() {
  vgpu::Device dev;

  // A 4M-element corpus that every query views (the serving shape: shared
  // index, per-request k / criterion).
  const u64 n = u64{1} << 22;
  auto corpus = data::generate(n, data::Distribution::kUniform, /*seed=*/7);
  std::span<const u32> cs(corpus.data(), corpus.size());

  serve::ServerConfig cfg;
  cfg.executors = 2;
  cfg.batch_max = 8;
  serve::TopkServer server(dev, cfg);

  // A mixed batch: full top-k queries plus selection-only (k-th threshold)
  // queries, different k — all compatible, so they share one delegate
  // construction pass.
  std::vector<serve::Query> batch;
  for (u64 k : {u64{10}, u64{100}, u64{1000}})
    batch.push_back(serve::Query::view(cs, k));
  batch.push_back(serve::Query::view(cs, 500, data::Criterion::kLargest,
                                     /*selection_only=*/true));
  auto results = server.run_batch(batch);

  for (size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    std::printf("query %zu: k=%-5llu %s kth=%llu latency=%.3f ms"
                " (sim)%s%s\n",
                i, static_cast<unsigned long long>(batch[i].k),
                batch[i].selection_only ? "[selection]" : "[top-k]   ",
                static_cast<unsigned long long>(r.kth), r.latency_sim_ms,
                r.fused ? " fused" : "",
                r.plan_cache_hit ? " plan-hit" : " plan-miss");
  }

  // A second identical batch hits the plan cache.
  (void)server.run_batch(batch);

  const auto s = server.stats();
  std::printf("\nserver: %llu queries, %llu groups, QPS=%.1f (sim),"
              " p50=%.3f ms, p99=%.3f ms\n",
              static_cast<unsigned long long>(s.completed),
              static_cast<unsigned long long>(s.groups), s.qps(),
              s.p50_sim_ms, s.p99_sim_ms);
  std::printf("plan cache: %llu hits / %llu misses (%.0f%% hit rate),"
              " %llu fused queries\n",
              static_cast<unsigned long long>(s.plan_hits),
              static_cast<unsigned long long>(s.plan_misses),
              100.0 * s.plan_hit_rate(),
              static_cast<unsigned long long>(s.fused_queries));

  // A burst of IDENTICAL queries (the doc-retrieval shape): the group setup
  // resolves one kappa and one candidate span for their k, and the batched
  // finalization sorts that span once for all of them.
  std::vector<serve::Query> burst(6, serve::Query::view(cs, 100));
  (void)server.run_batch(burst);
  const auto sd = server.stats();
  std::printf("dedup: %llu repeated-k queries rode another member's stage-3"
              " entry\n",
              static_cast<unsigned long long>(sd.deduped_queries));

  // Sequential baseline: the same queries, one dr_topk each.
  double seq_ms = 0;
  for (int round = 0; round < 2; ++round) {
    for (const auto& q : batch) {
      core::DrTopkConfig c;
      c.selection_only = q.selection_only;
      seq_ms += core::dr_topk<u32>(dev, q.data32(), q.k, q.criterion, c).sim_ms;
    }
  }
  std::printf("\nsequential loop: %.3f ms total -> server speedup %.2fx"
              " on aggregate throughput\n",
              seq_ms, seq_ms / s.makespan_sim_ms);
  return s.completed == 2 * batch.size() ? 0 : 1;
}
