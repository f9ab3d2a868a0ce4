// Tests for the observability layer: histogram bucket math and percentile
// accuracy vs an exact sort, Prometheus/JSON export goldens, tracer ring
// behavior and span well-formedness under concurrent executors, and the
// stage-attribution invariants (no unattributed launches in a served
// query; per-stage totals reconcile exactly with the aggregate).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <sstream>
#include <thread>

#include "data/distributions.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/server.hpp"

namespace drtopk {
namespace {

using obs::Histogram;

// ---------------------------------------------------------------- metrics

TEST(ObsHistogram, BucketMathInvariants) {
  // Exact unit buckets for small values.
  for (u64 v = 0; v < Histogram::kSub; ++v) {
    EXPECT_EQ(Histogram::bucket_of(v), v);
    EXPECT_EQ(Histogram::bucket_limit(static_cast<u32>(v)), v);
  }
  // bucket_limit is the inclusive upper bound: v <= limit(bucket_of(v)),
  // and the next bucket starts right above it.
  for (u64 v : {u64{8}, u64{9}, u64{100}, u64{1000}, u64{100000},
                u64{1} << 40, ~u64{0}}) {
    const u32 b = Histogram::bucket_of(v);
    EXPECT_LE(v, Histogram::bucket_limit(b));
    if (b > 0) {
      EXPECT_GT(v, Histogram::bucket_limit(b - 1));
    }
    // Relative bucket width <= 1/8.
    EXPECT_LE(static_cast<double>(Histogram::bucket_limit(b)),
              static_cast<double>(v) * 1.125 + 1.0);
  }
  // Monotone: bucket_of never decreases as v grows through a boundary.
  u32 prev = 0;
  for (u64 v = 0; v < 4096; ++v) {
    const u32 b = Histogram::bucket_of(v);
    EXPECT_GE(b, prev);
    prev = b;
  }
}

TEST(ObsHistogram, PercentileMatchesExactSortWithinOneBucket) {
  Histogram h;
  std::vector<u64> samples;
  for (u64 i = 0; i < 10000; ++i) {
    // Heavy-tailed spread across several octaves.
    const u64 v = data::rand_u64(0xace, i) % (u64{1} << (8 + i % 12));
    samples.push_back(v);
    h.observe(v);
  }
  std::vector<u64> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  for (double q : {0.5, 0.9, 0.99, 0.999, 1.0}) {
    // The histogram's rank-q sample is the same order statistic the exact
    // sort finds; the histogram just reports its bucket's upper bound.
    u64 rank = static_cast<u64>(q * static_cast<double>(sorted.size()) +
                                0.9999999);
    rank = std::clamp<u64>(rank, 1, sorted.size());
    const u64 exact = sorted[rank - 1];
    const u64 est = h.percentile(q);
    EXPECT_EQ(est, Histogram::bucket_limit(Histogram::bucket_of(exact)))
        << "q=" << q;
    EXPECT_GE(est, exact) << "q=" << q;
    EXPECT_LE(static_cast<double>(est),
              static_cast<double>(exact) * 1.125 + 1.0)
        << "q=" << q;
  }
}

TEST(ObsRegistry, KindMismatchThrows) {
  obs::Registry reg;
  reg.counter("m");
  EXPECT_THROW(reg.gauge("m"), std::logic_error);
  EXPECT_THROW(reg.histogram("m"), std::logic_error);
  // Same kind re-registration returns the same metric.
  obs::Counter& c = reg.counter("m");
  c.add(2);
  EXPECT_EQ(reg.counter("m").value(), 2u);
}

TEST(ObsExport, PrometheusGolden) {
  obs::Registry reg;
  reg.counter("a_counter", "help text").add(3);
  reg.gauge("b_gauge").set(7);
  obs::Histogram& h = reg.histogram("c_hist");
  h.observe(1);
  h.observe(100);
  const std::string expect =
      "# HELP a_counter help text\n"
      "# TYPE a_counter counter\n"
      "a_counter 3\n"
      "# TYPE b_gauge gauge\n"
      "b_gauge 7\n"
      "# TYPE c_hist histogram\n"
      "c_hist_bucket{le=\"1\"} 1\n"
      "c_hist_bucket{le=\"103\"} 2\n"
      "c_hist_bucket{le=\"+Inf\"} 2\n"
      "c_hist_sum 101\n"
      "c_hist_count 2\n";
  EXPECT_EQ(obs::to_prometheus(reg), expect);
}

TEST(ObsExport, JsonGolden) {
  obs::Registry reg;
  reg.counter("a_counter").add(3);
  reg.gauge("b_gauge").set(7);
  obs::Histogram& h = reg.histogram("c_hist");
  h.observe(1);
  h.observe(100);
  const std::string expect =
      "{\"a_counter\":3,\"b_gauge\":7,"
      "\"c_hist\":{\"count\":2,\"sum\":101,\"p50\":1,\"p90\":103,"
      "\"p99\":103,\"buckets\":[[1,1],[103,2]]}}";
  EXPECT_EQ(obs::to_json(reg), expect);
}

// ----------------------------------------------------------------- tracer

TEST(ObsTracer, RingWrapDropsOldestAndCounts) {
  obs::Tracer t(true, 1, 16);
  for (u64 i = 0; i < 40; ++i) t.complete(0, "s", i, 0, i, i + 1);
  const auto spans = t.snapshot();
  ASSERT_EQ(spans.size(), 16u);
  EXPECT_EQ(t.dropped(), 24u);
  // Oldest-first unroll: the surviving spans are queries 24..39 in order.
  for (u64 i = 0; i < spans.size(); ++i)
    EXPECT_EQ(spans[i].second.query, 24 + i);
}

TEST(ObsTracer, DisabledTracerRecordsNothing) {
  obs::Tracer t(false, 2, 128);
  t.complete(0, "s", 1, 0, 0, 5);
  t.instant(1, "i", 2, 0);
  EXPECT_FALSE(t.enabled());
  EXPECT_TRUE(t.snapshot().empty());
}

TEST(ObsTracer, ConcurrentLanesLoseNothing) {
  constexpr u32 kLanes = 4;
  constexpr u64 kPer = 2000;
  obs::Tracer t(true, kLanes, kPer);
  std::vector<std::thread> threads;
  for (u32 lane = 0; lane < kLanes; ++lane) {
    threads.emplace_back([&, lane] {
      for (u64 i = 0; i < kPer; ++i)
        t.complete(lane, "span", lane * kPer + i, lane, i, i + 1);
    });
  }
  for (auto& th : threads) th.join();
  const auto spans = t.snapshot();
  EXPECT_EQ(spans.size(), kLanes * kPer);
  EXPECT_EQ(t.dropped(), 0u);
  // Chrome export is parseable-shaped: one event per span + lane metas.
  std::ostringstream os;
  t.export_chrome(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_EQ(json.back(), '\n');
}

// ------------------------------------------------- serve-layer integration

/// Plants 256 distinct keys above every other one in a contiguous run, so
/// more than k keys lie strictly above the stage-2 threshold for every
/// k < 256 and the group's batched second top-k runs.
void plant_hot_run(std::span<u32> v) {
  for (u64 i = 0; i < 256; ++i) v[1024 + i] = 0xFFFF0000u + static_cast<u32>(i);
}

TEST(ObsServe, SpansWellFormedUnderConcurrentExecutors) {
  auto a = data::generate(1 << 15, data::Distribution::kUniform, 31);
  auto b = data::generate(1 << 14, data::Distribution::kNormal, 32);
  plant_hot_run(a);
  plant_hot_run(b);
  std::span<const u32> as(a.data(), a.size());
  std::span<const u32> bs(b.data(), b.size());

  vgpu::Device dev(vgpu::GpuProfile::v100s());
  serve::ServerConfig cfg;
  cfg.executors = 4;
  cfg.obs.tracing = true;
  serve::TopkServer server(dev, cfg);

  std::vector<serve::Query> queries;
  for (int i = 0; i < 48; ++i)
    queries.push_back(serve::Query::view(i % 2 ? as : bs, 25 + 25 * (i % 4)));
  auto results = server.run_batch(std::move(queries));
  server.drain();

  const auto spans = server.tracer().snapshot();
  ASSERT_FALSE(spans.empty());
  for (const auto& [lane, s] : spans) {
    EXPECT_NE(s.name[0], '\0');
    EXPECT_LT(s.dur_us, u64{60} * 1000 * 1000) << s.name;
  }
  // Per query: exactly one enqueue instant, one queue-wait span and one
  // phase-a span — no orphans (missing spans) and no duplicates
  // (double-claimed queries).
  for (const auto& r : results) {
    u64 enq = 0, wait = 0, phase = 0;
    for (const auto& [lane, s] : spans) {
      if (s.query != r.id) continue;
      if (std::string_view(s.name) == "enqueue") ++enq;
      if (std::string_view(s.name) == "queue-wait") ++wait;
      if (std::string_view(s.name) == "phase-a") ++phase;
    }
    EXPECT_EQ(enq, 1u) << "query " << r.id;
    EXPECT_EQ(wait, 1u) << "query " << r.id;
    EXPECT_EQ(phase, 1u) << "query " << r.id;
  }
  // The run exercised the batched path: parked items must close their
  // deferred-park spans at a finalize.
  u64 parks = 0, finalizes = 0;
  for (const auto& [lane, s] : spans) {
    if (std::string_view(s.name) == "deferred-park") ++parks;
    if (std::string_view(s.name) == "batched-finalize") ++finalizes;
  }
  EXPECT_GT(parks, 0u);
  EXPECT_GT(finalizes, 0u);
}

TEST(ObsServe, EveryServedLaunchCarriesAStageLabel) {
  // Mixed corpora/distributions, each with a planted run of top keys, so
  // the run exercises the deferred stage-4 path too (with at most k keys
  // above an exact kappa, stage 4 is skipped entirely, which would leave
  // "second" untested).
  auto a = data::generate(1 << 15, data::Distribution::kUniform, 31);
  auto b = data::generate(1 << 14, data::Distribution::kNormal, 32);
  plant_hot_run(a);
  plant_hot_run(b);
  std::span<const u32> as(a.data(), a.size());
  std::span<const u32> bs(b.data(), b.size());

  // Fresh device: the ledger must contain ONLY this server's launches.
  vgpu::Device dev(vgpu::GpuProfile::v100s());
  serve::ServerConfig cfg;
  cfg.executors = 3;
  serve::TopkServer server(dev, cfg);

  std::vector<serve::Query> queries;
  for (int i = 0; i < 48; ++i)
    queries.push_back(serve::Query::view(i % 2 ? as : bs, 25 + 25 * (i % 4)));
  server.run_batch(std::move(queries));
  server.drain();

  EXPECT_EQ(dev.unattributed_launches(), 0u);

  // Per-stage totals reconcile EXACTLY with the aggregate: the ledger adds
  // the same KernelStats under the same lock.
  vgpu::KernelStats sum;
  bool saw_construct = false, saw_second = false;
  u64 concat_launches = 0;
  for (const vgpu::StageStats& st : dev.stage_stats()) {
    EXPECT_NE(st.stage, "unattributed");
    sum += st.stats;
    if (st.stage == "construct") saw_construct = true;
    if (st.stage == "second") saw_second = true;
    if (st.stage == "concat") concat_launches = st.stats.kernels_launched;
  }
  EXPECT_TRUE(saw_construct);
  EXPECT_TRUE(saw_second);
  // The group setup's stage-3 launch lands in the device's "concat"
  // row, not in the batched kappa launch's "first" row before it.
  EXPECT_GT(concat_launches, 0u);
  EXPECT_EQ(concat_launches, server.stats().concat_launches);
  const vgpu::KernelStats total = dev.total_stats();
  EXPECT_EQ(sum.global_load_elems, total.global_load_elems);
  EXPECT_EQ(sum.global_store_elems, total.global_store_elems);
  EXPECT_EQ(sum.global_load_bytes, total.global_load_bytes);
  EXPECT_EQ(sum.global_store_bytes, total.global_store_bytes);
  EXPECT_EQ(sum.global_load_txns, total.global_load_txns);
  EXPECT_EQ(sum.global_store_txns, total.global_store_txns);
  EXPECT_EQ(sum.shfl_ops, total.shfl_ops);
  EXPECT_EQ(sum.vote_ops, total.vote_ops);
  EXPECT_EQ(sum.atomic_ops, total.atomic_ops);
  EXPECT_EQ(sum.shared_loads, total.shared_loads);
  EXPECT_EQ(sum.shared_stores, total.shared_stores);
  EXPECT_EQ(sum.shared_bank_conflicts, total.shared_bank_conflicts);
  EXPECT_EQ(sum.kernels_launched, total.kernels_launched);
  EXPECT_EQ(sum.ctas_run, total.ctas_run);
  EXPECT_GT(total.kernels_launched, 0u);
}

TEST(ObsServe, HistogramPercentilesMatchExactSortPath) {
  // The server's streaming-histogram percentiles against an exact sort of
  // the latencies its answers report: they must agree to within one
  // histogram bucket (<= 12.5% relative, and the histogram never
  // under-reports).
  auto v = data::generate(1 << 15, data::Distribution::kUniform, 51);
  std::span<const u32> vs(v.data(), v.size());
  vgpu::Device dev(vgpu::GpuProfile::v100s());
  serve::ServerConfig cfg;
  cfg.executors = 2;
  serve::TopkServer server(dev, cfg);
  std::vector<serve::Query> queries;
  for (int i = 0; i < 64; ++i)
    queries.push_back(serve::Query::view(vs, 5 + 40 * (i % 3)));
  const auto results = server.run_batch(std::move(queries));
  server.drain();
  const serve::ServerStats hist = server.stats();

  std::vector<double> sorted;
  for (const auto& r : results) sorted.push_back(r.latency_sim_ms);
  std::sort(sorted.begin(), sorted.end());
  const auto exact = [&](double q) {
    const double pos = q * static_cast<double>(sorted.size() - 1);
    return sorted[static_cast<size_t>(pos)];
  };
  ASSERT_EQ(hist.completed, sorted.size());
  EXPECT_GE(hist.p50_sim_ms, exact(0.5) * 0.99 - 2e-3);
  EXPECT_LE(hist.p50_sim_ms, exact(0.5) * 1.13 + 2e-3);
  EXPECT_GE(hist.p99_sim_ms, exact(0.99) * 0.99 - 2e-3);
  EXPECT_LE(hist.p99_sim_ms, exact(0.99) * 1.13 + 2e-3);
}

TEST(ObsServe, ServerExportsMetricsAndTrace) {
  auto v = data::generate(1 << 14, data::Distribution::kUniform, 61);
  std::span<const u32> vs(v.data(), v.size());
  vgpu::Device dev(vgpu::GpuProfile::v100s());
  serve::ServerConfig cfg;
  cfg.executors = 2;
  cfg.obs.tracing = true;
  serve::TopkServer server(dev, cfg);
  std::vector<serve::Query> queries;
  for (int i = 0; i < 16; ++i)
    queries.push_back(serve::Query::view(vs, 100));
  server.run_batch(std::move(queries));
  server.drain();

  const std::string prom = server.metrics_prometheus();
  EXPECT_NE(prom.find("serve_queries_completed 16"), std::string::npos);
  EXPECT_NE(prom.find("serve_latency_sim_us_count 16"), std::string::npos);
  EXPECT_NE(prom.find("serve_queue_wait_us_count 16"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE serve_latency_sim_us histogram"),
            std::string::npos);

  const std::string json = server.metrics_json();
  EXPECT_NE(json.find("\"serve_queries_completed\":16"), std::string::npos);
  EXPECT_NE(prom.find("\nserve_shared_setups 0\n"), std::string::npos);
  EXPECT_NE(json.find("\"serve_shared_setups\":0"), std::string::npos);

  // A burst larger than batch_max fills group 2 and opens group 3, a
  // sibling that shares group 2's setup: counted in serve_shared_setups
  // and marked by one setup-shared instant carrying group 2's seq.
  std::vector<serve::Query> burst;
  for (int i = 0; i < 20; ++i) burst.push_back(serve::Query::view(vs, 100));
  server.run_batch(std::move(burst));
  server.drain();
  EXPECT_EQ(server.stats().shared_setup_groups, 1u);
  EXPECT_NE(server.metrics_prometheus().find("\nserve_shared_setups 1\n"),
            std::string::npos);
  EXPECT_NE(server.metrics_json().find("\"serve_shared_setups\":1"),
            std::string::npos);
  u64 shared = 0;
  for (const auto& [lane, s] : server.tracer().snapshot()) {
    if (std::string_view(s.name) != "setup-shared") continue;
    ++shared;
    EXPECT_EQ(lane, 0u);
    EXPECT_EQ(s.group, 3u);
    EXPECT_EQ(s.detail, "2");
  }
  EXPECT_EQ(shared, 1u);

  const std::string path = "test_obs_trace.json";
  ASSERT_TRUE(server.dump_trace(path));
  std::ifstream f(path);
  ASSERT_TRUE(f.good());
  std::stringstream ss;
  ss << f.rdbuf();
  EXPECT_NE(ss.str().find("\"traceEvents\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(Export, LabelSetRendersOnEverySeries) {
  obs::Registry reg;
  reg.counter("requests", "help text").add(3);
  reg.gauge("depth", "").set(7);
  auto& h = reg.histogram("lat_us", "");
  h.observe(10);
  h.observe(1000);

  const std::string prom = obs::to_prometheus(reg, "shard=\"2\"");
  EXPECT_NE(prom.find("requests{shard=\"2\"} 3"), std::string::npos);
  EXPECT_NE(prom.find("depth{shard=\"2\"} 7"), std::string::npos);
  // Histogram series splice the label before le and onto _sum/_count.
  EXPECT_NE(prom.find("lat_us_bucket{shard=\"2\",le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(prom.find("lat_us_sum{shard=\"2\"}"), std::string::npos);
  EXPECT_NE(prom.find("lat_us_count{shard=\"2\"} 2"), std::string::npos);
  // No label: output identical to the pre-label format.
  EXPECT_NE(obs::to_prometheus(reg).find("requests 3"), std::string::npos);

  const std::string json = obs::to_json(reg, "shard=\"2\"");
  EXPECT_NE(json.find("\"requests{shard=\\\"2\\\"}\":3"), std::string::npos);
  EXPECT_NE(json.find("\"lat_us{shard=\\\"2\\\"}\":{"), std::string::npos);
  EXPECT_NE(obs::to_json(reg).find("\"requests\":3"), std::string::npos);
}

TEST(Trace, MultiTracerExportSeparatesProcesses) {
  obs::Tracer a(true, 2, 16), b(true, 1, 16);
  a.complete(0, "enqueue", 1, 0, 0, 5);
  a.complete(1, "phase-a", 1, 1, 5, 9);
  b.instant(0, "enqueue", 2, 0);
  std::ostringstream os;
  obs::export_chrome_multi(os, {{"shard-0", &a}, {"shard-1", &b}});
  const std::string out = os.str();
  // One process row per tracer, named via process_name metadata.
  EXPECT_NE(out.find("\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1"),
            std::string::npos);
  EXPECT_NE(out.find("\"name\":\"shard-0\""), std::string::npos);
  EXPECT_NE(out.find("\"name\":\"shard-1\""), std::string::npos);
  // Events carry their tracer's pid; shard-1's instant lands under pid 2.
  EXPECT_NE(out.find("\"ph\":\"i\",\"ts\":"), std::string::npos);
  EXPECT_NE(out.find("\"pid\":2,\"tid\":0"), std::string::npos);
  // Single-tracer export is unchanged: fixed pid 1 envelope.
  std::ostringstream solo;
  a.export_chrome(solo);
  EXPECT_NE(solo.str().find("\"pid\":1,\"tid\":1"), std::string::npos);
  EXPECT_EQ(solo.str().find("\"pid\":2"), std::string::npos);
}

}  // namespace
}  // namespace drtopk
