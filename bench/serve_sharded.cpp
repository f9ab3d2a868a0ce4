// Sharded serving scaling: serve::ShardedTopkServer at 2 and 4 shards
// against the single-device TopkServer on the SAME corpus and query mix —
// the PR-7 gate. The corpus is framed as 4x one device's nominal capacity
// (recorded as capacity_ratio), so the single-device baseline is the
// honest "it still fits, barely" configuration the sharded deployment has
// to beat on throughput, not just capacity.
//
// Throughput is simulated-GPU: a deployment's makespan is the largest
// per-shard balanced-fleet time (each shard's summed per-query sim work
// over its executor count — shards run concurrently) plus the serialized
// cross-shard merge time; QPS = queries / makespan. The single-device
// number uses the same formula with one shard and no merge, matching
// bench_serve_throughput's balanced-fleet discipline. Every deployment's
// answers are compared bit for bit with the CPU reference oracle
// (topk::reference_topk). Results land in BENCH_PR7.json section
// "serve_sharded"; CI gates on that parity and the 2-shard gain.
//
// Both sides admit each round as one burst: the single device through
// TopkServer::run_batch, the sharded deployments through
// ShardedTopkServer::submit_many, so every shard sees the round's queries
// in its admission groups exactly as the single device does. An ungated
// "streamed" row repeats the launch-bound 4-shard run with one submit per
// query, which shows what a burst saves over one-at-a-time arrivals.
#include "common.hpp"
#include "serve/sharded.hpp"

using namespace drtopk;

namespace {

/// The benchmark's query mix: a handful of distinct-k queries per round.
/// A SMALL round keeps each query's cost dominated by its share of the
/// corpus-proportional construction scan — the regime data sharding
/// targets. The opposite regime (many tiny queries, per-query launch
/// overhead bound) is what bench_serve_throughput measures; sharding
/// cannot help there and this benchmark does not pretend otherwise.
std::vector<u64> query_ks() { return {64, 128, 256, 512}; }

struct DeployRun {
  double qps = 0;
  double makespan_ms = 0;   ///< balanced-fleet makespan of measured rounds
  double merge_ms = 0;      ///< serialized merge share of the makespan
  u64 served = 0;
  u64 launches = 0;         ///< kernel launches (all devices), measured rounds
  u64 merge_launches = 0;
  u64 merge_batches = 0;
  u64 unattributed = 0;
  std::vector<std::vector<u64>> values;  ///< measured answers, parity input
};

/// The CPU reference oracle's answer for each k: one reference_topk pass
/// at the largest k serves them all, since every shorter top-k list is a
/// prefix of a longer one.
std::vector<std::vector<u64>> oracle_answers(std::span<const u32> corpus,
                                             const std::vector<u64>& ks) {
  const u64 kmax = *std::max_element(ks.begin(), ks.end());
  const std::vector<u32> top = topk::reference_topk(corpus, kmax);
  std::vector<std::vector<u64>> out;
  for (u64 k : ks) out.emplace_back(top.begin(), top.begin() + k);
  return out;
}

/// Parity: every measured answer (rounds x ks, in submission order) is
/// bit-identical to the oracle's answer for its k.
bool matches_oracle(const DeployRun& d,
                    const std::vector<std::vector<u64>>& expect) {
  for (size_t i = 0; i < d.values.size(); ++i)
    if (d.values[i] != expect[i % expect.size()]) return false;
  return !d.values.empty();
}

/// Per-shard balanced-fleet time: summed per-query sim work over the
/// executor count (deterministic, unlike the raw scheduling-dependent
/// makespan — same reasoning as bench_serve_throughput).
double balanced_ms(const serve::ServerStats& after,
                   const serve::ServerStats& warm, u32 executors) {
  return (after.total_sim_ms - warm.total_sim_ms) /
         static_cast<double>(executors);
}

/// One deployment over `shards` devices. `burst` admits each round through
/// submit_many (the gated rows); otherwise one submit per query.
DeployRun run_sharded(u32 shards, std::span<const u32> corpus,
                      const std::vector<u64>& ks, int rounds,
                      const serve::ServerConfig& shard_cfg,
                      bool burst = true) {
  serve::ShardedConfig cfg;
  cfg.num_shards = shards;
  cfg.min_shard_elems = 1;  // spread the corpus over every shard
  cfg.shard = shard_cfg;
  serve::ShardedTopkServer srv(cfg);
  const auto corpus_id = srv.register_corpus(corpus);

  auto round = [&] {
    std::vector<std::future<serve::QueryResult>> fs;
    if (burst) {
      fs = srv.submit_many(corpus_id, ks);
    } else {
      fs.reserve(ks.size());
      for (u64 k : ks) fs.push_back(srv.submit(corpus_id, k));
    }
    std::vector<std::vector<u64>> vals;
    vals.reserve(fs.size());
    for (auto& f : fs) vals.push_back(f.get().values);
    return vals;
  };

  // Warm until every shard's arena growth converges (plan calibration +
  // pool sizing), then measure.
  (void)round();
  (void)round();
  for (int w = 0, calm = 0; w < 12 && calm < 2; ++w) {
    const u64 before = srv.workspace_growths();
    (void)round();
    calm = srv.workspace_growths() == before ? calm + 1 : 0;
  }
  srv.drain();
  std::vector<serve::ServerStats> warm_shard;
  for (u32 s = 0; s < shards; ++s) warm_shard.push_back(srv.shard(s).stats());
  const auto warm = srv.stats();
  u64 warm_launches = srv.merge_device().total_stats().kernels_launched;
  for (u32 s = 0; s < shards; ++s)
    warm_launches += srv.shard_device(s).total_stats().kernels_launched;

  DeployRun out;
  for (int r = 0; r < rounds; ++r) {
    auto vals = round();
    out.values.insert(out.values.end(), vals.begin(), vals.end());
  }
  srv.drain();
  const auto after = srv.stats();

  double worst_shard = 0.0;
  for (u32 s = 0; s < shards; ++s)
    worst_shard = std::max(
        worst_shard, balanced_ms(srv.shard(s).stats(), warm_shard[s],
                                 cfg.shard.executors));
  out.merge_ms = after.merge_sim_ms - warm.merge_sim_ms;
  out.makespan_ms = worst_shard + out.merge_ms;
  out.served = after.completed - warm.completed;
  out.qps = static_cast<double>(out.served) * 1e3 / out.makespan_ms;
  out.merge_launches = after.merge_launches - warm.merge_launches;
  out.merge_batches = after.merge_batches - warm.merge_batches;
  u64 end_launches = srv.merge_device().total_stats().kernels_launched;
  for (u32 s = 0; s < shards; ++s)
    end_launches += srv.shard_device(s).total_stats().kernels_launched;
  out.launches = end_launches - warm_launches;
  out.unattributed = srv.unattributed_launches();
  return out;
}

DeployRun run_single(std::span<const u32> corpus, const std::vector<u64>& ks,
                     int rounds, const serve::ServerConfig& cfg) {
  vgpu::Device dev(vgpu::GpuProfile::v100s());
  serve::TopkServer srv(dev, cfg);
  std::vector<serve::Query> qs;
  for (u64 k : ks) qs.push_back(serve::Query::view(corpus, k));

  (void)srv.run_batch(qs);
  (void)srv.run_batch(qs);
  for (int w = 0, calm = 0; w < 12 && calm < 2; ++w) {
    const u64 before = srv.workspace_growths();
    (void)srv.run_batch(qs);
    calm = srv.workspace_growths() == before ? calm + 1 : 0;
  }
  const auto warm = srv.stats();
  const u64 warm_launches = dev.total_stats().kernels_launched;

  DeployRun out;
  for (int r = 0; r < rounds; ++r) {
    auto res = srv.run_batch(qs);
    for (auto& qr : res) out.values.push_back(std::move(qr.values));
  }
  const auto after = srv.stats();
  out.served = after.completed - warm.completed;
  out.makespan_ms = balanced_ms(after, warm, srv.config().executors);
  out.qps = static_cast<double>(out.served) * 1e3 / out.makespan_ms;
  out.launches = dev.total_stats().kernels_launched - warm_launches;
  out.unattributed = dev.unattributed_launches();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Args args = bench::Args::parse(argc, argv);
  args.default_logn(27);
  std::string json8 = "BENCH_PR8.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json8=", 0) == 0) json8 = arg.substr(8);
  }
  bench::print_title("PR-7", "sharded serving scaling (ShardedTopkServer)",
                     args);

  const u64 n = args.n();
  auto v = data::generate(n, data::Distribution::kUniform, args.seed);
  std::span<const u32> corpus(v.data(), v.size());
  const std::vector<u64> ks = query_ks();
  const int rounds = 3;

  const serve::ServerConfig shard_cfg;
  const DeployRun single = run_single(corpus, ks, rounds, shard_cfg);
  const DeployRun two = run_sharded(2, corpus, ks, rounds, shard_cfg);
  const DeployRun four = run_sharded(4, corpus, ks, rounds, shard_cfg);

  const auto expect = oracle_answers(corpus, ks);
  const bool parity1 = matches_oracle(single, expect);
  const bool parity2 = matches_oracle(two, expect);
  const bool parity4 = matches_oracle(four, expect);
  const double gain2 = two.qps / single.qps;
  const double gain4 = four.qps / single.qps;

  std::printf("%-14s %10s %12s %12s %10s %8s\n", "deployment", "qps",
              "makespan", "merge_ms", "gain", "parity");
  std::printf("%-14s %10.1f %12.3f %12.3f %10s %8s\n", "single", single.qps,
              single.makespan_ms, 0.0, "1.00x", parity1 ? "ok" : "FAIL");
  std::printf("%-14s %10.1f %12.3f %12.3f %9.2fx %8s\n", "2-shard", two.qps,
              two.makespan_ms, two.merge_ms, gain2, parity2 ? "ok" : "FAIL");
  std::printf("%-14s %10.1f %12.3f %12.3f %9.2fx %8s\n", "4-shard", four.qps,
              four.makespan_ms, four.merge_ms, gain4, parity4 ? "ok" : "FAIL");

  bench::Json report = bench::Json::object();
  report.set("n", n)
      .set("device_capacity_elems", n / 4)
      .set("capacity_ratio", 4.0)
      .set("queries_per_round", static_cast<u64>(ks.size()))
      .set("rounds", static_cast<u64>(rounds))
      .set("qps_single", single.qps)
      .set("qps_2shard", two.qps)
      .set("qps_4shard", four.qps)
      .set("gain_2shard", gain2)
      .set("gain_4shard", gain4)
      .set("parity_2shard", parity2)
      .set("parity_4shard", parity4)
      .set("merge_sim_ms_2shard", two.merge_ms)
      .set("merge_sim_ms_4shard", four.merge_ms)
      .set("merge_launches_2shard", two.merge_launches)
      .set("merge_launches_4shard", four.merge_launches)
      .set("merge_batches_4shard", four.merge_batches)
      .set("unattributed_launches",
           single.unattributed + two.unattributed + four.unattributed);
  const std::string path = args.json.empty() ? "BENCH_PR7.json" : args.json;
  bench::write_json_section(path, "serve_sharded", report);

  // ------------------------------------------------------------------
  // The launch-bound regime. Many small-k queries on a corpus sized so
  // the per-group scan is only a few launch overheads: the group-wide
  // batched stage 3 collapses each group's launch cost to one
  // stage-3 launch, so the corpus scan dominates again and the
  // 4-shard gain comes back. The corpus size is FIXED (independent of
  // --logn) so the committed BENCH_PR8.json and the CI re-run measure the
  // same point.
  // ------------------------------------------------------------------
  const u64 lb_n = u64{3} << 22;  // ~12.6M: per-group scan ~ 8 launches
  auto lbv = data::generate(lb_n, data::Distribution::kUniform, args.seed + 7);
  std::span<const u32> lb_corpus(lbv.data(), lbv.size());
  // 4 admission groups of 16 distinct small ks per round, admitted as one
  // burst per device, so they are one set: per device and
  // round one construct, kappa, stage-3 and finalize launch, and the merge
  // cost amortizes across the round.
  std::vector<u64> lb_ks;
  for (u64 i = 0; i < 64; ++i) lb_ks.push_back(32 * ((i % 16) + 1));

  const DeployRun lb_single = run_single(lb_corpus, lb_ks, rounds, shard_cfg);
  const DeployRun lb_four = run_sharded(4, lb_corpus, lb_ks, rounds, shard_cfg);
  const DeployRun lb_streamed =
      run_sharded(4, lb_corpus, lb_ks, rounds, shard_cfg, /*burst=*/false);

  const double lb_gain4 = lb_four.qps / lb_single.qps;
  const double lb_gain4_streamed = lb_streamed.qps / lb_single.qps;
  const auto lb_expect = oracle_answers(lb_corpus, lb_ks);
  const bool lb_parity = matches_oracle(lb_single, lb_expect) &&
                         matches_oracle(lb_four, lb_expect);
  const double lb_lpq_single = static_cast<double>(lb_single.launches) /
                               static_cast<double>(lb_single.served);

  std::printf("\nlaunch-bound (n=%llu, %zu queries/round):\n",
              static_cast<unsigned long long>(lb_n), lb_ks.size());
  std::printf("%10s %10s %10s %8s\n", "single", "4-shard", "gain", "parity");
  std::printf("%10.1f %10.1f %9.2fx %8s\n", lb_single.qps, lb_four.qps,
              lb_gain4, lb_parity ? "ok" : "FAIL");
  std::printf("streamed, one submit per query (ungated): %10.1f %9.2fx %8s\n",
              lb_streamed.qps, lb_gain4_streamed,
              matches_oracle(lb_streamed, lb_expect) ? "ok" : "FAIL");
  std::printf("single-device launches/query: %.2f\n", lb_lpq_single);

  // ------------------------------------------------------------------
  // Shard-aware plan sharing. The SAME data registered as four
  // single-shard corpora lands round-robin on four different shards; only
  // the first shard to serve the shape runs the calibration probe set —
  // drain()'s share_plans() publishes its plan, and the other N-1 shards
  // skip their probes entirely (PlanKeys are shard-independent).
  // ------------------------------------------------------------------
  serve::ShardedConfig pscfg;
  pscfg.num_shards = 4;
  pscfg.min_shard_elems = u64{1} << 30;  // keep each corpus on ONE shard
  serve::ShardedTopkServer psrv(pscfg);
  auto psdata =
      data::generate(u64{1} << 16, data::Distribution::kUniform, args.seed + 9);
  std::span<const u32> pspan(psdata.data(), psdata.size());
  std::vector<serve::ShardedTopkServer::CorpusId> ids;
  for (int i = 0; i < 4; ++i) ids.push_back(psrv.register_corpus(pspan));

  psrv.submit(ids[0], 128).get();  // shard 0 calibrates the shape
  psrv.drain();                    // ... and drain() cross-publishes it
  for (int i = 1; i < 4; ++i) psrv.submit(ids[i], 128).get();
  psrv.drain();
  const auto psst = psrv.stats();
  const double skip_ratio =
      static_cast<double>(psst.plan_probes_skipped) /
      static_cast<double>(pscfg.num_shards - 1);
  std::printf("\nplan sharing: %llu published, %llu probe sets skipped"
              " (%.2fx of the %u sibling shards)\n",
              static_cast<unsigned long long>(psst.plan_publishes),
              static_cast<unsigned long long>(psst.plan_probes_skipped),
              skip_ratio, pscfg.num_shards - 1);

  bench::Json r8 = bench::Json::object();
  r8.set("lb_n", lb_n)
      .set("lb_queries_per_round", static_cast<u64>(lb_ks.size()))
      .set("rounds", static_cast<u64>(rounds))
      .set("lb_qps_single_batched", lb_single.qps)
      .set("lb_qps_4shard_batched", lb_four.qps)
      .set("lb_gain_4shard_batched", lb_gain4)
      .set("lb_lpq_single_batched", lb_lpq_single)
      .set("lb_parity", lb_parity)
      .set("plan_shards", static_cast<u64>(pscfg.num_shards))
      .set("plan_publishes", psst.plan_publishes)
      .set("plan_probes_skipped", psst.plan_probes_skipped)
      .set("plan_skip_ratio", skip_ratio)
      .set("unattributed_launches",
           lb_single.unattributed + lb_four.unattributed +
               psrv.unattributed_launches());
  bench::write_json_section(json8, "serve_sharded_batched", r8);

  if (!parity1 || !parity2 || !parity4 || !lb_parity) {
    std::printf("PARITY FAILURE\n");
    return 1;
  }
  return 0;
}
