// ShardedTopkServer: multi-device top-k serving with a batched cross-shard
// merge.
//
//   serve::ShardedConfig cfg;            // 2 shards by default
//   serve::ShardedTopkServer srv(cfg);
//   auto corpus = srv.register_corpus(big_span);   // sharded once, here
//   auto f = srv.submit(corpus, 100);
//   auto r = f.get();                    // bit-identical to one TopkServer
//   auto fs = srv.submit_many(corpus, {16, 64, 256});  // one burst
//
// One vgpu::Device tops out at its SM and memory budget; past that,
// throughput comes from partition-local selection plus a cheap merge (the
// paper's Section 5.4 multi-GPU design; RadiK's multi-partition serving
// confirms the shape). A corpus is registered ONCE and cut into
// contiguous shards across N devices; every shard owns a full TopkServer
// — executor pool, shard-local PlanCache, pooled workspaces, admission
// groups, batched kappa, stage-3 and finalization launches — and serves
// its sub-span exactly as the single-device engine would.
//
// Life of a multi-shard query:
//
//   submit_many(corpus, ks) -> scatter: per shard, one burst of
//                        sub-queries (TopkServer::submit_many), each k
//                        clamped to the shard's length (a shard's local
//                        top-k is a superset of its members of the global
//                        top-k); submit(corpus, k) is the one-k burst
//                     -> each shard serves its burst through its admission
//                        groups and finalizes LOCALLY (the single-device
//                        batched machinery, unchanged)
//                     -> merge thread: shard winner lists are re-keyed to
//                        the directed-key domain and merged by ONE
//                        topk::batched_merge_topk launch per key width for
//                        the whole in-flight batch
//                     -> global top-k, bit-identical to the single-device
//                        answer (values are merged as exact multisets).
//
// Single-shard corpora short-circuit: the burst goes straight to the
// owning shard's TopkServer, with no scatter and no merge launch; the
// merge thread only forwards each answer (or exception) and counts it.
// docs/ARCHITECTURE.md walks the full path.
#pragma once

#include <condition_variable>
#include <deque>
#include <thread>

#include "serve/server.hpp"

namespace drtopk::serve {

/// Sharded-deployment knobs. `shard` is the per-shard ServerConfig — every
/// single-device option (batching, obs) applies per shard unchanged.
struct ShardedConfig {
  u32 num_shards = 2;  ///< devices (and TopkServers) to spread corpora over
  /// Corpora shorter than 2x this stay on one shard: below it the merge
  /// hop costs more than shard parallelism recovers. A corpus of n
  /// elements lands on clamp(n / min_shard_elems, 1, num_shards) shards.
  u64 min_shard_elems = u64{1} << 12;
  ServerConfig shard;            ///< per-shard server configuration
  vgpu::GpuProfile profile = vgpu::GpuProfile::v100s();
  u32 host_threads_per_shard = 2;  ///< host threads backing each device
};

/// Aggregate sharded-deployment metrics. Per-shard detail lives in each
/// shard's own ServerStats (ShardedTopkServer::shard(i).stats()).
struct ShardedStats {
  u64 completed = 0;             ///< queries answered (both routes)
  u64 single_shard_queries = 0;  ///< short-circuited to one TopkServer
  u64 merged_queries = 0;        ///< scatter/merge route
  u64 failed = 0;                ///< queries failed by a shard sub-query
                                 ///< (both routes; their futures rethrow
                                 ///< that shard's exception)
  u64 merge_batches = 0;         ///< merge-thread rounds executed
  u64 merge_launches = 0;        ///< kernel launches spent merging
  u64 plan_publishes = 0;        ///< plan-cache entries adopted from a
                                 ///< sibling shard via share_plans()
  u64 plan_probes_skipped = 0;   ///< calibration probe sets shards never
                                 ///< ran because a published plan hit first
                                 ///< (summed over shard PlanCaches)
  double merge_sim_ms = 0.0;     ///< simulated GPU time of all merges
  /// Modeled makespan of the deployment: shards run concurrently (max
  /// over shard makespans) and the merge device runs after the last
  /// contributor, serialized on the merge accumulator.
  double makespan_sim_ms = 0.0;
  /// Modeled aggregate queries/second of the sharded deployment.
  double qps() const {
    return makespan_sim_ms > 0.0
               ? static_cast<double>(completed) * 1e3 / makespan_sim_ms
               : 0.0;
  }
};

/// N-device sharded serving front end (see the file comment). Owns the
/// shard devices, their TopkServers, the merge device and the merge
/// thread; register_corpus()/submit()/submit_many()/drain() are
/// thread-safe.
class ShardedTopkServer {
 public:
  using CorpusId = u32;

  /// Throws std::invalid_argument when cfg.shard is a ServerConfig that
  /// TopkServer rejects (a non-radix engine or a kappa hook in its base).
  explicit ShardedTopkServer(ShardedConfig cfg = {});
  ~ShardedTopkServer();

  ShardedTopkServer(const ShardedTopkServer&) = delete;
  ShardedTopkServer& operator=(const ShardedTopkServer&) = delete;

  /// Registers a corpus: cut into contiguous shards (the last one ragged)
  /// spread over the shard devices. The data must outlive the server,
  /// exactly like Query::view. Single-shard corpora are placed round-robin
  /// for balance.
  CorpusId register_corpus(std::span<const u32> v);
  CorpusId register_corpus(std::span<const u64> v);

  /// Top-k over a registered corpus: the one-k call of submit_many.
  std::future<QueryResult> submit(CorpusId corpus, u64 k,
                                  data::Criterion criterion =
                                      data::Criterion::kLargest,
                                  bool selection_only = false,
                                  core::FidelityPolicy fidelity = {});

  /// One top-k per entry of `ks` over a registered corpus, scattered as a
  /// burst: every k is validated first (std::invalid_argument, nothing
  /// submitted), then each shard admits its sub-queries in one
  /// TopkServer::submit_many — so they share admission groups exactly as a
  /// single-device run_batch would — and every merge job is enqueued under
  /// one lock. Multi-shard corpora scatter one clamped sub-query per shard
  /// and k and merge; single-shard corpora submit to the owning TopkServer
  /// and the merge thread forwards its answers without a merge launch. Exact
  /// fidelity (the default) keeps the bit-exact cross-shard merge; a recall
  /// target scatters *reduced* shard-local sub-queries (smaller local k,
  /// tightened local target — see the implementation for the budget split)
  /// and merges those exactly. Futures come back in the order of `ks`.
  std::vector<std::future<QueryResult>> submit_many(
      CorpusId corpus, const std::vector<u64>& ks,
      data::Criterion criterion = data::Criterion::kLargest,
      bool selection_only = false, core::FidelityPolicy fidelity = {});

  /// Blocks until every submitted query (both routes) has completed, then
  /// cross-publishes calibrated plans between shards (share_plans).
  void drain();

  /// Cross-shard plan sharing: publishes the union of every shard's
  /// calibrated plans to every sibling (insert-if-absent — local
  /// calibrations always win). PlanKeys are shard-independent (log2 shape
  /// + distribution fingerprint), so shapes recur across shards and the
  /// next shard to see a shared shape skips its whole probe set. Runs
  /// automatically after each merge round and on drain(); public so tests
  /// and routing layers can force a sync point. Returns the number of
  /// entries newly adopted by some shard.
  u64 share_plans();

  ShardedStats stats() const;

  u32 num_shards() const { return static_cast<u32>(shards_.size()); }
  /// Shards a registered corpus actually spans.
  u32 corpus_shards(CorpusId id) const;

  TopkServer& shard(u32 i) { return *shards_[i].server; }
  const TopkServer& shard(u32 i) const { return *shards_[i].server; }
  vgpu::Device& shard_device(u32 i) { return *shards_[i].dev; }
  /// The device the cross-shard merge kernels run on.
  vgpu::Device& merge_device() { return *merge_dev_; }

  /// Summed arena growths across every shard server (the zero-steady-state
  /// growth invariant holds per shard, hence for the sum).
  u64 workspace_growths() const;
  /// Launches missing a stage label, summed over shard + merge devices —
  /// the CI gate's input, must be 0.
  u64 unattributed_launches() const;

  /// All shards' metrics, each series labeled `shard="i"`, followed by the
  /// deployment-level merge metrics labeled `shard="merge"`.
  std::string metrics_prometheus() const;
  /// Same data as one flat JSON object with labeled keys.
  std::string metrics_json() const;

  /// Unified Chrome trace: one process row per shard ("shard-i", its
  /// executors as threads) via obs::export_chrome_multi. Returns false
  /// when tracing is off in the shard config or the file cannot open.
  bool dump_trace(const std::string& path) const;

  const ShardedConfig& config() const { return cfg_; }

 private:
  struct Shard {
    std::unique_ptr<vgpu::Device> dev;
    std::unique_ptr<TopkServer> server;
  };
  /// A registered corpus: the per-shard sub-spans (indexed by shard id;
  /// empty spans on shards the corpus does not reach) plus its width.
  struct Corpus {
    KeyWidth width = KeyWidth::k32;
    u32 shards = 1;      ///< sub-span count
    u32 first_shard = 0; ///< owning shard when shards == 1
    std::span<const u32> v32;
    std::span<const u64> v64;
    u64 shard_len = 0;   ///< elements per shard (last one ragged)
  };
  /// One query in flight: the shard futures plus everything the merge
  /// thread needs to assemble and price the global answer.
  struct MergeJob {
    std::promise<QueryResult> promise;
    std::vector<std::future<QueryResult>> parts;
    bool forward = false;  ///< single-shard: parts[0] IS the answer
    u64 id = 0;
    u64 k = 1;
    data::Criterion criterion = data::Criterion::kLargest;
    bool selection_only = false;
    KeyWidth width = KeyWidth::k32;
    std::chrono::steady_clock::time_point t_submit;
  };

  u32 shards_for(u64 n) const;
  CorpusId add_corpus(Corpus c);
  void merge_loop();
  /// Fulfils a single-shard job with its one part's answer or exception,
  /// counted in completed or failed first.
  void forward(MergeJob& job);
  /// Merges one batch of jobs of width T in one batched launch for ALL
  /// jobs. Fulfils every job's promise: with its merged answer, or with
  /// the exception of its first failed shard sub-query.
  template <class T>
  void merge_batch_typed(std::vector<MergeJob>& jobs);

  ShardedConfig cfg_;
  std::vector<Shard> shards_;
  /// Merge kernels run on their own small device so shard makespans stay
  /// clean (the merge is serialized after its contributors anyway; its
  /// cost is accounted in ShardedStats::merge_sim_ms).
  std::unique_ptr<vgpu::Device> merge_dev_;

  mutable std::mutex corpora_mu_;
  std::vector<Corpus> corpora_;

  // Merge-thread state: jobs queue in submission order; the thread drains
  // ALL queued jobs as one batch (natural batching under load — while it
  // blocks on shard futures, new arrivals pile up for the next round).
  std::mutex jobs_mu_;
  std::condition_variable jobs_cv_;   ///< wakes the merge thread
  std::condition_variable drain_cv_;  ///< wakes drain()
  std::deque<MergeJob> jobs_;
  u64 jobs_in_flight_ = 0;  ///< queued + being merged
  bool stop_ = false;
  std::thread merger_;

  mutable std::mutex stats_mu_;
  ShardedStats agg_;
  u64 next_id_ = 1;

  obs::Registry registry_;  ///< deployment-level (merge-path) metrics
  obs::Counter& m_single_;
  obs::Counter& m_merged_;
  obs::Counter& m_failed_;
  obs::Counter& m_batches_;
  obs::Counter& m_launches_;
  obs::Histogram& merge_batch_size_;
};

}  // namespace drtopk::serve
