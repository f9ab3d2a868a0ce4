// TopkServer: batched multi-query top-k serving on one virtual GPU.
//
//   vgpu::Device dev;
//   serve::TopkServer server(dev);
//   auto f1 = server.submit(serve::Query::view(corpus, 100));
//   auto f2 = server.submit(serve::Query::view(corpus, 10, Criterion::kLargest,
//                                              /*selection_only=*/true));
//   auto r = f1.get();   // exact top-k, same bits as core::dr_topk
//
// Architecture (the seam every scaling PR plugs into):
//
//   submit() -> AdmissionQueue (bounded, backpressure)
//            -> admission groups of at most batch_max compatible queries;
//               a burst that fills one opens siblings of it, and the
//               siblings form one set that shares everything below
//            -> executor threads claim work: one resolves the set's plan
//               via the PlanCache (calibrated alpha, skipping the tuner on
//               hits), builds ONE shared delegate vector for the whole
//               set, closes the set's admission and builds ONE candidate
//               set at the set's largest k; then all executors
//               cooperatively drain the set's queries on the shared
//               Device (whose thread pool multiplexes the kernels).
//
// Batching wins because delegate construction — the dominant stage of the
// pipeline (Figure 15) — is paid once per sibling set instead of once per
// query; the plan cache wins by replaying calibrated decisions for
// recurring query shapes. The setup runs stage 2 and stage 3 once, at the
// largest k among the members (kappa only falls as k grows, so that
// candidate set holds every smaller member's answer): a member pads it on
// the host when it holds at most k keys, and otherwise parks on it, and the
// executor that finishes the set's last item sorts it once for every
// parked member in ONE batched launch. A member the shared vector cannot
// serve runs the unshared core::dr_topk pipeline.
// docs/ARCHITECTURE.md walks a query through the whole pipeline.
#pragma once

#include <exception>
#include <optional>
#include <thread>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/plan_cache.hpp"
#include "serve/scheduler.hpp"
#include "serve/stats.hpp"

namespace drtopk::serve {

/// Trace ring capacity in spans per lane (executors + 1 lanes).
/// Pre-reserved at server construction, so steady-state tracing allocates
/// nothing; a full ring drops its oldest spans (obs::Tracer::dropped).
inline constexpr u64 kTraceSpansPerLane = u64{1} << 13;

/// Observability knobs (docs/OBSERVABILITY.md). Everything here is off by
/// default so the zero-allocation hot path and the committed BENCH_*
/// baselines are unaffected; the metrics registry itself is always live
/// (its record path is a handful of relaxed atomics).
struct ObsOptions {
  /// Record per-query trace spans (queue wait, phase A, parks, finalize,
  /// fan-out) into per-executor rings of kTraceSpansPerLane spans; export
  /// with TopkServer::dump_trace.
  bool tracing = false;
};

/// Server tuning knobs. The serving path itself has no switches: setup
/// builds one delegate vector per sibling set (an admission group and the
/// siblings a burst past batch_max opens while it still admits), closes
/// the set's admission, then builds one threshold (one kappa launch) and
/// one candidate set (one stage-3 launch, core/concat_batched.hpp) at the
/// largest riding k; items answer from that set on the host or defer
/// stage 4 to ONE batched selection launch per set (topk/batched.hpp).
/// Every set resolves its delegate geometry through the plan cache, which
/// tunes alpha only. Members the shared vector cannot serve — infeasible
/// shapes, sets whose setup fell back, a k above the delegate count, a
/// recall-target k outside the geometry's budget — run the unshared
/// core::dr_topk pipeline.
/// `base` must keep the radix engines and no kappa hook: the batched
/// stages implement exactly those (TopkServer's constructor throws
/// std::invalid_argument otherwise). docs/ARCHITECTURE.md walks the whole
/// path.
struct ServerConfig {
  u32 executors = 2;       ///< concurrent query executors
  u32 batch_max = 16;      ///< max queries per admission group; a burst
                           ///< past it opens siblings that share the
                           ///< first group's setup and finalization
  u32 max_in_flight = 64;  ///< submit() blocks beyond this (backpressure)
  core::DrTopkConfig base; ///< baseline pipeline configuration
  /// Observability: per-query tracing.
  ObsOptions obs;
};

/// The batched multi-query top-k server (see the file comment for the
/// pipeline). Owns the executor threads, the admission queue, the plan
/// cache and the workspace arenas; submit()/submit_many()/run_batch() are
/// thread-safe.
class TopkServer {
 public:
  /// Throws std::invalid_argument when cfg.base names a non-radix
  /// first/second engine or sets a kappa hook (see ServerConfig).
  explicit TopkServer(vgpu::Device& dev, ServerConfig cfg = {});
  ~TopkServer();

  TopkServer(const TopkServer&) = delete;
  TopkServer& operator=(const TopkServer&) = delete;

  /// Admits a query; blocks while max_in_flight queries are pending.
  std::future<QueryResult> submit(Query q);

  /// Admits a burst: validates every query, then admits them in one
  /// critical section per in-flight window (AdmissionQueue::submit_many), so
  /// compatible queries share groups before any executor claims one.
  /// Returns the futures in submission order.
  std::vector<std::future<QueryResult>> submit_many(std::vector<Query> queries);

  /// Convenience: submit_many and wait for every result, returned in
  /// submission order.
  std::vector<QueryResult> run_batch(std::vector<Query> queries);

  /// Blocks until every admitted query has completed.
  void drain();

  /// Aggregate metrics (plan counters merged from the cache).
  ServerStats stats() const;

  /// Feeds one oracle-measured recall sample (fraction of the true top-k
  /// an answer contained, in [0, 1]) into the metrics. The server cannot
  /// measure recall itself — that requires the exact answer it skipped
  /// computing — so benches/tests compute it against topk::reference_topk
  /// and report it here; it lands in ServerStats::recall_mean and the
  /// serve_recall_measured_bp histogram.
  void record_recall(double recall) { collector_.record_recall(recall); }

  /// Total arena growths (blocks acquired) across every executor
  /// workspace and the group workspace pool. A warmed-up server serving
  /// recurring shapes must not increase this — the allocation-regression
  /// test asserts exactly that. Call while the server is quiescent.
  u64 workspace_growths() const;

  /// Peak arena bytes in use across all server workspaces.
  u64 workspace_high_water() const;

  /// The live metrics registry (counters, gauges, latency histograms).
  /// Always populated — the record path is lock-free — whether or not
  /// tracing is enabled.
  obs::Registry& metrics() { return registry_; }
  const obs::Registry& metrics() const { return registry_; }

  /// Metrics snapshot in Prometheus text exposition format.
  std::string metrics_prometheus() const;

  /// Metrics snapshot as a JSON object keyed by metric name.
  std::string metrics_json() const;

  /// The per-query trace recorder (disabled unless ObsOptions::tracing).
  const obs::Tracer& tracer() const { return tracer_; }

  /// Writes the recorded trace as Chrome trace_event JSON (load at
  /// chrome://tracing). Returns false when tracing is off or the file
  /// cannot be opened.
  bool dump_trace(const std::string& path) const;

  const PlanCache& plan_cache() const { return plans_; }
  /// Mutable plan-cache access for cross-shard plan sharing
  /// (ShardedTopkServer publishes calibrated plans between siblings).
  PlanCache& plan_cache() { return plans_; }
  vgpu::Device& device() { return dev_; }
  const ServerConfig& config() const { return cfg_; }

 private:
  void executor_loop(u32 executor_id);
  void setup_group(Group& g, u32 executor_id);
  /// A member's answer, held until complete_item delivers it; empty when
  /// the member parked (its set's finalization answers it).
  struct Answer {
    std::optional<QueryResult> result;
    std::exception_ptr error;
  };
  Answer execute_item(Group& g, Pending& p, u32 executor_id);
  /// Marks one item of g's set executed and delivers its answer. The
  /// executor whose item completes the set returns the set's arena to the
  /// pool before the set's last answer is delivered, and finalizes every
  /// parked (deferred) query of the set before returning, so the caller
  /// releases the item's in-flight slot only after that — drain() may not
  /// observe an idle queue with unfulfilled promises.
  void complete_item(Group& g, Pending& p, Answer a, u32 executor_id);
  /// Finalizes a completed group's parked queries in one batched launch
  /// over the group's key width. A failed launch fails only the group's
  /// parked queries that were not yet fulfilled.
  void finalize_group(Group& g, u32 executor_id);
  /// Sets up g's whole sibling set. Returns the riding members whose k
  /// repeats another member's (ServerStats::deduped_queries).
  template <class T>
  u64 setup_group_typed(Group& g, u32 executor_id);
  template <class T>
  QueryResult run_item_typed(Group& g, Pending& p, vgpu::Workspace& ws,
                             bool* deferred);
  template <class T>
  void finalize_group_typed(Group& g, u32 executor_id);
  /// Trace lane of an executor (lane 0 is the submit path).
  static u32 lane(u32 executor_id) { return executor_id + 1; }

  vgpu::Device& dev_;
  ServerConfig cfg_;
  PlanCache plans_;
  /// Declared before queue_/collector_: the queue holds a tracer pointer
  /// and the collector registers its metrics here (member init order).
  obs::Registry registry_;
  obs::Tracer tracer_;
  obs::Histogram* queue_wait_us_ = nullptr;  ///< admission -> claim (us)
  obs::Histogram* group_size_ = nullptr;     ///< queries per admission group
  /// Recycled workspaces backing each set's shared delegate vector and
  /// candidate set (leases keep the pool's shared state alive, so group
  /// teardown order is a non-issue).
  vgpu::WorkspacePool group_ws_;
  /// One persistent workspace per executor thread: all per-query scratch
  /// (stages 2-4, engine buffers, plan probes) bump-allocates here.
  std::vector<std::unique_ptr<vgpu::Workspace>> exec_ws_;
  AdmissionQueue queue_;
  StatsCollector collector_;
  std::vector<std::thread> executors_;
};

}  // namespace drtopk::serve
