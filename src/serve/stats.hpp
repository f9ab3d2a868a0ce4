// Aggregate serving metrics, in simulated-GPU-time terms.
//
// Latencies are the cost-model milliseconds each query would take on the
// profiled GPU (its pipeline stages plus an amortized share of any
// group-shared work). Aggregate throughput uses the *makespan*: the largest
// per-executor sum of simulated work — concurrent executors overlap, so
// completed / makespan is the modeled steady-state QPS of the deployment.
//
// Every event counter lives once, in the obs::Registry (lock-free, exported
// live as Prometheus/JSON); TopkServer::stats() reads them back. Only the
// values with no registry counterpart — summed simulated times, the
// aggregate stage breakdown, the per-executor makespan ledger and the
// recall sum — sit under the collector's mutex. Percentiles come from a
// streaming log-scale histogram — O(1) per query, O(buckets) per snapshot —
// instead of sorting a latency vector.
#pragma once

#include <algorithm>
#include <mutex>
#include <vector>

#include "core/dr_topk.hpp"
#include "obs/metrics.hpp"

namespace drtopk::serve {

/// Aggregate server metrics snapshot (TopkServer::stats()): query counts,
/// batching/sharing counters, simulated-latency percentiles and the
/// makespan-based modeled QPS.
struct ServerStats {
  u64 completed = 0;
  u64 failed = 0;
  u64 groups = 0;         ///< admission groups executed
  u64 shared_setup_groups = 0;  ///< groups answered from a sibling's setup
                                ///< (counted in `groups` too): opened when
                                ///< batch_max filled every admitting
                                ///< compatible group
  u64 fused_queries = 0;  ///< queries served from a group-shared delegate
  u64 plan_hits = 0;      ///< plan-cache lookups that skipped tuning
  u64 plan_misses = 0;    ///< lookups that paid calibration probes
  u64 batched_groups = 0;   ///< sibling sets finalized with a batched second
                            ///< top-k (one per set with a parked member)
  u64 batched_queries = 0;  ///< queries whose stage 4 ran inside a batched
                            ///< finalization
  u64 finalize_launches = 0;  ///< selection launches spent finalizing sets:
                              ///< exactly one per finalization when the
                              ///< candidate segments fit one SM (the asserted
                              ///< common case), two when the multi-CTA path
                              ///< runs
  u64 deduped_queries = 0;  ///< riding members whose k repeats another
                            ///< member's of the same sibling set (every
                            ///< riding member answers from the set's one
                            ///< candidate set)
  u64 concat_launches = 0;  ///< kernel launches attributed to stage 3:
                            ///< ONE per setup, plus whatever the
                            ///< unfused pipeline of a member the shared
                            ///< vector cannot serve launches — the stage
                            ///< the lpq gate watches
  u64 relax_guard_trips = 0;  ///< relaxed first top-ks whose last-digit
                              ///< skip the guard declined: > 4k delegates
                              ///< on the prefix (tie-heavy distributions;
                              ///< see topk::radix_kth_flag)
  u64 relax_guard_skips = 0;  ///< relaxed thresholds a recall target kept
                              ///< past the guard's 4k bound
  u64 setup_fallbacks = 0;    ///< setups that threw, one per sibling set:
                              ///< their members ran the unshared per-query
                              ///< pipeline instead
  u64 approx_queries = 0;     ///< queries executed under a recall target
                              ///< (FidelityPolicy not exact)
  u64 recall_samples = 0;     ///< oracle-measured recall samples recorded
  double recall_mean = 0.0;   ///< mean measured recall over those samples
                              ///< (1.0 when no sample was recorded)

  double total_sim_ms = 0.0;     ///< summed per-query simulated latency
  double calibration_sim_ms = 0.0;  ///< plan-cache probe work (cold starts)
  u64 calibration_probes = 0;  ///< full-size pipeline runs calibration made
  double makespan_sim_ms = 0.0;  ///< max per-executor simulated work
  double p50_sim_ms = 0.0;
  double p99_sim_ms = 0.0;
  core::StageBreakdown stages;  ///< aggregate stage breakdown (construction
                                ///< counted once per group, not per query)

  /// Modeled aggregate queries/second of the executor fleet.
  double qps() const {
    return makespan_sim_ms > 0.0
               ? static_cast<double>(completed) * 1e3 / makespan_sim_ms
               : 0.0;
  }
  double plan_hit_rate() const {
    const u64 total = plan_hits + plan_misses;
    return total ? static_cast<double>(plan_hits) /
                       static_cast<double>(total)
                 : 0.0;
  }
  double mean_latency_sim_ms() const {
    return completed ? total_sim_ms / static_cast<double>(completed) : 0.0;
  }
};

/// Thread-safe accumulator behind TopkServer::stats(): event counts go to
/// the obs::Registry counters, which snapshot() reads back; summed times,
/// stages and the makespan ledger stay under one mutex.
class StatsCollector {
 public:
  /// Registers the collector's metrics in `reg`; `executors` sizes the
  /// per-executor makespan ledger.
  StatsCollector(u32 executors, obs::Registry& reg)
      : per_executor_(executors, 0.0),
        latency_us_(reg.histogram("serve_latency_sim_us",
                                  "Per-query simulated latency (us)")),
        m_completed_(reg.counter("serve_queries_completed",
                                 "Queries answered successfully")),
        m_failed_(reg.counter("serve_queries_failed",
                              "Queries rejected or failed")),
        m_groups_(reg.counter("serve_groups", "Admission groups executed")),
        m_shared_setups_(reg.counter(
            "serve_shared_setups",
            "Admission groups answered from a sibling group's setup")),
        m_fused_(reg.counter("serve_fused_queries",
                             "Queries served from a group-shared delegate")),
        m_batched_groups_(reg.counter(
            "serve_batched_groups",
            "Sibling sets finalized with a batched second top-k")),
        m_batched_queries_(reg.counter(
            "serve_batched_queries",
            "Queries finalized inside a batched second top-k")),
        m_finalize_launches_(reg.counter(
            "serve_finalize_launches",
            "Selection launches spent finalizing sibling sets")),
        m_deduped_(reg.counter(
            "serve_deduped_queries",
            "Riding group members whose k repeats another member's")),
        m_concat_launches_(reg.counter(
            "serve_concat_launches",
            "Kernel launches attributed to stage 3")),
        m_guard_trips_(reg.counter(
            "serve_relax_guard_trips",
            "Relaxed first top-ks whose last-digit skip the guard declined")),
        m_guard_skips_(reg.counter(
            "serve_relax_guard_skips",
            "Guard trips waved off by a recall-target fidelity policy")),
        m_approx_(reg.counter(
            "serve_approx_queries",
            "Queries executed under a recall-target fidelity policy")),
        m_calibration_probes_(reg.counter(
            "serve_calibration_probes",
            "Full-size pipeline runs spent calibrating plan-cache misses")),
        m_setup_fallbacks_(reg.counter(
            "serve_setup_fallbacks",
            "Group setups that threw; members ran unshared per query")),
        recall_bp_(reg.histogram(
            "serve_recall_measured_bp",
            "Oracle-measured recall per sampled query (basis points)")) {}

  void record_query(double sim_latency_ms,
                    const core::StageBreakdown& stages, bool fused) {
    latency_us_.observe(to_us(sim_latency_ms));
    m_completed_.add();
    if (fused) m_fused_.add();
    if (stages.concat_stats.kernels_launched)
      m_concat_launches_.add(stages.concat_stats.kernels_launched);
    if (stages.guard_trips) m_guard_trips_.add(stages.guard_trips);
    if (stages.guard_skips) m_guard_skips_.add(stages.guard_skips);
    std::lock_guard lk(mu_);
    total_sim_ms_ += sim_latency_ms;
    stages_ += stages;
  }

  void record_failure() { m_failed_.add(); }

  /// One setup, shared by a sibling set of `groups` admission groups;
  /// `deduped` of its riding members repeat another member's k.
  void record_group(const core::StageBreakdown& setup_stages, u64 deduped,
                    u64 groups) {
    m_groups_.add(groups);
    if (groups > 1) m_shared_setups_.add(groups - 1);
    if (deduped) m_deduped_.add(deduped);
    if (setup_stages.concat_stats.kernels_launched)
      m_concat_launches_.add(setup_stages.concat_stats.kernels_launched);
    if (setup_stages.guard_trips) m_guard_trips_.add(setup_stages.guard_trips);
    if (setup_stages.guard_skips) m_guard_skips_.add(setup_stages.guard_skips);
    std::lock_guard lk(mu_);
    stages_ += setup_stages;
  }

  /// One setup that threw and left the members of its sibling set to the
  /// unshared per-query pipeline.
  void record_setup_fallback() { m_setup_fallbacks_.add(); }

  /// One sibling set's batched finalization: `launches` selection launches
  /// served its `queries` deferred queries. The kernel counters land in
  /// the aggregate second-stage stats once (per-query breakdowns carry only
  /// their sim-ms share, so the aggregate stays double-count-free).
  void record_finalize(u64 launches, u64 queries,
                       const vgpu::KernelStats& second_stats) {
    m_batched_groups_.add();
    m_batched_queries_.add(queries);
    m_finalize_launches_.add(launches);
    std::lock_guard lk(mu_);
    stages_.second_stats += second_stats;
  }

  /// One query executed under a recall-target fidelity policy (counted at
  /// execution, so deferred items are counted exactly once).
  void record_approx() { m_approx_.add(); }

  /// One oracle-measured recall sample in [0, 1] (the oracle — an exact
  /// reference top-k — lives with the caller: benches and tests compute it
  /// and feed the measurement back). Exported as basis points so the
  /// histogram's integer buckets stay meaningful.
  void record_recall(double recall) {
    const double r = std::clamp(recall, 0.0, 1.0);
    recall_bp_.observe(static_cast<u64>(r * 10000.0 + 0.5));
    std::lock_guard lk(mu_);
    recall_sum_ += r;
    ++recall_samples_;
  }

  /// One plan-cache miss's calibration: `probes` full-size pipeline runs
  /// costing `sim_ms` (not part of any query's latency, but part of some
  /// executor's makespan).
  void record_calibration(double sim_ms, u64 probes) {
    m_calibration_probes_.add(probes);
    std::lock_guard lk(mu_);
    calibration_sim_ms_ += sim_ms;
  }

  /// Simulated work actually performed by one executor (probes, shared
  /// construction, per-query stages) — the makespan input.
  void record_executor_work(u32 executor, double sim_ms) {
    std::lock_guard lk(mu_);
    per_executor_[executor] += sim_ms;
  }

  /// Snapshot with percentiles; plan counters are merged in by the caller
  /// (they live in the PlanCache). Event counts are the registry counters'
  /// current values: each is recorded before the promise it accounts for
  /// is fulfilled, so a snapshot taken after a future resolves includes
  /// it. Percentiles come from the streaming histogram (a fixed-size bucket
  /// walk), so a monitoring poll never stalls the executors' record_*
  /// calls behind a sort.
  ServerStats snapshot() const {
    ServerStats s;
    s.completed = m_completed_.value();
    s.failed = m_failed_.value();
    s.groups = m_groups_.value();
    s.shared_setup_groups = m_shared_setups_.value();
    s.fused_queries = m_fused_.value();
    s.batched_groups = m_batched_groups_.value();
    s.batched_queries = m_batched_queries_.value();
    s.finalize_launches = m_finalize_launches_.value();
    s.deduped_queries = m_deduped_.value();
    s.approx_queries = m_approx_.value();
    s.calibration_probes = m_calibration_probes_.value();
    s.setup_fallbacks = m_setup_fallbacks_.value();
    {
      std::lock_guard lk(mu_);
      s.total_sim_ms = total_sim_ms_;
      s.calibration_sim_ms = calibration_sim_ms_;
      s.stages = stages_;
      // Stage-3 attribution: every stage-3 launch lands in the aggregate
      // concat stats exactly once (group-level passes via record_group,
      // per-query ones via record_query).
      s.concat_launches = stages_.concat_stats.kernels_launched;
      s.relax_guard_trips = stages_.guard_trips;
      s.relax_guard_skips = stages_.guard_skips;
      s.recall_samples = recall_samples_;
      s.recall_mean = recall_samples_
                          ? recall_sum_ / static_cast<double>(recall_samples_)
                          : 1.0;
      for (double w : per_executor_)
        s.makespan_sim_ms = std::max(s.makespan_sim_ms, w);
    }
    s.p50_sim_ms = static_cast<double>(latency_us_.percentile(0.5)) / 1e3;
    s.p99_sim_ms = static_cast<double>(latency_us_.percentile(0.99)) / 1e3;
    return s;
  }

 private:
  static u64 to_us(double ms) {
    return ms <= 0.0 ? 0 : static_cast<u64>(ms * 1e3 + 0.5);
  }

  mutable std::mutex mu_;
  std::vector<double> per_executor_;
  core::StageBreakdown stages_;
  double total_sim_ms_ = 0.0;
  double calibration_sim_ms_ = 0.0;
  u64 recall_samples_ = 0;
  double recall_sum_ = 0.0;

  obs::Histogram& latency_us_;
  obs::Counter& m_completed_;
  obs::Counter& m_failed_;
  obs::Counter& m_groups_;
  obs::Counter& m_shared_setups_;
  obs::Counter& m_fused_;
  obs::Counter& m_batched_groups_;
  obs::Counter& m_batched_queries_;
  obs::Counter& m_finalize_launches_;
  obs::Counter& m_deduped_;
  obs::Counter& m_concat_launches_;
  obs::Counter& m_guard_trips_;
  obs::Counter& m_guard_skips_;
  obs::Counter& m_approx_;
  obs::Counter& m_calibration_probes_;
  obs::Counter& m_setup_fallbacks_;
  obs::Histogram& recall_bp_;
};

}  // namespace drtopk::serve
