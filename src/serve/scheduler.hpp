// Admission scheduling for the top-k server.
//
// Submitted queries are admitted into *sets*: a query joins the queued
// set that still admits and whose compatibility signature (data identity,
// length, key width, criterion, fidelity) matches; with none admitting it
// opens a new set. Sets queue FIFO, and a set is the scheduler's only unit
// of work: next() hands one executor a whole set, and that executor runs
// its setup, every member's own step, its one batched finalization and
// every delivery (TopkServer::run_set).
//
// A set admits until its setup has built the shared delegate vector — the
// construction pass is the expensive window worth amortizing, so a client
// streaming compatible queries one at a time joins the set whose
// construction is in flight. Setup then closes admission
// (close_admission), which removes the set from the queue, and runs stages
// 2-3 once, at the largest k among the members: one kappa launch and one
// stage-3 launch whose candidate set answers every member; a query
// arriving after the close opens a new set. The in-flight bound caps a
// set's size. Items live in a deque, so references to them stay valid
// across admissions; until the close, every deque traversal happens under
// the queue mutex, and after it only the set's executor touches the set.
//
// The queue bounds in-flight queries: submit() blocks while the bound is
// reached — backpressure toward the client instead of unbounded memory.
#pragma once

#include <condition_variable>
#include <deque>
#include <exception>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "obs/trace.hpp"
#include "serve/plan_cache.hpp"
#include "serve/query.hpp"

namespace drtopk::serve {

/// One admitted query in flight: its promise, server-assigned id, the wall
/// clock started at admission (reported as QueryResult::wall_ms), and its
/// answer, held until the set's executor delivers it.
struct Pending {
  u64 id = 0;
  Query query;
  std::promise<QueryResult> promise;
  topk::WallTimer admitted;  ///< wall-clock from admission to delivery
  u64 enqueue_ts_us = 0;     ///< tracer timestamp at admission — queue-wait
                             ///< span start and histogram sample
  /// The answer: a result (a parked member's lacks its values until the
  /// set's finalization) or the error that replaced it.
  QueryResult result;
  std::exception_ptr error;
};

/// A riding member parked for batched finalization over the set's one
/// candidate set (group-arena memory, shared by every parked member);
/// stage 4 runs once for the whole set and completes every parked result.
template <class K>
struct DeferredItem {
  Pending* item = nullptr;  ///< null once its finalization filled it
  std::span<const K> cand;  ///< candidate span (group-arena memory)
  u64 park_ts_us = 0;  ///< tracer timestamp when this item parked (the
                       ///< deferred-park span runs from here to finalize)
};

/// One set: the compatible queries admitted together plus the execution
/// state its setup builds (plan + optional shared delegate vector).
struct Group {
  // Compatibility signature.
  const void* data_id = nullptr;
  u64 n = 0;
  KeyWidth width = KeyWidth::k32;
  data::Criterion criterion = data::Criterion::kLargest;
  /// Part of the signature: exact and recall-target queries never share a
  /// set — they need different delegate vectors (beta/alpha differ) and
  /// different stage-3 treatment, and the shared setup is fidelity-wide.
  core::FidelityPolicy fidelity;

  u64 seq = 0;  ///< admission order (1-based); trace span grouping

  // Deque: stable element references under late admission (push_back).
  // Frozen once admission closed.
  std::deque<Pending> items;

  // Scheduling state, guarded by the owning queue's mutex.
  bool claimed = false;        ///< an executor is running the set
  std::vector<u64> setup_ks;   ///< ks of the items present at claim: they
                               ///< size the plan key, calibration and
                               ///< delegate vector
  Query setup_query;           ///< snapshot for the setup's data access

  // Execution state, touched only by the set's executor.
  core::ExecPlan plan;
  bool plan_resolved = false;  ///< plan lookup/calibration completed
  bool plan_hit = false;
  PlanKey plan_key;            ///< cache key, for workspace feedback
  bool has_delegates = false;  ///< shared construction succeeded
  /// Backing storage for the set-shared delegate vector, directed keys and
  /// candidate set: a pooled workspace leased at setup and recycled
  /// (capacity retained) once no member reads it, before the set's answers
  /// are delivered — steady state leases are allocation-free.
  vgpu::WorkspacePool::Lease ws;
  core::DelegateVector<u32> dv32;
  core::DelegateVector<u64> dv64;
  double setup_sim_ms = 0.0;  ///< construction + kappa + stage 3, shared
                              ///< by the whole set (amortized into latency)
  core::StageBreakdown setup_stages;

  /// The set's one stage-2/3 result, built at kride — the largest k among
  /// the members that ride the shared delegate vector. Setup selected the
  /// exact kride-th delegate as kappa in one launch and classified and
  /// concatenated once against it, so every riding member answers from
  /// this one candidate set (Rule 2: kappa only falls as k grows, so the
  /// set holds every smaller member's answer) and launches nothing: it pads
  /// on the host when the set holds at most k keys, takes a k-prefix of a
  /// sorted set, and otherwise parks a DeferredItem on the set's span, which
  /// the batched finalization sorts once for every parked member. Only the
  /// span matching the set's key width is set.
  struct CandidateSet {
    u64 kappa = 0;          ///< the stage-2 threshold; pads a short answer
    u64 taken_total = 0;    ///< taken delegates (breakdown metadata)
    u64 qualified = 0;      ///< Rule-3 qualified subranges
    bool sorted = false;    ///< the top-kride of a recall-target set's
                            ///< delegates, best first
    std::span<const u32> cand32;
    std::span<const u64> cand64;
  };
  std::optional<CandidateSet> shared;
  std::vector<DeferredItem<u32>> def32;
  std::vector<DeferredItem<u64>> def64;

  bool compatible(const Query& q) const {
    return q.data_id() == data_id && q.n() == n && q.width() == width &&
           q.criterion == criterion && q.fidelity == fidelity;
  }
};

/// The bounded admission queue: admits compatible queries into sets, hands
/// each set to one executor, and backpressures submitters once
/// max_in_flight queries hold a slot (see the file comment).
class AdmissionQueue {
 public:
  /// `tracer` (optional) records enqueue/group-open instants on the submit
  /// lane and stamps Pending::enqueue_ts_us for queue-wait spans.
  explicit AdmissionQueue(u32 max_in_flight, obs::Tracer* tracer = nullptr)
      : max_in_flight_(std::max(1u, max_in_flight)), tracer_(tracer) {}

  /// Admits one query (blocking while the in-flight bound is reached) and
  /// returns its result future.
  std::future<QueryResult> submit(Query q) {
    std::unique_lock lk(mu_);
    space_cv_.wait(lk, [&] { return in_flight_ < max_in_flight_ || stop_; });
    if (stop_) throw std::runtime_error("AdmissionQueue stopped");
    auto fut = admit_locked(std::move(q));
    lk.unlock();
    work_cv_.notify_one();
    return fut;
  }

  /// Admits a whole batch. Queries that fit under the in-flight bound are
  /// admitted atomically (one critical section), so compatible queries are
  /// guaranteed to land in one set before any executor can claim it — the
  /// deterministic route to batched construction. Blocks for space between
  /// chunks when the batch exceeds the bound.
  std::vector<std::future<QueryResult>> submit_many(std::vector<Query> qs) {
    std::vector<std::future<QueryResult>> futures;
    futures.reserve(qs.size());
    size_t i = 0;
    while (i < qs.size()) {
      {
        std::unique_lock lk(mu_);
        space_cv_.wait(lk,
                       [&] { return in_flight_ < max_in_flight_ || stop_; });
        if (stop_) throw std::runtime_error("AdmissionQueue stopped");
        while (i < qs.size() && in_flight_ < max_in_flight_)
          futures.push_back(admit_locked(std::move(qs[i++])));
      }
      work_cv_.notify_all();
    }
    return futures;
  }

  /// Blocks for the oldest unclaimed set and claims it for the caller,
  /// snapshotting its members' ks for the setup. Returns null when
  /// stopped with no unclaimed set left.
  std::shared_ptr<Group> next() {
    std::unique_lock lk(mu_);
    for (;;) {
      for (const std::shared_ptr<Group>& g : queue_) {
        if (g->claimed) continue;
        g->claimed = true;
        for (const Pending& p : g->items) g->setup_ks.push_back(p.query.k);
        g->setup_query = g->items.front().query;
        return g;
      }
      if (stop_) return nullptr;
      work_cv_.wait(lk);
    }
  }

  /// Ends a set's admission and removes it from the queue: later
  /// compatible queries open a new set. Returns every member's k, in
  /// admission order. The setup calls it once the shared delegate vector
  /// is built, and again on every path before it records the set; a set
  /// already closed returns no ks.
  std::vector<u64> close_admission(Group& g) {
    std::lock_guard lk(mu_);
    const auto removed = std::erase_if(
        queue_, [&](const std::shared_ptr<Group>& q) { return q.get() == &g; });
    if (removed == 0) return {};
    std::vector<u64> ks;
    ks.reserve(g.items.size());
    for (const Pending& p : g.items) ks.push_back(p.query.k);
    return ks;
  }

  /// Frees `n` in-flight slots of a set whose answers are all computed:
  /// submitters blocked on the bound may admit again, before any of those
  /// answers is delivered.
  void free_slots(u64 n) {
    {
      std::lock_guard lk(mu_);
      in_flight_ -= n;
    }
    space_cv_.notify_all();
  }

  /// Marks `n` answers delivered, with their counters and spans recorded;
  /// wakes drain().
  void delivered(u64 n) {
    {
      std::lock_guard lk(mu_);
      undelivered_ -= n;
    }
    idle_cv_.notify_all();
  }

  /// Blocks until every admitted query's answer has been delivered.
  void drain() {
    std::unique_lock lk(mu_);
    idle_cv_.wait(lk, [&] { return undelivered_ == 0; });
  }

  void stop() {
    {
      std::lock_guard lk(mu_);
      stop_ = true;
    }
    work_cv_.notify_all();
    space_cv_.notify_all();
  }

  /// Admitted queries holding an in-flight slot.
  u64 in_flight() const {
    std::lock_guard lk(mu_);
    return in_flight_;
  }

 private:
  /// Admission core (mu_ held): join the admitting compatible set or open
  /// a new one.
  std::future<QueryResult> admit_locked(Query q) {
    ++in_flight_;
    ++undelivered_;
    Pending p;
    p.id = next_id_++;
    p.query = std::move(q);
    // Stamped whether or not tracing is on: the queue-wait histogram (a
    // steady_clock read + one atomic) is part of the always-live metrics.
    if (tracer_) p.enqueue_ts_us = tracer_->now_us();
    auto fut = p.promise.get_future();

    // Youngest-first scan over the queued sets still admitting, so
    // interleaved streams — e.g. round-robin over several corpora — still
    // coalesce per corpus instead of opening a singleton set each time.
    // A new set opens only when no compatible one admits, so at most one
    // per signature does.
    Group* host = nullptr;
    for (auto it = queue_.rbegin(); it != queue_.rend(); ++it) {
      if ((*it)->compatible(p.query)) {
        host = it->get();
        break;
      }
    }
    const u64 qid = p.id;
    if (!host) {
      auto g = std::make_shared<Group>();
      g->seq = ++group_seq_;
      g->data_id = p.query.data_id();
      g->n = p.query.n();
      g->width = p.query.width();
      g->criterion = p.query.criterion;
      g->fidelity = p.query.fidelity;
      host = g.get();
      queue_.push_back(std::move(g));
      if (tracer_) tracer_->instant(0, "group-open", qid, host->seq);
    }
    host->items.push_back(std::move(p));
    if (tracer_) tracer_->instant(0, "enqueue", qid, host->seq);
    return fut;
  }

  const u32 max_in_flight_;
  obs::Tracer* tracer_ = nullptr;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   // executors: a set to claim
  std::condition_variable space_cv_;  // submitters: in-flight bound freed
  std::condition_variable idle_cv_;   // drain(): answers delivered
  /// Exactly the sets still admitting, in admission order (close_admission
  /// removes a set); the unclaimed ones wait for an executor.
  std::deque<std::shared_ptr<Group>> queue_;
  u64 in_flight_ = 0;    ///< admitted queries holding a slot
  u64 undelivered_ = 0;  ///< admitted queries not yet answered
  u64 next_id_ = 0;
  u64 group_seq_ = 0;
  bool stop_ = false;
};

}  // namespace drtopk::serve
