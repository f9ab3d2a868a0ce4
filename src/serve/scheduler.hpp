// Admission scheduling for the top-k server.
//
// Submitted queries are admitted into *groups* of at most batch_max
// queries: a query joins the queued group that still admits and whose
// compatibility signature (data identity, length, key width, criterion,
// fidelity) matches; with none admitting it opens a new group. Groups
// queue FIFO. When that group is full, the query opens a *sibling* group
// of it instead of an independent one: the groups of one signature opened
// while the first of them still admits form one *sibling set*, which
// shares everything but its admission count — one setup, one claim cursor
// and one batched finalization. So a Group here holds a whole sibling set
// (Group::groups counts the admission groups in it, each holding batch_max
// members in admission order but the youngest), and batch_max sets how
// many admission groups a burst reports (ServerStats::groups,
// serve_group_size), not how many queries share a setup. Executors claim
// work with set-granular setup (one executor resolves the plan, builds the
// shared delegate vector and the set's one candidate set) followed by
// query-granular stealing: once a set's setup is published, *any* executor
// can claim its next unclaimed query via the set's cursor, so a large
// batch is drained cooperatively rather than pinned to one executor.
//
// A set admits until its setup has built the shared delegate vector — the
// construction pass is the expensive window worth amortizing, so a client
// streaming compatible queries one at a time joins the set whose
// construction is in flight. Setup then closes admission
// (close_admission) and runs stages 2-3 once, at the largest k among the
// members: one kappa launch and one stage-3 launch whose candidate set
// answers every member; a query arriving after the close opens a new,
// independent group. publish() closes a set that is still admitting (a
// direct shape, a setup that threw). The in-flight bound caps a set's
// size. Items live in a deque, so references handed to executors stay
// valid across admissions; every deque traversal happens under the queue
// mutex.
//
// The queue bounds in-flight queries: submit() blocks while the bound is
// reached — backpressure toward the client instead of unbounded memory.
#pragma once

#include <condition_variable>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "serve/plan_cache.hpp"
#include "serve/query.hpp"

namespace drtopk::serve {

/// One admitted query in flight: its promise, server-assigned id, and the
/// wall clock started at admission (reported as QueryResult::wall_ms).
struct Pending {
  u64 id = 0;
  Query query;
  std::promise<QueryResult> promise;
  topk::WallTimer admitted;  ///< wall-clock from admission to completion
  u64 enqueue_ts_us = 0;     ///< tracer timestamp at admission — queue-wait
                             ///< span start and histogram sample
  u64 queue_wait_us = 0;     ///< measured admission-to-claim wait, stamped
                             ///< by the claiming executor and surfaced as
                             ///< QueryResult::queue_us
};

/// A riding member parked for batched finalization: its candidate span is
/// the set's one candidate set (group-arena memory, shared by every parked
/// member); stage 4 runs once for the whole set, fulfilling every parked
/// promise.
template <class K>
struct DeferredItem {
  Pending* item = nullptr;
  QueryResult out;          ///< partial result: latency/breakdown to stage 3
  std::span<const K> cand;  ///< candidate span (group-arena memory)
  u64 k = 0;
  data::Criterion criterion = data::Criterion::kLargest;
  bool selection_only = false;
  u64 park_ts_us = 0;  ///< tracer timestamp when this item parked (the
                       ///< deferred-park span runs from here to finalize)
};

/// One sibling set: the compatible queries of its admission groups plus
/// the shared execution state the setup phase publishes (plan + optional
/// shared delegate vector).
struct Group {
  // Compatibility signature.
  const void* data_id = nullptr;
  u64 n = 0;
  KeyWidth width = KeyWidth::k32;
  data::Criterion criterion = data::Criterion::kLargest;
  /// Part of the signature: exact and recall-target queries never share a
  /// group — they need different delegate vectors (beta/alpha differ) and
  /// different stage-3 treatment, and the shared setup is fidelity-wide.
  core::FidelityPolicy fidelity;

  u64 seq = 0;  ///< the first group's admission order (1-based); trace
                ///< span grouping for every member of the set
  /// Admission groups in the set: the first plus the siblings opened each
  /// time the youngest reached batch_max members. Final once admission
  /// closed (guarded by the owning queue's mutex until then).
  u64 groups = 1;

  // Deque: stable element references under late admission (push_back).
  std::deque<Pending> items;

  // Scheduling state, guarded by the owning queue's mutex.
  bool admitting = true;       ///< new compatible queries may join
  bool setup_claimed = false;  ///< one executor is resolving plan/delegates
  bool runnable = false;       ///< setup published; items may be claimed
  u64 next = 0;                ///< stealing cursor: next unclaimed item
  std::vector<u64> setup_ks;   ///< ks of the items present at claim: they
                               ///< size the plan key, calibration and
                               ///< delegate vector
  Query setup_query;           ///< snapshot for the setup's data access
  /// items.size() frozen when admission closed; written under the queue
  /// mutex before publish, so every item claim observes it. Each riding
  /// member carries setup_sim_ms / final_items of the setup, and the member
  /// that completes the count finalizes the set.
  u64 final_items = 0;

  // Execution state, written single-threaded during setup, read-only after
  // `runnable` is published.
  core::ExecPlan plan;
  bool plan_resolved = false;  ///< plan lookup/calibration completed
  bool plan_hit = false;
  PlanKey plan_key;            ///< cache key, for workspace feedback
  u64 plan_exec_ws = 0;        ///< recorded per-query peak: every executor
                               ///< claiming an item presizes to it first
  bool has_delegates = false;  ///< shared construction succeeded
  /// Backing storage for the set-shared delegate vector, directed keys and
  /// candidate set: a pooled workspace leased at setup and recycled
  /// (capacity retained) before the set's last answer is delivered, once no
  /// member reads it — steady state leases are allocation-free.
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
  /// the batched finalization sorts once for every parked member of every
  /// sibling. Written single-threaded before publish; read-only afterwards.
  /// Only the span matching the set's key width is set.
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
  /// Guards the deferred lists and the executed counter (executors park
  /// phase-A results concurrently).
  std::mutex batch_mu;
  u64 executed = 0;  ///< items whose phase A (or full pipeline) finished
  std::vector<DeferredItem<u32>> def32;
  std::vector<DeferredItem<u64>> def64;

  bool compatible(const Query& q) const {
    return q.data_id() == data_id && q.n() == n && q.width() == width &&
           q.criterion == criterion && q.fidelity == fidelity;
  }
};

/// The bounded admission queue: groups compatible queries, hands executors
/// group-setup and query-granular work units, and backpressures submitters
/// once max_in_flight queries are pending (see the file comment).
class AdmissionQueue {
 public:
  /// `tracer` (optional) records enqueue/group-open instants on the submit
  /// lane and stamps Pending::enqueue_ts_us for queue-wait spans.
  AdmissionQueue(u32 batch_max, u32 max_in_flight,
                 obs::Tracer* tracer = nullptr)
      : batch_max_(std::max(1u, batch_max)),
        max_in_flight_(std::max(1u, max_in_flight)),
        tracer_(tracer) {}

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
  /// guaranteed to land in shared admission groups before any executor can
  /// claim them — the deterministic route to batched construction. Blocks
  /// for space between chunks when the batch exceeds the bound.
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

  /// One unit of executor work: a set to set up, or one of its items.
  struct Claim {
    std::shared_ptr<Group> group;
    Pending* item = nullptr;  ///< valid when !needs_setup
    bool needs_setup = false;
  };

  /// Blocks for the next unit of work: either a set needing setup or an
  /// unclaimed query of a runnable set (stealing across sets in FIFO
  /// order). Returns false when stopped and fully drained of claimables.
  bool next(Claim& out) {
    std::unique_lock lk(mu_);
    for (;;) {
      for (auto it = queue_.begin(); it != queue_.end(); ++it) {
        Group& g = **it;
        if (!g.setup_claimed) {
          g.setup_claimed = true;
          for (const Pending& p : g.items) g.setup_ks.push_back(p.query.k);
          g.setup_query = g.items.front().query;
          out.group = *it;
          out.needs_setup = true;
          return true;
        }
        if (g.runnable && g.next < g.items.size()) {
          out.group = *it;
          const u64 index = g.next++;
          out.item = &g.items[index];
          out.needs_setup = false;
          // Fully claimed: leave the queue. Admission closed before
          // publish, so nothing joins after this.
          if (g.next == g.items.size()) queue_.erase(it);
          return true;
        }
      }
      if (stop_) return false;
      work_cv_.wait(lk);
    }
  }

  /// Ends a set's admission: later compatible queries open a new,
  /// independent group. Freezes Group::final_items and Group::groups and
  /// returns every member's k, in admission order. The setup calls it once
  /// the shared delegate vector is built, and again on every path before
  /// it records the set; publish() calls it for a set still admitting. A
  /// set already closed returns no ks.
  std::vector<u64> close_admission(Group& g) {
    std::lock_guard lk(mu_);
    return close_locked(g);
  }

  /// Publishes a set's setup (closing its admission if the setup did not);
  /// its items become claimable by any executor.
  void publish(const std::shared_ptr<Group>& g) {
    {
      std::lock_guard lk(mu_);
      (void)close_locked(*g);
      g->runnable = true;
    }
    work_cv_.notify_all();
  }

  /// Marks one item finished; releases backpressure and drain waiters.
  void finish_item(const std::shared_ptr<Group>&) {
    {
      std::lock_guard lk(mu_);
      --in_flight_;
    }
    space_cv_.notify_one();
    idle_cv_.notify_all();
  }

  /// Blocks until every admitted query has completed.
  void drain() {
    std::unique_lock lk(mu_);
    idle_cv_.wait(lk, [&] { return in_flight_ == 0; });
  }

  void stop() {
    {
      std::lock_guard lk(mu_);
      stop_ = true;
    }
    work_cv_.notify_all();
    space_cv_.notify_all();
  }

  u64 in_flight() const {
    std::lock_guard lk(mu_);
    return in_flight_;
  }

 private:
  /// close_admission with mu_ held.
  std::vector<u64> close_locked(Group& g) {
    if (!g.admitting) return {};
    g.admitting = false;
    g.final_items = g.items.size();
    std::vector<u64> ks;
    ks.reserve(g.items.size());
    for (const Pending& p : g.items) ks.push_back(p.query.k);
    return ks;
  }

  /// Admission core (mu_ held): join the admitting set (opening a sibling
  /// group when its youngest group is full) or start a new one.
  std::future<QueryResult> admit_locked(Query q) {
    ++in_flight_;
    Pending p;
    p.id = next_id_++;
    p.query = std::move(q);
    // Stamped whether or not tracing is on: the queue-wait histogram (a
    // steady_clock read + one atomic) is part of the always-live metrics.
    if (tracer_) p.enqueue_ts_us = tracer_->now_us();
    auto fut = p.promise.get_future();

    // Youngest-first scan over the queued sets still admitting, so
    // interleaved streams — e.g. round-robin over several corpora — still
    // coalesce per corpus instead of opening a singleton group each time.
    // A new set opens only when no compatible one admits, so at most one
    // per signature does.
    Group* host = nullptr;
    for (auto it = queue_.rbegin(); it != queue_.rend(); ++it) {
      if ((*it)->admitting && (*it)->compatible(p.query)) {
        host = it->get();
        break;
      }
    }
    const u64 qid = p.id;
    u64 gseq = 0;
    if (host) {
      gseq = host->seq;
      if (host->items.size() == host->groups * batch_max_) {
        // The youngest group is full: open a sibling, which shares the
        // set's setup instead of paying one of its own.
        ++host->groups;
        const u64 sib = ++group_seq_;
        if (tracer_ && tracer_->enabled()) {
          tracer_->instant(0, "group-open", qid, sib);
          tracer_->instant(0, "setup-shared", qid, sib,
                           std::to_string(host->seq));
        }
      }
      host->items.push_back(std::move(p));
    } else {
      auto g = std::make_shared<Group>();
      g->seq = ++group_seq_;
      gseq = g->seq;
      g->data_id = p.query.data_id();
      g->n = p.query.n();
      g->width = p.query.width();
      g->criterion = p.query.criterion;
      g->fidelity = p.query.fidelity;
      g->items.push_back(std::move(p));
      queue_.push_back(std::move(g));
      if (tracer_) tracer_->instant(0, "group-open", qid, gseq);
    }
    if (tracer_) tracer_->instant(0, "enqueue", qid, gseq);
    return fut;
  }

  const u32 batch_max_;
  const u32 max_in_flight_;
  obs::Tracer* tracer_ = nullptr;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   // executors: new claimable work
  std::condition_variable space_cv_;  // submitters: in-flight bound freed
  std::condition_variable idle_cv_;   // drain(): a query completed
  std::deque<std::shared_ptr<Group>> queue_;
  u64 in_flight_ = 0;
  u64 next_id_ = 0;
  u64 group_seq_ = 0;
  bool stop_ = false;
};

}  // namespace drtopk::serve
