#include "serve/server.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>

#include "core/concat_batched.hpp"
#include "obs/export.hpp"
#include "topk/batched.hpp"

namespace drtopk::serve {

namespace {

template <class T>
std::span<const T> query_data(const Query& q);
template <>
std::span<const u32> query_data<u32>(const Query& q) {
  return q.data32();
}
template <>
std::span<const u64> query_data<u64>(const Query& q) {
  return q.data64();
}

template <class T>
core::DelegateVector<T>& group_dv(Group& g);
template <>
core::DelegateVector<u32>& group_dv<u32>(Group& g) {
  return g.dv32;
}
template <>
core::DelegateVector<u64>& group_dv<u64>(Group& g) {
  return g.dv64;
}

/// Whether a member asking for k is served from the group's shared
/// delegate vector: the vector must exist and hold a top-k, and under a
/// recall target its geometry must also meet this k's miss budget (a
/// member that joined during construction may ask for a larger k than the
/// geometry was sized for; expected misses grow faster than k) with k real
/// delegates to answer from. Setup builds the group's candidate set at the
/// largest k this accepts, and exactly these members answer from it.
template <class K>
bool rides_shared(Group& g, u64 k) {
  if (!g.has_delegates) return false;
  const core::DelegateVector<K>& dv = group_dv<K>(g);
  if (g.fidelity.exact()) return k <= dv.size();
  return k <= core::real_delegate_count(g.n, dv.alpha, dv.beta) &&
         core::approx_expected_misses(k, dv.num_subranges, dv.beta) <=
             core::approx_miss_budget(k, g.fidelity);
}

template <class K>
std::span<const K> set_cand(const Group::CandidateSet& s);
template <>
std::span<const u32> set_cand<u32>(const Group::CandidateSet& s) {
  return s.cand32;
}
template <>
std::span<const u64> set_cand<u64>(const Group::CandidateSet& s) {
  return s.cand64;
}

template <class K>
std::vector<DeferredItem<K>>& group_deferred(Group& g);
template <>
std::vector<DeferredItem<u32>>& group_deferred<u32>(Group& g) {
  return g.def32;
}
template <>
std::vector<DeferredItem<u64>>& group_deferred<u64>(Group& g) {
  return g.def64;
}

/// The batched stages 2-4 implement the radix engines without a kappa
/// hook; a base asking for anything else is rejected up front.
const ServerConfig& validated(const ServerConfig& cfg) {
  if (cfg.base.first_algo != topk::Algo::kRadixFlag ||
      cfg.base.second_algo != topk::Algo::kRadixFlag)
    throw std::invalid_argument(
        "TopkServer: ServerConfig::base must use the radix first and second "
        "top-k engines");
  if (cfg.base.kappa_hook)
    throw std::invalid_argument(
        "TopkServer: ServerConfig::base must not set a kappa hook");
  return cfg;
}

void validate(const Query& q) {
  const u64 n = q.n();
  if (n == 0 || q.k < 1 || q.k > n)
    throw std::invalid_argument("TopkServer: query requires 1 <= k <= |V|");
}

}  // namespace

TopkServer::TopkServer(vgpu::Device& dev, ServerConfig cfg)
    : dev_(dev),
      cfg_(validated(cfg)),
      tracer_(cfg.obs.tracing, std::max(1u, cfg.executors) + 1,
              kTraceSpansPerLane),
      queue_(cfg.batch_max, cfg.max_in_flight, &tracer_),
      collector_(std::max(1u, cfg.executors), registry_) {
  queue_wait_us_ = &registry_.histogram(
      "serve_queue_wait_us", "Admission-to-claim wait per query (us)");
  group_size_ = &registry_.histogram(
      "serve_group_size", "Queries per admission group at close");
  const u32 n = std::max(1u, cfg_.executors);
  exec_ws_.reserve(n);
  for (u32 i = 0; i < n; ++i)
    exec_ws_.push_back(std::make_unique<vgpu::Workspace>());
  executors_.reserve(n);
  for (u32 i = 0; i < n; ++i) {
    executors_.emplace_back([this, i] { executor_loop(i); });
  }
}

u64 TopkServer::workspace_growths() const {
  u64 total = group_ws_.growths();
  for (const auto& ws : exec_ws_) total += ws->growths();
  return total;
}

u64 TopkServer::workspace_high_water() const {
  u64 peak = group_ws_.high_water_bytes();
  for (const auto& ws : exec_ws_)
    peak = std::max(peak, ws->high_water_bytes());
  return peak;
}

TopkServer::~TopkServer() {
  queue_.drain();
  queue_.stop();
  for (auto& t : executors_) t.join();
}

std::future<QueryResult> TopkServer::submit(Query q) {
  validate(q);
  return queue_.submit(std::move(q));
}

std::vector<std::future<QueryResult>> TopkServer::submit_many(
    std::vector<Query> queries) {
  for (const auto& q : queries) validate(q);
  return queue_.submit_many(std::move(queries));
}

std::vector<QueryResult> TopkServer::run_batch(std::vector<Query> queries) {
  auto futures = submit_many(std::move(queries));
  std::vector<QueryResult> results;
  results.reserve(futures.size());
  for (auto& f : futures) results.push_back(f.get());
  return results;
}

void TopkServer::drain() { queue_.drain(); }

ServerStats TopkServer::stats() const {
  ServerStats s = collector_.snapshot();
  s.plan_hits = plans_.hits();
  s.plan_misses = plans_.misses();
  return s;
}

std::string TopkServer::metrics_prometheus() const {
  return obs::to_prometheus(registry_);
}

std::string TopkServer::metrics_json() const {
  return obs::to_json(registry_);
}

bool TopkServer::dump_trace(const std::string& path) const {
  if (!tracer_.enabled()) return false;
  return tracer_.export_chrome_file(path);
}

void TopkServer::executor_loop(u32 executor_id) {
  const bool tracing = tracer_.enabled();
  AdmissionQueue::Claim c;
  while (queue_.next(c)) {
    if (c.needs_setup) {
      const u64 t0 = tracing ? tracer_.now_us() : 0;
      setup_group(*c.group, executor_id);
      queue_.publish(c.group);
      if (tracing)
        tracer_.complete(lane(executor_id), "group-setup", 0, c.group->seq,
                         t0, tracer_.now_us());
    } else {
      if (c.item->enqueue_ts_us != 0) {
        const u64 now = tracer_.now_us();
        const u64 waited = now - c.item->enqueue_ts_us;
        c.item->queue_wait_us = waited;
        if (queue_wait_us_) queue_wait_us_->observe(waited);
        if (tracing)
          tracer_.complete(lane(executor_id), "queue-wait", c.item->id,
                           c.group->seq, c.item->enqueue_ts_us, now);
      }
      Answer a = execute_item(*c.group, *c.item, executor_id);
      // Set-completion bookkeeping (and, for the executor completing the
      // last item, the batched finalization of every parked query) happens
      // before the in-flight slot is released, so drain() cannot observe a
      // drained queue with unfulfilled promises.
      complete_item(*c.group, *c.item, std::move(a), executor_id);
      queue_.finish_item(c.group);
    }
    c.group.reset();
  }
}

void TopkServer::setup_group(Group& g, u32 executor_id) {
  u64 deduped = 0;
  std::optional<std::string> failure;
  try {
    deduped = g.width == KeyWidth::k64 ? setup_group_typed<u64>(g, executor_id)
                                       : setup_group_typed<u32>(g, executor_id);
  } catch (const std::exception& e) {
    failure = e.what();
  } catch (...) {
    failure = "non-standard exception";
  }
  if (failure) {
    // Setup is an optimization; a failure (e.g. a failed launch)
    // degrades the whole set to unfused per-query execution rather than
    // failing its queries — counted once, and traced with the reason.
    g.has_delegates = false;
    collector_.record_setup_fallback();
    tracer_.instant(lane(executor_id), "setup-fallback", 0, g.seq,
                    std::move(*failure));
  }
  // A direct shape or a setup that threw before the close still admits:
  // close it here, so the set's group count is final and lands before any
  // member's answer does.
  (void)queue_.close_admission(g);
  collector_.record_group(g.setup_stages, deduped, g.groups);
}

template <class T>
u64 TopkServer::setup_group_typed(Group& g, u32 executor_id) {
  using Key = typename data::KeyTraits<T>::Key;
  // The snapshot the queue took at claim time sizes the plan key, the
  // calibration and the delegate vector. The group keeps admitting while
  // the vector is built; close_admission then returns every member's k, and
  // the batched stages 2-3 below cover all of them (the deque itself is
  // only traversed under the queue's mutex).
  const std::span<const T> values = query_data<T>(g.setup_query);

  // The group's effective base config: the server baseline with the
  // group's fidelity (part of the admission signature, so it is uniform
  // across members). Everything downstream — feasibility, plan key,
  // calibration, construction sizing — reads fidelity from here.
  core::DrTopkConfig base = cfg_.base;
  base.fidelity = g.fidelity;

  // Size the shared delegate vector for the largest *feasible* k among the
  // snapshot's queries: one near-n outlier must not disable fusion for the
  // whole group — it simply runs unfused (rides_shared fails), while the
  // feasible majority still shares one construction pass.
  u64 kmax = 0;
  for (const u64 k : g.setup_ks)
    if (core::resolve_geometry(g.n, k, base).alpha >= 0)
      kmax = std::max(kmax, k);
  if (kmax == 0)  // none feasible: plan caches direct
    kmax = *std::max_element(g.setup_ks.begin(), g.setup_ks.end());

  double executor_work = 0.0;
  u64 deduped = 0;
  vgpu::Workspace& ews = *exec_ws_[executor_id];

  // Plan: cache hit replays the calibrated alpha; miss pays the probes.
  g.plan_key = PlanCache::make_key(values, kmax, g.criterion, g.fidelity);
  std::optional<CachedPlan> cp = plans_.find(g.plan_key);
  g.plan_hit = cp.has_value();
  if (!cp) {
    // A miss calibrates in the group arena that this shape's construction
    // reuses right after, so the full-size probes need no scratch arena of
    // their own. Affinity: prefer the pooled arena this executor last
    // returned (first-touch locality groundwork for NUMA pinning). Probe
    // launches are one-time tuning, not steady-state pipeline work: the
    // ambient label keeps them out of the per-stage breakdown (the probes'
    // internal stage scopes all default to it).
    g.ws = group_ws_.acquire(0, executor_id);
    vgpu::StageScope calibrate("calibrate");
    cp = plans_.calibrate<T>(g.plan_key, dev_, values, kmax, g.criterion,
                             base, *g.ws);
  }
  g.plan = cp->plan;
  g.plan_resolved = true;
  executor_work += cp->probe_sim_ms;
  if (cp->probes)
    collector_.record_calibration(cp->probe_sim_ms, cp->probes);
  // Presize from the shape's recorded peaks so arenas meeting a recurring
  // shape for the first time usually skip organic growth (capacity-based
  // reserve is best effort: an already-fragmented arena may still grow
  // once before converging). The per-query peak is stashed on the group
  // so EVERY executor that later claims one of its items (not just this
  // setup executor) presizes before running.
  g.plan_exec_ws = cp->exec_ws_bytes;
  if (cp->exec_ws_bytes) ews.reserve_bytes(cp->exec_ws_bytes);

  // Shared construction: one delegate vector serves every query of the
  // group. Its (alpha, beta) is resolved in one call for the group's
  // actual kmax (an approximate plan pins no geometry, so a recall target
  // gets approx_geometry for this kmax), so dv.size() >= k holds for every
  // covered item and a recall target's budget holds at kmax. Its storage
  // lives in a pooled workspace leased for the group's lifetime (executor
  // workspaces rewind per query; the group's delegate vector must not).
  const core::DelegateGeometry geo =
      core::resolve_geometry(g.n, kmax, core::apply_plan(base, g.plan));
  const int alpha = geo.alpha;
  const u32 beta = geo.beta;
  if (alpha < 0) {
    g.ws = {};  // direct: nothing to construct, so hold no arena
  } else {
    // A hit leases at the shape's recorded peak, so the pool's capacity-
    // first pick prefers an arena already large enough for construction.
    if (!g.ws) g.ws = group_ws_.acquire(cp->group_ws_bytes, executor_id);
    g.ws->reset_peak();  // measure THIS shape's construction footprint
    topk::Accum acc(dev_);
    std::span<const Key> keyspan;
    {
      // Key conversion + shared delegate construction are the group's
      // phase-A pass: both charge to "construct".
      vgpu::StageScope construct("construct");
      // Directed keys live in the group arena; only this setup reads them.
      keyspan = topk::key_is_identity<T>(g.criterion)
                    ? values  // Key == T for u32/u64
                    : topk::make_directed_keys(acc, values, g.criterion,
                                               *g.ws);
      core::ConstructOpts copts = cfg_.base.construct;
      if (cfg_.base.fused_concat) copts.emit_sids = false;
      group_dv<Key>(g) = core::build_delegate_vector<Key>(acc, keyspan,
                                                          alpha, beta, copts,
                                                          *g.ws);
    }
    g.has_delegates = true;
    g.plan.alpha = alpha;
    g.plan.beta = beta;
    g.setup_sim_ms = acc.sim_ms();
    g.setup_stages.construct_ms = acc.sim_ms();
    g.setup_stages.construct_stats = acc.stats();
    executor_work += acc.sim_ms();

    // Admission closes here: members that joined while the vector was
    // built are covered too, and later queries open a new group. Every
    // member whose k rides the shared vector (rides_shared) answers from
    // the one candidate set built below at kride, the largest such k; the
    // rest take the unfused pipeline per item.
    std::vector<u64> ks;
    for (const u64 k : queue_.close_admission(g))
      if (rides_shared<Key>(g, k)) ks.push_back(k);
    if (!ks.empty()) {
      std::sort(ks.begin(), ks.end());
      const u64 kride = ks.back();
      // Members whose k repeats another's: the sharing the counter reports.
      deduped = static_cast<u64>(ks.end() - std::unique(ks.begin(), ks.end()));

      // Stage 2: ONE launch selects kappa, the exact kride-th delegate, so
      // at least kride keys are >= kappa. Recall-target groups: a member's
      // per-partition answer IS the top-k of the delegate vector, a prefix
      // of the top-kride, so the launch emits the full sorted top-kride
      // (selection_only = false) and doubles as the group's stages 3 and 4.
      const auto& dvk = group_dv<Key>(g).keys;
      std::span<const Key> dkeys(dvk.data(), dvk.size());
      const bool approx_group = !g.fidelity.exact();
      const topk::BatchedSegment<Key> kseg{dkeys, kride, 0,
                                           /*selection_only=*/!approx_group};
      topk::Accum acc2(dev_);
      topk::BatchedResult<Key> br;
      {
        // The kappa launch is the group's shared first top-k. Its scope
        // ends here so the concat pass below is charged to "concat" on the
        // device's stage ledger.
        vgpu::StageScope first("first");
        ews.reset_peak();  // record the kappa launch's scratch footprint
        br = topk::batched_topk<Key>(acc2, {&kseg, 1}, ews);
      }
      // Its multi-CTA partial buffer is an exact group's executor-arena
      // scratch: re-record so future groups of this shape presize instead
      // of growing. A recall-target plan records none — its members launch
      // nothing, so a presize would only grow each executor's arena on its
      // first member.
      if (!approx_group)
        plans_.note_workspace(g.plan_key, 0, ews.peak_bytes());
      const Key kappa = br.keys[0].back();
      // The group paid its members' first top-k here: amortized into
      // their latencies with the construction pass.
      g.setup_sim_ms += acc2.sim_ms();
      g.setup_stages.first_ms = acc2.sim_ms();
      g.setup_stages.first_stats = acc2.stats();
      executor_work += acc2.sim_ms();

      Group::CandidateSet set;
      set.kappa = kappa;
      std::span<const Key> cand;
      const bool tie_aware = core::tie_aware_stage3(base);
      if (approx_group) {
        // The sorted top-kride of the delegates, in the group arena: every
        // member takes its k-prefix on the host.
        auto top = g.ws->alloc<Key>(kride);
        std::copy(br.keys[0].begin(), br.keys[0].end(), top.begin());
        cand = top;
        set.taken_total = kride;
        set.sorted = true;
      } else if (!(tie_aware &&
                   kappa == std::numeric_limits<Key>::max())) {
        // Stage 3: ONE launch over the shared delegate vector
        // (core/concat_batched.hpp). Tie-aware, as in the single-query
        // pipeline (core::tie_aware_stage3), it classifies against
        // kappa + 1, so the set is G = {x > kappa} and at most kride - 1
        // delegates are taken; the inclusive bases take at most |D|. A
        // kappa equal to the maximum key launches nothing and leaves G
        // empty. The set lands in the group arena, where the batched
        // finalization consumes it.
        vgpu::StageScope concat("concat");
        topk::Accum acc3(dev_);
        const u64 taken_bound = tie_aware ? kride - 1 : dkeys.size();
        const std::span<Key> span = g.ws->alloc<Key>(core::stage3_capacity(
            g.n, beta, g.plan.alpha, taken_bound, /*rule2=*/true));
        const core::Stage3Counts c = core::concat_stage3<Key>(
            acc3, keyspan, dkeys, beta, g.plan.alpha,
            tie_aware ? static_cast<Key>(kappa + 1) : kappa,
            cfg_.base.filtering, /*rule2=*/true, span);
        cand = span.first(c.cand_count);
        set.taken_total = c.taken_total;
        set.qualified = c.qualified;
        g.setup_sim_ms += acc3.sim_ms();
        g.setup_stages.concat_ms = acc3.sim_ms();
        g.setup_stages.concat_stats = acc3.stats();
        executor_work += acc3.sim_ms();
      }
      if constexpr (std::is_same_v<Key, u64>)
        set.cand64 = cand;
      else
        set.cand32 = cand;
      g.shared = set;
    }
    plans_.note_workspace(g.plan_key, g.ws->peak_bytes(), 0);
  }
  collector_.record_executor_work(executor_id, executor_work);
  return deduped;
}

TopkServer::Answer TopkServer::execute_item(Group& g, Pending& p,
                                            u32 executor_id) {
  Answer a;
  bool deferred = false;
  try {
    if (!p.query.fidelity.exact()) collector_.record_approx();
    vgpu::Workspace& ws = *exec_ws_[executor_id];
    if (g.plan_exec_ws) ws.reserve_bytes(g.plan_exec_ws);
    ws.reset_peak();  // per-query footprint, not this arena's lifetime peak
    const u64 t0 = tracer_.enabled() ? tracer_.now_us() : 0;
    QueryResult r =
        g.width == KeyWidth::k64
            ? run_item_typed<u64>(g, p, ws, &deferred)
            : run_item_typed<u32>(g, p, ws, &deferred);
    if (tracer_.enabled())
      tracer_.complete(lane(executor_id), "phase-a", p.id, g.seq, t0,
                       tracer_.now_us());
    if (g.plan_resolved)
      plans_.note_workspace(g.plan_key, 0, ws.peak_bytes());
    // Work actually performed here: a riding item launched nothing (its
    // stages 1-3 were charged at setup, its stage-4 share goes to whichever
    // executor finalizes the group); an unfused item's latency is exactly
    // its own full pipeline.
    collector_.record_executor_work(
        executor_id, r.fused ? r.breakdown.total_ms() : r.latency_sim_ms);
    if (!deferred) {
      collector_.record_query(r.latency_sim_ms, r.breakdown, r.fused);
      a.result = std::move(r);
    }
  } catch (...) {
    // Once the item is parked its promise belongs to the group finalizer —
    // a throw from the post-parking bookkeeping must not double-set it.
    if (!deferred) {
      collector_.record_failure();
      a.error = std::current_exception();
    }
  }
  return a;
}

void TopkServer::complete_item(Group& g, Pending& p, Answer a,
                               u32 executor_id) {
  bool finalize = false;
  bool last = false;
  {
    std::lock_guard lk(g.batch_mu);
    ++g.executed;
    // Every item's phase A done (admission closed before publish, so
    // final_items is frozen): the group is complete. Exactly one executor
    // observes the transition.
    last = g.executed == g.final_items;
    finalize = last && (!g.def32.empty() || !g.def64.empty());
  }
  if (last && group_size_) {
    // The set's admission groups: batch_max members each, in admission
    // order, and the youngest holds the rest.
    const u64 cap = std::max(1u, cfg_.batch_max);
    for (u64 i = 0; i < g.groups; ++i)
      group_size_->observe(i + 1 < g.groups ? cap : g.final_items - i * cap);
  }
  // No member reads the set's arena once every phase A is done, and only
  // the finalization launch reads the parked spans, so the arena goes back
  // to the pool before the set's last answer is delivered: here when no
  // member parked (this answer is the last), else in the finalization,
  // right after its launch. A client that submits its next burst on the
  // last answer then finds the arena in the pool instead of making the
  // next set's setup create a second one.
  if (last && !finalize) g.ws = {};
  if (a.result)
    p.promise.set_value(std::move(*a.result));
  else if (a.error)
    p.promise.set_exception(a.error);
  if (finalize) finalize_group(g, executor_id);
}

void TopkServer::finalize_group(Group& g, u32 executor_id) {
  const auto run = [&](auto width_tag) {
    using T = decltype(width_tag);
    try {
      finalize_group_typed<T>(g, executor_id);
    } catch (...) {
      // Fail every parked query that was not yet fulfilled (delivery nulls
      // each item as it goes, so a mid-loop throw cannot lead to a double
      // set that would itself throw out of this handler).
      g.ws = {};
      for (auto& d : group_deferred<T>(g)) {
        if (!d.item) continue;
        collector_.record_failure();
        d.item->promise.set_exception(std::current_exception());
        d.item = nullptr;
      }
    }
  };
  if (g.width == KeyWidth::k64)
    run(u64{});
  else
    run(u32{});
}

template <class T>
void TopkServer::finalize_group_typed(Group& g, u32 executor_id) {
  using Key = typename data::KeyTraits<T>::Key;
  // No synchronization needed past this point: every item of the group
  // executed, so no thread appends to the deferred list or allocates from
  // the group arena anymore. The caller's claim holds the group, and thus
  // its pooled-arena lease, so every parked candidate span stays valid.
  std::vector<DeferredItem<Key>>& parked = group_deferred<Key>(g);
  if (parked.empty()) return;

  std::vector<topk::BatchedSegment<Key>> segs;
  segs.reserve(parked.size());
  for (const DeferredItem<Key>& d : parked)
    segs.push_back({d.cand, d.k, d.out.id, d.selection_only});

  const bool tracing = tracer_.enabled();
  const u64 t_flush = tracing ? tracer_.now_us() : 0;
  if (tracing) {
    // Close each parked item's deferred-park span: parked at phase-A
    // completion, resolved by this finalization.
    for (const DeferredItem<Key>& d : parked)
      tracer_.complete(lane(executor_id), "deferred-park", d.out.id, g.seq,
                       d.park_ts_us, t_flush);
  }

  vgpu::Workspace& ws = *exec_ws_[executor_id];
  vgpu::Workspace::Scope scope(ws);
  topk::Accum acc(dev_);
  vgpu::StageScope second("second");  // the set's shared second top-k
  auto br = topk::batched_topk<Key>(
      acc, std::span<const topk::BatchedSegment<Key>>(segs), ws);
  if (tracing)
    tracer_.complete(lane(executor_id), "batched-finalize", 0, g.seq, t_flush,
                     tracer_.now_us());

  // Batch-level accounting first: every counter must be recorded before
  // the last promise is fulfilled, or a stats() snapshot taken right after
  // the batch completes could miss this finalization.
  collector_.record_finalize(br.launches, parked.size(), acc.stats());
  collector_.record_executor_work(executor_id, acc.sim_ms());
  // Re-record the group arena's peak now that it holds the deferred
  // candidate spans: the next hit on the shape presizes for them too.
  if (g.plan_resolved)
    plans_.note_workspace(g.plan_key, g.ws ? g.ws->peak_bytes() : 0, 0);
  g.ws = {};  // every parked span is consumed (see complete_item)

  // One launch sequence served every parked query; each delivered query's
  // latency carries an equal share (the kernel counters were recorded once
  // at batch level above), so the shares sum to exactly the cost paid once.
  const u64 t_fanout = tracing ? tracer_.now_us() : 0;
  const double share = acc.sim_ms() / static_cast<double>(parked.size());
  for (size_t i = 0; i < parked.size(); ++i) {
    DeferredItem<Key>& d = parked[i];
    d.out.values.reserve(br.keys[i].size());
    for (const Key key : br.keys[i])
      d.out.values.push_back(static_cast<u64>(
          data::value_from_directed_key<T>(key, d.criterion)));
    d.out.kth = d.out.values.back();
    d.out.latency_sim_ms += share;
    d.out.breakdown.second_ms = share;
    d.out.wall_ms = d.item->admitted.ms();
    collector_.record_query(d.out.latency_sim_ms, d.out.breakdown,
                            d.out.fused);
    Pending* item = d.item;
    d.item = nullptr;  // fulfilled: the failure path must not touch it again
    item->promise.set_value(std::move(d.out));
  }
  if (tracing)
    tracer_.complete(lane(executor_id), "fan-out", 0, g.seq, t_fanout,
                     tracer_.now_us());
}

template <class T>
QueryResult TopkServer::run_item_typed(Group& g, Pending& p,
                                       vgpu::Workspace& ws, bool* deferred) {
  using Key = typename data::KeyTraits<T>::Key;
  const Query& q = p.query;
  QueryResult out;
  out.id = p.id;
  out.queue_us = p.queue_wait_us;
  out.plan_cache_hit = g.plan_hit;
  *deferred = false;

  core::StageBreakdown bd;
  if (rides_shared<Key>(g, q.k)) {
    // The group setup built the one candidate set every riding member
    // answers from (Group::CandidateSet), so phase A is DONE — no launch,
    // no scratch.
    if (!g.shared)
      throw std::logic_error(
          "TopkServer: a member riding the shared delegate vector has no "
          "candidate set");
    const Group::CandidateSet& set = *g.shared;
    const std::span<const Key> cand = set_cand<Key>(set);
    // "Fused" means construction was genuinely shared; a singleton group
    // paid full freight. Its latency is purely its share of the group's
    // construction + kappa + stage-3 passes.
    out.fused = g.final_items > 1;
    out.latency_sim_ms =
        g.setup_sim_ms / static_cast<double>(g.final_items);
    bd.alpha = g.plan.alpha;
    bd.beta = g.plan.beta;
    bd.delegate_len = group_dv<Key>(g).size();
    bd.num_subranges = group_dv<Key>(g).num_subranges;
    bd.concat_len = cand.size();
    bd.taken_delegates = set.taken_total;
    bd.qualified_subranges = set.qualified;
    // No second top-k when the answer is a sorted set's k-prefix, or when
    // the set holds at most k keys: tie-aware, the set padded with kappa
    // is the answer; inclusive, the set holds the top-kride, so it is
    // exactly the top-k.
    bd.second_skipped = set.sorted || cand.size() <= q.k;
    if (!bd.second_skipped) {
      // Park on the set's span: the group's last finisher selects for
      // every parked item in a single launch (one sort serves them all),
      // and values/kth arrive there.
      out.breakdown = bd;
      DeferredItem<Key> d;
      d.item = &p;
      d.out = out;
      d.cand = cand;
      d.k = q.k;
      d.criterion = q.criterion;
      d.selection_only = q.selection_only;
      if (tracer_.enabled()) d.park_ts_us = tracer_.now_us();
      {
        std::lock_guard lk(g.batch_mu);
        group_deferred<Key>(g).push_back(std::move(d));
      }
      *deferred = true;
      return out;
    }
    const std::vector<Key> keys = core::expand_skipped_answer<Key>(
        cand.first(std::min<u64>(q.k, cand.size())),
        static_cast<Key>(set.kappa), q.k, q.selection_only);
    out.values.reserve(keys.size());
    for (const Key key : keys)
      out.values.push_back(static_cast<u64>(
          data::value_from_directed_key<T>(key, q.criterion)));
    out.kth = out.values.back();
  } else {
    // Unfused fallback: delegation infeasible for this shape (or setup
    // degraded, or a k the shared vector cannot serve); the full
    // single-query pipeline, still plan-accelerated when a plan resolved:
    // it replays the calibrated alpha (dr_topk re-clamps per k). The
    // direct sentinel encodes infeasibility at the *group's* planning k,
    // so an item re-resolves for its own k (closed form only — a small k
    // sharing a group with a near-n outlier still delegates). A
    // recall-target item resolves its own geometry: g.plan holds the
    // group's, sized for another k's budget.
    core::DrTopkConfig cfg = cfg_.base;
    if (g.plan_resolved) {
      cfg = core::apply_plan(cfg, g.plan);
      if (cfg.alpha == core::kDirectAlpha) cfg.alpha = cfg_.base.alpha;
    }
    cfg.selection_only = q.selection_only;
    cfg.fidelity = q.fidelity;
    if (!q.fidelity.exact()) {
      cfg.alpha = cfg_.base.alpha;
      cfg.beta = cfg_.base.beta;
    }
    auto r = core::dr_topk<T>(dev_, query_data<T>(q), q.k, q.criterion, cfg,
                              &bd, ws);
    out.values.reserve(r.values.size());
    for (const T v : r.values) out.values.push_back(static_cast<u64>(v));
    out.kth = static_cast<u64>(r.kth);
    out.latency_sim_ms = r.sim_ms;
  }
  out.breakdown = bd;
  out.wall_ms = p.admitted.ms();
  return out;
}

}  // namespace drtopk::serve
