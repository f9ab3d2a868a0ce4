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

/// Whether a member asking for k is served from the set's shared
/// delegate vector: the vector must exist and hold a top-k, and under a
/// recall target its geometry must also meet this k's miss budget (a
/// member that joined during construction may ask for a larger k than the
/// geometry was sized for; expected misses grow faster than k) with k real
/// delegates to answer from. Setup builds the set's candidate set at the
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
      queue_(cfg.max_in_flight, &tracer_),
      collector_(std::max(1u, cfg.executors), registry_) {
  queue_wait_us_ = &registry_.histogram(
      "serve_queue_wait_us",
      "Admission to the start of a query's own step (us)");
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
  while (const std::shared_ptr<Group> g = queue_.next())
    run_set(*g, executor_id);
}

void TopkServer::run_set(Group& g, u32 executor_id) {
  const bool tracing = tracer_.enabled();
  const u64 t0 = tracing ? tracer_.now_us() : 0;
  setup_group(g, executor_id);
  if (tracing)
    tracer_.complete(lane(executor_id), "group-setup", 0, g.seq, t0,
                     tracer_.now_us());
  // Admission is closed, so the members are final and only this executor
  // touches them: each runs its own step in admission order.
  for (Pending& p : g.items) {
    if (p.enqueue_ts_us != 0) {
      const u64 now = tracer_.now_us();
      const u64 waited = now - p.enqueue_ts_us;
      p.result.queue_us = waited;
      if (queue_wait_us_) queue_wait_us_->observe(waited);
      if (tracing)
        tracer_.complete(lane(executor_id), "queue-wait", p.id, g.seq,
                         p.enqueue_ts_us, now);
    }
    execute_item(g, p, executor_id);
  }
  if (!g.def32.empty() || !g.def64.empty()) finalize_group(g, executor_id);
  // No answer reads the set's arena, so it goes back to the pool, and
  // every slot of the set is freed, before the first answer is delivered:
  // a client that sends its next burst on the last answer finds both.
  g.ws = {};
  const u64 members = g.items.size();
  queue_.free_slots(members);
  const u64 t_fanout = tracing ? tracer_.now_us() : 0;
  for (Pending& p : g.items) {
    if (p.error) {
      p.promise.set_exception(p.error);
    } else {
      p.result.wall_ms = p.admitted.ms();
      p.promise.set_value(std::move(p.result));
    }
  }
  if (tracing)
    tracer_.complete(lane(executor_id), "fan-out", 0, g.seq, t_fanout,
                     tracer_.now_us());
  queue_.delivered(members);
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
  // close it here, so the members are final before any of them runs.
  (void)queue_.close_admission(g);
  // batch_max only reports: the set counts as admission groups of
  // batch_max members each, in admission order, the youngest holding the
  // rest.
  const u64 cap = std::max(1u, cfg_.batch_max);
  const u64 members = g.items.size();
  const u64 groups = (members + cap - 1) / cap;
  for (u64 i = 0; i < groups; ++i)
    group_size_->observe(std::min(cap, members - i * cap));
  collector_.record_group(g.setup_stages, deduped, groups);
}

template <class T>
u64 TopkServer::setup_group_typed(Group& g, u32 executor_id) {
  using Key = typename data::KeyTraits<T>::Key;
  // The snapshot the queue took at claim time sizes the plan key, the
  // calibration and the delegate vector. The set keeps admitting while
  // the vector is built; close_admission then returns every member's k, and
  // the batched stages 2-3 below cover all of them (until the close, the
  // deque itself is only traversed under the queue's mutex).
  const std::span<const T> values = query_data<T>(g.setup_query);

  // The set's effective base config: the server baseline with the
  // set's fidelity (part of the admission signature, so it is uniform
  // across members). Everything downstream — feasibility, plan key,
  // calibration, construction sizing — reads fidelity from here.
  core::DrTopkConfig base = cfg_.base;
  base.fidelity = g.fidelity;

  // Size the shared delegate vector for the largest *feasible* k among the
  // snapshot's queries: one near-n outlier must not disable fusion for the
  // whole set — it simply runs unfused (rides_shared fails), while the
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
    // their own. Probe launches are one-time tuning, not steady-state
    // pipeline work: the ambient label keeps them out of the per-stage
    // breakdown (the probes' internal stage scopes all default to it).
    g.ws = group_ws_.acquire();
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
  // once before converging). This executor runs every member of the set,
  // so its arena is the one to presize.
  if (cp->exec_ws_bytes) ews.reserve_bytes(cp->exec_ws_bytes);

  // Shared construction: one delegate vector serves every query of the
  // set. Its (alpha, beta) is resolved in one call for the set's
  // actual kmax (an approximate plan pins no geometry, so a recall target
  // gets approx_geometry for this kmax), so dv.size() >= k holds for every
  // covered item and a recall target's budget holds at kmax. Its storage
  // lives in a pooled workspace leased for the set's lifetime (executor
  // workspaces rewind per query; the set's delegate vector must not).
  const core::DelegateGeometry geo =
      core::resolve_geometry(g.n, kmax, core::apply_plan(base, g.plan));
  const int alpha = geo.alpha;
  const u32 beta = geo.beta;
  if (alpha < 0) {
    g.ws = {};  // direct: nothing to construct, so hold no arena
  } else {
    // A hit leases at the shape's recorded peak, so the pool's capacity-
    // first pick prefers an arena already large enough for construction.
    if (!g.ws) g.ws = group_ws_.acquire(cp->group_ws_bytes);
    g.ws->reset_peak();  // measure THIS shape's construction footprint
    topk::Accum acc(dev_);
    std::span<const Key> keyspan;
    {
      // Key conversion + shared delegate construction are the set's
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
    // built are covered too, and later queries open a new set. Every
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
      // at least kride keys are >= kappa. Recall-target sets: a member's
      // per-partition answer IS the top-k of the delegate vector, a prefix
      // of the top-kride, so the launch emits the full sorted top-kride
      // (selection_only = false) and doubles as the set's stages 3 and 4.
      const auto& dvk = group_dv<Key>(g).keys;
      std::span<const Key> dkeys(dvk.data(), dvk.size());
      const bool approx_group = !g.fidelity.exact();
      const topk::BatchedSegment<Key> kseg{dkeys, kride, 0,
                                           /*selection_only=*/!approx_group};
      topk::Accum acc2(dev_);
      topk::BatchedResult<Key> br;
      {
        // The kappa launch is the set's shared first top-k. Its scope
        // ends here so the concat pass below is charged to "concat" on the
        // device's stage ledger.
        vgpu::StageScope first("first");
        ews.reset_peak();  // record the kappa launch's scratch footprint
        br = topk::batched_topk<Key>(acc2, {&kseg, 1}, ews);
      }
      // Its multi-CTA partial buffer is an exact set's executor-arena
      // scratch: re-record so future sets of this shape presize instead
      // of growing. A recall-target plan records none — its members launch
      // nothing, so a presize would only grow the executor's arena.
      if (!approx_group)
        plans_.note_workspace(g.plan_key, 0, ews.peak_bytes());
      const Key kappa = br.keys[0].back();
      // The set paid its members' first top-k here: amortized into
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

void TopkServer::execute_item(Group& g, Pending& p, u32 executor_id) {
  bool parked = false;
  try {
    if (!p.query.fidelity.exact()) collector_.record_approx();
    vgpu::Workspace& ws = *exec_ws_[executor_id];
    ws.reset_peak();  // per-query footprint, not this arena's lifetime peak
    const u64 t0 = tracer_.enabled() ? tracer_.now_us() : 0;
    parked = g.width == KeyWidth::k64 ? run_item_typed<u64>(g, p, ws)
                                      : run_item_typed<u32>(g, p, ws);
    if (tracer_.enabled())
      tracer_.complete(lane(executor_id), "phase-a", p.id, g.seq, t0,
                       tracer_.now_us());
    if (g.plan_resolved)
      plans_.note_workspace(g.plan_key, 0, ws.peak_bytes());
    // Work actually performed here: a riding item launched nothing (its
    // stages 1-3 were charged at setup, its stage-4 share to the set's
    // finalization); an unfused item's latency is exactly its own full
    // pipeline.
    const QueryResult& r = p.result;
    collector_.record_executor_work(
        executor_id, r.fused ? r.breakdown.total_ms() : r.latency_sim_ms);
    if (!parked) collector_.record_query(r.latency_sim_ms, r.breakdown, r.fused);
  } catch (...) {
    // A parked item's answer belongs to the set's finalization — a throw
    // from the post-parking bookkeeping must not fail it twice.
    if (!parked) {
      collector_.record_failure();
      p.error = std::current_exception();
    }
  }
}

void TopkServer::finalize_group(Group& g, u32 executor_id) {
  const auto run = [&](auto width_tag) {
    using T = decltype(width_tag);
    try {
      finalize_group_typed<T>(g, executor_id);
    } catch (...) {
      // Fail every parked member the finalization did not complete (it
      // nulls each item as it goes).
      for (auto& d : group_deferred<T>(g)) {
        if (!d.item) continue;
        collector_.record_failure();
        d.item->error = std::current_exception();
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
  // Every member ran its step, so nothing appends to the parked list or
  // allocates from the set's arena anymore, and the arena's lease still
  // holds every parked candidate span.
  std::vector<DeferredItem<Key>>& parked = group_deferred<Key>(g);
  if (parked.empty()) return;

  std::vector<topk::BatchedSegment<Key>> segs;
  segs.reserve(parked.size());
  for (const DeferredItem<Key>& d : parked) {
    const Query& q = d.item->query;
    segs.push_back({d.cand, q.k, d.item->id, q.selection_only});
  }

  const bool tracing = tracer_.enabled();
  const u64 t_flush = tracing ? tracer_.now_us() : 0;
  if (tracing) {
    // Close each parked item's deferred-park span: parked at its own step,
    // resolved by this finalization.
    for (const DeferredItem<Key>& d : parked)
      tracer_.complete(lane(executor_id), "deferred-park", d.item->id, g.seq,
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

  collector_.record_finalize(br.launches, parked.size(), acc.stats());
  collector_.record_executor_work(executor_id, acc.sim_ms());
  // Re-record the group arena's peak now that it holds the deferred
  // candidate spans: the next hit on the shape presizes for them too.
  if (g.plan_resolved)
    plans_.note_workspace(g.plan_key, g.ws ? g.ws->peak_bytes() : 0, 0);

  // One launch sequence served every parked query; each one's latency
  // carries an equal share (the kernel counters were recorded once at
  // batch level above), so the shares sum to exactly the cost paid once.
  const double share = acc.sim_ms() / static_cast<double>(parked.size());
  for (size_t i = 0; i < parked.size(); ++i) {
    DeferredItem<Key>& d = parked[i];
    QueryResult& out = d.item->result;
    const data::Criterion c = d.item->query.criterion;
    out.values.reserve(br.keys[i].size());
    for (const Key key : br.keys[i])
      out.values.push_back(
          static_cast<u64>(data::value_from_directed_key<T>(key, c)));
    out.kth = out.values.back();
    out.latency_sim_ms += share;
    out.breakdown.second_ms = share;
    collector_.record_query(out.latency_sim_ms, out.breakdown, out.fused);
    d.item = nullptr;  // completed: the failure path must not touch it
  }
}

template <class T>
bool TopkServer::run_item_typed(Group& g, Pending& p, vgpu::Workspace& ws) {
  using Key = typename data::KeyTraits<T>::Key;
  const Query& q = p.query;
  QueryResult& out = p.result;
  out.id = p.id;
  out.plan_cache_hit = g.plan_hit;

  core::StageBreakdown bd;
  if (rides_shared<Key>(g, q.k)) {
    // The set's setup built the one candidate set every riding member
    // answers from (Group::CandidateSet), so this step launches nothing
    // and needs no scratch.
    if (!g.shared)
      throw std::logic_error(
          "TopkServer: a member riding the shared delegate vector has no "
          "candidate set");
    const Group::CandidateSet& set = *g.shared;
    const std::span<const Key> cand = set_cand<Key>(set);
    // "Fused" means construction was genuinely shared; a singleton set
    // paid full freight. Its latency is purely its share of the set's
    // construction + kappa + stage-3 passes.
    const u64 members = g.items.size();
    out.fused = members > 1;
    out.latency_sim_ms = g.setup_sim_ms / static_cast<double>(members);
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
    out.breakdown = bd;
    if (!bd.second_skipped) {
      // Park on the set's span: the set's finalization selects for every
      // parked item in a single launch (one sort serves them all) and
      // fills values/kth.
      group_deferred<Key>(g).push_back(
          {&p, cand, tracer_.enabled() ? tracer_.now_us() : 0});
      return true;
    }
    const std::vector<Key> keys = core::expand_skipped_answer<Key>(
        cand.first(std::min<u64>(q.k, cand.size())),
        static_cast<Key>(set.kappa), q.k, q.selection_only);
    out.values.reserve(keys.size());
    for (const Key key : keys)
      out.values.push_back(static_cast<u64>(
          data::value_from_directed_key<T>(key, q.criterion)));
    out.kth = out.values.back();
    return false;
  }
  // Unfused fallback: delegation infeasible for this shape (or setup
  // degraded, or a k the shared vector cannot serve); the full
  // single-query pipeline, still plan-accelerated when a plan resolved: it
  // replays the calibrated alpha (dr_topk re-clamps per k). The direct
  // sentinel encodes infeasibility at the *set's* planning k, so an item
  // re-resolves for its own k (closed form only — a small k sharing a set
  // with a near-n outlier still delegates). A recall-target item resolves
  // its own geometry: g.plan holds the set's, sized for another k's
  // budget.
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
  out.breakdown = bd;
  return false;
}

}  // namespace drtopk::serve
