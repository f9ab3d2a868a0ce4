#include "serve/sharded.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <fstream>
#include <stdexcept>

#include "obs/export.hpp"
#include "topk/batched.hpp"

namespace drtopk::serve {

ShardedTopkServer::ShardedTopkServer(ShardedConfig cfg)
    : cfg_(cfg),
      m_single_(registry_.counter(
          "sharded_single_shard_queries",
          "Queries short-circuited to one shard's TopkServer")),
      m_merged_(registry_.counter("sharded_merged_queries",
                                  "Queries served via scatter + merge")),
      m_failed_(registry_.counter(
          "sharded_failed_queries",
          "Queries failed by a shard sub-query (both routes)")),
      m_batches_(registry_.counter("sharded_merge_batches",
                                   "Merge-thread rounds executed")),
      m_launches_(registry_.counter("sharded_merge_launches",
                                    "Kernel launches spent merging")),
      merge_batch_size_(registry_.histogram(
          "sharded_merge_batch_size", "Queries merged per merge round")) {
  cfg_.num_shards = std::max(1u, cfg_.num_shards);
  cfg_.min_shard_elems = std::max<u64>(1, cfg_.min_shard_elems);
  shards_.reserve(cfg_.num_shards);
  for (u32 s = 0; s < cfg_.num_shards; ++s) {
    Shard sh;
    sh.dev = std::make_unique<vgpu::Device>(
        cfg_.profile, std::max(1u, cfg_.host_threads_per_shard));
    sh.server = std::make_unique<TopkServer>(*sh.dev, cfg_.shard);
    shards_.push_back(std::move(sh));
  }
  // The merge sets are tiny (shards x k keys); one host thread suffices.
  merge_dev_ = std::make_unique<vgpu::Device>(cfg_.profile, 1);
  merger_ = std::thread([this] { merge_loop(); });
}

ShardedTopkServer::~ShardedTopkServer() {
  {
    std::lock_guard lk(jobs_mu_);
    stop_ = true;
  }
  jobs_cv_.notify_all();
  if (merger_.joinable()) merger_.join();
  // Shard servers drain in their own destructors.
}

u32 ShardedTopkServer::shards_for(u64 n) const {
  const u64 want = n / cfg_.min_shard_elems;
  return static_cast<u32>(
      std::clamp<u64>(want, 1, static_cast<u64>(cfg_.num_shards)));
}

ShardedTopkServer::CorpusId ShardedTopkServer::add_corpus(Corpus c) {
  std::lock_guard lk(corpora_mu_);
  // Round-robin placement keeps many small corpora off one hot shard.
  if (c.shards == 1)
    c.first_shard = static_cast<u32>(corpora_.size() % shards_.size());
  corpora_.push_back(c);
  return static_cast<CorpusId>(corpora_.size() - 1);
}

ShardedTopkServer::CorpusId ShardedTopkServer::register_corpus(
    std::span<const u32> v) {
  Corpus c;
  c.width = KeyWidth::k32;
  c.v32 = v;
  c.shards = shards_for(v.size());
  c.shard_len = (v.size() + c.shards - 1) / c.shards;
  return add_corpus(c);
}

ShardedTopkServer::CorpusId ShardedTopkServer::register_corpus(
    std::span<const u64> v) {
  Corpus c;
  c.width = KeyWidth::k64;
  c.v64 = v;
  c.shards = shards_for(v.size());
  c.shard_len = (v.size() + c.shards - 1) / c.shards;
  return add_corpus(c);
}

u32 ShardedTopkServer::corpus_shards(CorpusId id) const {
  std::lock_guard lk(corpora_mu_);
  return corpora_[id].shards;
}

std::future<QueryResult> ShardedTopkServer::submit(CorpusId id, u64 k,
                                                   data::Criterion criterion,
                                                   bool selection_only,
                                                   core::FidelityPolicy
                                                       fidelity) {
  return std::move(
      submit_many(id, {k}, criterion, selection_only, fidelity).front());
}

std::vector<std::future<QueryResult>> ShardedTopkServer::submit_many(
    CorpusId id, const std::vector<u64>& ks, data::Criterion criterion,
    bool selection_only, core::FidelityPolicy fidelity) {
  Corpus c;
  {
    std::lock_guard lk(corpora_mu_);
    if (id >= corpora_.size())
      throw std::invalid_argument("ShardedTopkServer: unregistered corpus");
    c = corpora_[id];
  }
  const u64 n = c.width == KeyWidth::k64 ? c.v64.size() : c.v32.size();
  for (const u64 k : ks)
    if (k < 1 || k > n)
      throw std::invalid_argument(
          "ShardedTopkServer: query requires 1 <= k <= |V|");
  // One shard's burst over [lo, lo + len) with sub-query k = local_k(k).
  const auto shard_burst = [&](u32 s, u64 lo, u64 len, auto local_k,
                               bool sel, core::FidelityPolicy f) {
    std::vector<Query> qs;
    qs.reserve(ks.size());
    for (const u64 k : ks)
      qs.push_back(c.width == KeyWidth::k64
                       ? Query::view(c.v64.subspan(lo, len), local_k(k),
                                     criterion, sel, f)
                       : Query::view(c.v32.subspan(lo, len), local_k(k),
                                     criterion, sel, f));
    return shards_[s].server->submit_many(std::move(qs));
  };

  const auto t_submit = std::chrono::steady_clock::now();
  std::vector<MergeJob> jobs(ks.size());
  for (size_t i = 0; i < ks.size(); ++i) {
    MergeJob& job = jobs[i];
    job.k = ks[i];
    job.criterion = criterion;
    job.selection_only = selection_only;
    job.width = c.width;
    job.t_submit = t_submit;
    job.parts.reserve(c.shards);
  }

  if (c.shards == 1) {
    // ---- Single-shard route: the owning TopkServer answers the whole
    // query. Each job carries its one part through the merge thread, which
    // forwards the answer (or the exception) without selecting, so
    // ShardedStats counts it once it exists. ----
    m_single_.add(ks.size());
    {
      std::lock_guard lk(stats_mu_);
      agg_.single_shard_queries += ks.size();
    }
    auto parts = shard_burst(c.first_shard, 0, n, [](u64 k) { return k; },
                             selection_only, fidelity);
    for (size_t i = 0; i < ks.size(); ++i) {
      jobs[i].parts.push_back(std::move(parts[i]));
      jobs[i].forward = true;
    }
  } else {
    // ---- Scatter: one clamped full-top-k sub-query per shard. The local
    // list must be a real top-min(k, len) (never selection-only): any
    // global winner living on shard s is within its local top-k, so the
    // union of the local lists contains the global top-k
    // (Σ min(k, len_s) >= k). ----
    //
    // Under a recall target the scatter shrinks on both axes, splitting the
    // miss budget in half: each shard runs its local pipeline at a
    // *tightened* target (half the budget covers per-partition loss inside
    // the shards) and serves a *reduced* local k (the other half covers
    // truncation — the global top-k spreads ~uniformly over S shards, mean
    // k/S per shard, and a concentration slack of 2*sqrt(mu*ln(S+1)) + 8
    // caps how lopsided a shard's share can get). The merge itself stays
    // the exact engine either way — it sees smaller, approximate local
    // lists.
    core::FidelityPolicy local = fidelity;
    if (!fidelity.exact())
      local = core::FidelityPolicy::approx(
          1.0 - (1.0 - fidelity.recall_target) / 2.0);
    const auto reduced = [&](u64 k) {
      if (fidelity.exact()) return k;
      const double mu =
          static_cast<double>(k) / static_cast<double>(c.shards);
      return static_cast<u64>(std::ceil(
          mu + 2.0 * std::sqrt(mu * std::log(static_cast<double>(c.shards) +
                                             1.0)) +
          8.0));
    };
    for (u32 s = 0; s < c.shards; ++s) {
      const u64 lo = static_cast<u64>(s) * c.shard_len;
      const u64 len = std::min(c.shard_len, n - lo);
      auto parts = shard_burst(
          s, lo, len,
          [&](u64 k) { return std::min({k, reduced(k), len}); },
          /*selection_only=*/false, local);
      for (size_t i = 0; i < ks.size(); ++i)
        jobs[i].parts.push_back(std::move(parts[i]));
    }
  }
  std::vector<std::future<QueryResult>> futs;
  futs.reserve(ks.size());
  for (MergeJob& job : jobs) futs.push_back(job.promise.get_future());
  {
    std::lock_guard lk(jobs_mu_);
    for (MergeJob& job : jobs) {
      job.id = next_id_++;
      ++jobs_in_flight_;
      jobs_.push_back(std::move(job));
    }
  }
  jobs_cv_.notify_one();
  return futs;
}

void ShardedTopkServer::merge_loop() {
  for (;;) {
    std::vector<MergeJob> batch;
    {
      std::unique_lock lk(jobs_mu_);
      jobs_cv_.wait(lk, [&] { return stop_ || !jobs_.empty(); });
      if (stop_ && jobs_.empty()) return;
      // Drain EVERYTHING queued: while this round blocks on shard futures
      // below, new submissions pile up and merge together next round —
      // batching follows load with no tuning knob.
      while (!jobs_.empty()) {
        batch.push_back(std::move(jobs_.front()));
        jobs_.pop_front();
      }
    }
    std::vector<MergeJob> j32, j64;
    for (auto& j : batch) {
      if (j.forward)
        forward(j);
      else
        (j.width == KeyWidth::k64 ? j64 : j32).push_back(std::move(j));
    }
    if (!j32.empty()) merge_batch_typed<u32>(j32);
    if (!j64.empty()) merge_batch_typed<u64>(j64);
    // A merge round is a natural sync point: every shard just calibrated
    // whatever shapes this batch introduced — cross-publish them so the
    // next corpus of a recurring shape skips N-1 probe sets.
    share_plans();
    {
      std::lock_guard lk(jobs_mu_);
      jobs_in_flight_ -= batch.size();
    }
    drain_cv_.notify_all();
  }
}

void ShardedTopkServer::forward(MergeJob& job) {
  QueryResult r;
  try {
    r = job.parts.front().get();
  } catch (...) {
    m_failed_.add();
    {
      std::lock_guard lk(stats_mu_);
      ++agg_.failed;
    }
    job.promise.set_exception(std::current_exception());
    return;
  }
  {
    std::lock_guard lk(stats_mu_);
    ++agg_.completed;
  }
  job.promise.set_value(std::move(r));
}

template <class T>
void ShardedTopkServer::merge_batch_typed(std::vector<MergeJob>& jobs) {
  using Key = typename data::KeyTraits<T>::Key;

  // ---- Collect the shard answers (blocks until the slowest shard has
  // locally finalized) and re-key them into the directed-key domain, where
  // "better" is simply "bigger" regardless of criterion — the merge
  // network needs one total order. The lists arrive best-first, so the
  // re-keyed runs are sorted descending, exactly what the merge wants. ----
  struct Gathered {
    std::vector<std::vector<Key>> runs;
    double latency_ms = 0.0;  ///< max over shards: they run concurrently
    u64 queue_us = 0;         ///< max over shards, same concurrency argument
    core::StageBreakdown breakdown;
    bool plan_hit = true;
    bool fused = false;
    std::exception_ptr error;  ///< first failed shard sub-query's exception
  };
  std::vector<Gathered> in(jobs.size());
  for (size_t ji = 0; ji < jobs.size(); ++ji) {
    MergeJob& j = jobs[ji];
    Gathered& g = in[ji];
    g.runs.reserve(j.parts.size());
    for (auto& part : j.parts) {
      QueryResult pr;
      try {
        pr = part.get();
      } catch (...) {
        g.error = std::current_exception();
        break;
      }
      std::vector<Key> run(pr.values.size());
      for (size_t i = 0; i < pr.values.size(); ++i)
        run[i] = data::directed_key<T>(static_cast<T>(pr.values[i]),
                                       j.criterion);
      g.runs.push_back(std::move(run));
      g.latency_ms = std::max(g.latency_ms, pr.latency_sim_ms);
      g.queue_us = std::max(g.queue_us, pr.queue_us);
      g.breakdown += pr.breakdown;
      g.plan_hit = g.plan_hit && pr.plan_cache_hit;
      g.fused = g.fused || pr.fused;
    }
  }

  // A failed sub-query fails only its own job, with that shard's
  // exception, and drops it from the batch; the rest merges as normal.
  // Failures are counted before any of their futures resolves.
  const u64 failures = static_cast<u64>(
      std::count_if(in.begin(), in.end(),
                    [](const Gathered& g) { return g.error != nullptr; }));
  if (failures) {
    m_failed_.add(failures);
    {
      std::lock_guard lk(stats_mu_);
      agg_.failed += failures;
    }
    size_t kept = 0;
    for (size_t ji = 0; ji < jobs.size(); ++ji) {
      if (in[ji].error) {
        jobs[ji].promise.set_exception(in[ji].error);
        continue;
      }
      if (kept != ji) {  // a self-move would empty the vectors
        jobs[kept] = std::move(jobs[ji]);
        in[kept] = std::move(in[ji]);
      }
      ++kept;
    }
    jobs.resize(kept);
    in.resize(kept);
    if (jobs.empty()) return;
  }

  // ---- Merge on the merge device: ONE batched launch selects each
  // query's global top-k over its shard runs for the whole batch. ----
  topk::Accum acc(*merge_dev_);
  vgpu::StageScope stage("merge");
  std::vector<topk::MergeSegment<Key>> finals(jobs.size());
  for (size_t ji = 0; ji < jobs.size(); ++ji) {
    topk::MergeSegment<Key>& seg = finals[ji];
    u64 total = 0;
    for (auto& run : in[ji].runs) {
      seg.runs.emplace_back(run);
      total += run.size();
    }
    seg.k = std::min(jobs[ji].k, total);
    seg.tag = jobs[ji].id;
  }
  topk::BatchedResult<Key> fr;
  try {
    fr = topk::batched_merge_topk<Key>(acc, finals);
  } catch (...) {
    // A failed merge launch fails every query still in the batch with its
    // exception, counted before any future resolves; the merge thread
    // lives on and drain() still returns.
    m_failed_.add(jobs.size());
    {
      std::lock_guard lk(stats_mu_);
      agg_.failed += jobs.size();
    }
    for (MergeJob& j : jobs) j.promise.set_exception(std::current_exception());
    return;
  }
  const u64 launches = fr.launches;

  // ---- Price and fulfil: every merged query carries an equal share of
  // the round's merge time on top of its slowest shard's local latency
  // (the shards ran concurrently; the merge ran once for everyone). ----
  const double share =
      acc.sim_ms() / static_cast<double>(std::max<size_t>(1, jobs.size()));
  const auto t_done = std::chrono::steady_clock::now();
  for (size_t ji = 0; ji < jobs.size(); ++ji) {
    MergeJob& j = jobs[ji];
    QueryResult out;
    out.id = j.id;
    const std::vector<Key>& keys = fr.keys[ji];
    const u64 keff = keys.size();
    if (j.selection_only) {
      out.kth = static_cast<u64>(
          data::value_from_directed_key<T>(keys[keff - 1], j.criterion));
      out.values = {out.kth};
    } else {
      out.values.resize(keff);
      for (u64 i = 0; i < keff; ++i)
        out.values[i] = static_cast<u64>(
            data::value_from_directed_key<T>(keys[i], j.criterion));
      out.kth = out.values.back();
    }
    out.latency_sim_ms = in[ji].latency_ms + share;
    out.queue_us = in[ji].queue_us;
    out.breakdown = in[ji].breakdown;
    out.breakdown.second_ms += share;
    out.plan_cache_hit = in[ji].plan_hit;
    out.fused = in[ji].fused;
    out.wall_ms = std::chrono::duration<double, std::milli>(
                      t_done - j.t_submit)
                      .count();
    j.promise.set_value(std::move(out));
  }

  m_merged_.add(jobs.size());
  m_batches_.add();
  m_launches_.add(launches);
  merge_batch_size_.observe(jobs.size());
  std::lock_guard lk(stats_mu_);
  agg_.completed += jobs.size();
  agg_.merged_queries += jobs.size();
  ++agg_.merge_batches;
  agg_.merge_launches += launches;
  agg_.merge_sim_ms += acc.sim_ms();
}

void ShardedTopkServer::drain() {
  {
    std::unique_lock lk(jobs_mu_);
    drain_cv_.wait(lk, [&] { return jobs_in_flight_ == 0; });
  }
  for (auto& sh : shards_) sh.server->drain();
  // Quiesced: one more plan-sharing sync point, which also covers queries
  // submitted to a shard server directly (shard(i)).
  share_plans();
}

u64 ShardedTopkServer::share_plans() {
  if (shards_.size() < 2) return 0;
  // Union of every shard's calibrated plans, then insert-if-absent into
  // every sibling. Publishing a shard's own entry back is a no-op, and a
  // local calibration racing a publish keeps whichever landed first —
  // both are valid plans for the shape.
  std::vector<std::pair<PlanKey, CachedPlan>> all;
  for (auto& sh : shards_) {
    auto e = sh.server->plan_cache().entries();
    all.insert(all.end(), e.begin(), e.end());
  }
  u64 published = 0;
  for (auto& sh : shards_)
    for (const auto& [key, plan] : all)
      published += sh.server->plan_cache().publish(key, plan) ? 1 : 0;
  if (published) {
    std::lock_guard lk(stats_mu_);
    agg_.plan_publishes += published;
  }
  return published;
}

ShardedStats ShardedTopkServer::stats() const {
  ShardedStats s;
  {
    std::lock_guard lk(stats_mu_);
    s = agg_;
  }
  double shard_makespan = 0.0;
  for (const auto& sh : shards_) {
    shard_makespan =
        std::max(shard_makespan, sh.server->stats().makespan_sim_ms);
    s.plan_probes_skipped += sh.server->plan_cache().probes_skipped();
  }
  s.makespan_sim_ms = shard_makespan + s.merge_sim_ms;
  return s;
}

u64 ShardedTopkServer::workspace_growths() const {
  u64 g = 0;
  for (const auto& sh : shards_) g += sh.server->workspace_growths();
  return g;
}

u64 ShardedTopkServer::unattributed_launches() const {
  u64 u = merge_dev_->unattributed_launches();
  for (const auto& sh : shards_) u += sh.dev->unattributed_launches();
  return u;
}

std::string ShardedTopkServer::metrics_prometheus() const {
  std::string out;
  for (u32 s = 0; s < shards_.size(); ++s)
    out += obs::to_prometheus(shards_[s].server->metrics(),
                              "shard=\"" + std::to_string(s) + "\"");
  out += obs::to_prometheus(registry_, "shard=\"merge\"");
  return out;
}

std::string ShardedTopkServer::metrics_json() const {
  // Each per-shard object's braces are stripped and the labeled keys are
  // spliced into one flat document.
  std::string out = "{";
  bool first = true;
  auto splice = [&](const std::string& obj) {
    if (obj.size() <= 2) return;  // "{}"
    if (!first) out += ",";
    first = false;
    out.append(obj, 1, obj.size() - 2);
  };
  for (u32 s = 0; s < shards_.size(); ++s)
    splice(obs::to_json(shards_[s].server->metrics(),
                        "shard=\"" + std::to_string(s) + "\""));
  splice(obs::to_json(registry_, "shard=\"merge\""));
  out += "}";
  return out;
}

bool ShardedTopkServer::dump_trace(const std::string& path) const {
  std::vector<std::pair<std::string, const obs::Tracer*>> tracers;
  for (u32 s = 0; s < shards_.size(); ++s) {
    const obs::Tracer& t = shards_[s].server->tracer();
    if (t.enabled())
      tracers.emplace_back("shard-" + std::to_string(s), &t);
  }
  if (tracers.empty()) return false;
  std::ofstream f(path);
  if (!f) return false;
  obs::export_chrome_multi(f, tracers);
  return true;
}

}  // namespace drtopk::serve
