// Execution-plan cache: (shape, distribution) -> tuned delegate geometry.
//
// A serving workload re-sees the same query shapes over and over; paying
// Rule-4 evaluation — let alone probing — per query is wasted work. The
// cache key is (log2 |V|, log2 k, key width, criterion, distribution
// fingerprint); the value is a core::ExecPlan (alpha, beta) resolved once
// by one-time calibration: core::walk_alpha runs the whole pipeline on the
// full vector at the group's kmax, starting at Rule 4's clamped alpha and
// stepping up (then down) while the time falls, and keeps the measured
// argmin. Probing at full size is what makes the pick carry over: on a small
// prefix fixed launch costs dominate and rank the alphas differently. This
// recovers the oracle-vs-Rule-4 gap of Figure 14. Engines are not tuned:
// every stage runs the engine the server's base configuration names.
//
// Steady-state queries hit the cache and skip tuning entirely; the probes'
// simulated cost is charged to whichever executor resolves the miss, so
// server throughput numbers honestly include cold-start calibration. The
// probes' scratch comes from the caller's arena: the server passes the
// group arena that the shape's construction reuses right after.
#pragma once

#include <atomic>
#include <bit>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "core/dr_topk.hpp"

namespace drtopk::serve {

/// Cache key: the query's shape class. Deliberately shard-independent —
/// no device or placement state — so a plan calibrated on one shard is
/// valid on every sibling (see ShardedTopkServer plan sharing).
struct PlanKey {
  u32 log2n = 0;      ///< bit_width(|V|)
  u32 log2k = 0;      ///< bit_width(k)
  u32 key_bits = 32;  ///< 32 or 64
  u32 criterion = 0;
  u32 fingerprint = 0;
  /// FidelityPolicy::quantized_bp(): exact (10000) and each distinct recall
  /// target keep separate entries — an approx entry (no probes, no pinned
  /// geometry) must never be replayed for an exact query, and its
  /// workspace marks belong to its own target's geometry.
  u32 fidelity_bp = 10000;

  bool operator==(const PlanKey&) const = default;
};

/// Polynomial hash over the six PlanKey fields.
struct PlanKeyHash {
  size_t operator()(const PlanKey& k) const {
    u64 h = k.log2n;
    h = h * 131 + k.log2k;
    h = h * 131 + k.key_bits;
    h = h * 131 + k.criterion;
    h = h * 131 + k.fingerprint;
    h = h * 131 + k.fidelity_bp;
    return std::hash<u64>{}(h);
  }
};

/// A calibrated plan plus everything a replay presizes from: workspace
/// high-water marks and the provenance bits behind the probe-skip count.
struct CachedPlan {
  core::ExecPlan plan;
  double probe_sim_ms = 0.0;  ///< one-time calibration cost paid on miss
  u32 probes = 0;             ///< full-size pipeline runs that cost bought
  /// Workspace high-water marks observed while executing this shape,
  /// fed back via PlanCache::note_workspace. Executors and group
  /// workspaces presize from these on a hit, so a recurring shape never
  /// grows an arena mid-query.
  u64 group_ws_bytes = 0;  ///< shared construction (delegate vector, keys)
                           ///< plus the group's one candidate set
                           ///< (re-recorded at finalization)
  u64 exec_ws_bytes = 0;   ///< per-query stages 2-4 scratch and the
                           ///< group's kappa-launch scratch
  /// Cross-shard plan sharing: true when this entry arrived via publish()
  /// (a sibling shard calibrated it) rather than local calibration. The
  /// PlanKey is shard-independent — same log2-shape and distribution
  /// fingerprint on every equal slice of one corpus — so the first hit on
  /// a published entry is exactly one probe set this shard skipped.
  bool published = false;
  bool skip_counted = false;  ///< first published-entry hit already counted
};

/// Cheap distribution fingerprint: max bit width over a strided sample plus
/// the number of distinct high bytes among the samples. Distinguishes the
/// paper's regimes (uniform spreads ~30 distinct high bytes, the tie-heavy
/// normal distribution collapses to 1) without reading the vector.
template <class T>
u32 data_fingerprint(std::span<const T> v) {
  constexpr u32 kSamples = 32;
  if (v.empty()) return 0;
  const u64 stride = std::max<u64>(1, v.size() / kSamples);
  u32 max_width = 0;
  bool seen[256] = {};
  u32 distinct = 0;
  for (u64 i = 0; i < v.size(); i += stride) {
    const u64 bits = static_cast<u64>(v[i]);
    max_width = std::max<u32>(max_width, static_cast<u32>(std::bit_width(bits)));
    const u8 hi = static_cast<u8>(bits >> (8 * sizeof(T) - 8));
    if (!seen[hi]) {
      seen[hi] = true;
      ++distinct;
    }
  }
  return max_width * 64 + distinct;
}

/// The (shape -> calibrated plan) map: find() replays on a hit and
/// calibrate() resolves a miss with the one-time full-size walk;
/// publish()/entries() expose the cross-shard sharing surface.
class PlanCache {
 public:
  /// The cached plan for `key`, counted as a hit (its probe cost zeroed:
  /// the miss paid it), or nullopt on a miss — the caller then leases the
  /// arena the probes should use and calls calibrate().
  std::optional<CachedPlan> find(const PlanKey& key);

  /// Resolves a miss on `key` (make_key of the same v, k, criterion and
  /// base.fidelity): calibrates the shape with every probe's scratch in
  /// `ws`, rewound after each probe, then caches and returns the plan.
  /// Calibration runs outside the lock, so two executors racing on a
  /// brand-new shape may both calibrate; the insert is idempotent and the
  /// duplicated probe cost is charged to whoever paid it.
  template <class T>
  CachedPlan calibrate(const PlanKey& key, vgpu::Device& dev,
                       std::span<const T> v, u64 k, data::Criterion criterion,
                       const core::DrTopkConfig& base, vgpu::Workspace& ws);

  /// Records workspace high-water marks observed while serving `key`
  /// (max-merged; zero means "no update"). Future hits presize from them.
  void note_workspace(const PlanKey& key, u64 group_bytes, u64 exec_bytes) {
    std::lock_guard lk(mu_);
    auto it = map_.find(key);
    if (it == map_.end()) return;
    it->second.group_ws_bytes = std::max(it->second.group_ws_bytes,
                                         group_bytes);
    it->second.exec_ws_bytes = std::max(it->second.exec_ws_bytes, exec_bytes);
  }

  /// Records one measured wall-clock *service* time (queue wait excluded)
  /// for `key`, folded into a per-shape EWMA. Unlike note_workspace this
  /// does not require a cached plan: the map is separate, so shapes that
  /// never calibrate locally (e.g. the sharded server's full-span keys)
  /// still build an estimate. The EWMA (alpha = 1/4) tracks load shifts
  /// within a few samples while smoothing scheduling noise — it is the
  /// deadline-admission service predictor (src/net/admission.hpp).
  void note_service_time(const PlanKey& key, u64 wall_us) {
    std::lock_guard lk(mu_);
    auto [it, inserted] = service_us_.emplace(key, 0.0);
    it->second = inserted ? static_cast<double>(wall_us)
                          : it->second * 0.75 +
                                static_cast<double>(wall_us) * 0.25;
  }

  /// Current service-time estimate for `key` in microseconds; 0 = no
  /// sample yet (the admission controller treats that as "unknown" and
  /// admits optimistically).
  u64 service_estimate_us(const PlanKey& key) const {
    std::lock_guard lk(mu_);
    auto it = service_us_.find(key);
    return it == service_us_.end() ? 0 : static_cast<u64>(it->second + 0.5);
  }

  u64 hits() const { return hits_.load(std::memory_order_relaxed); }
  u64 misses() const { return misses_.load(std::memory_order_relaxed); }
  /// Calibration probe sets this cache never ran because a sibling's
  /// published plan was hit instead (counted once per published entry, at
  /// its first hit — the moment calibration would otherwise have fired).
  u64 probes_skipped() const {
    return probes_skipped_.load(std::memory_order_relaxed);
  }
  size_t size() const {
    std::lock_guard lk(mu_);
    return map_.size();
  }

  /// Coherent copy of every cached entry, for cross-shard sharing.
  std::vector<std::pair<PlanKey, CachedPlan>> entries() const {
    std::lock_guard lk(mu_);
    std::vector<std::pair<PlanKey, CachedPlan>> out;
    out.reserve(map_.size());
    for (const auto& [k, p] : map_) out.push_back({k, p});
    return out;
  }

  /// Adopts a plan calibrated elsewhere (insert-if-absent: a locally
  /// calibrated entry always wins over a published copy). Returns true
  /// when the entry was new here — the next hit on it skips a probe set.
  bool publish(const PlanKey& key, const CachedPlan& plan) {
    std::lock_guard lk(mu_);
    auto [it, inserted] = map_.emplace(key, plan);
    if (inserted) {
      it->second.published = true;
      it->second.skip_counted = false;
      it->second.probe_sim_ms = 0.0;  // this cache never paid the probes
      it->second.probes = 0;
    }
    return inserted;
  }

  template <class T>
  static PlanKey make_key(std::span<const T> v, u64 k,
                          data::Criterion criterion,
                          core::FidelityPolicy fidelity = {}) {
    PlanKey key;
    key.log2n = static_cast<u32>(std::bit_width(v.size()));
    key.log2k = static_cast<u32>(std::bit_width(k));
    key.key_bits = 8 * sizeof(T);
    key.criterion = static_cast<u32>(criterion);
    key.fingerprint = data_fingerprint(v);
    key.fidelity_bp = fidelity.quantized_bp();
    return key;
  }

 private:
  template <class T>
  static CachedPlan measure(vgpu::Device& dev, std::span<const T> v, u64 k,
                            data::Criterion criterion,
                            const core::DrTopkConfig& base,
                            vgpu::Workspace& ws);

  mutable std::mutex mu_;
  std::unordered_map<PlanKey, CachedPlan, PlanKeyHash> map_;
  /// Measured service-time EWMAs, keyed like plans but stored apart so an
  /// estimate can exist for shapes with no locally calibrated plan.
  std::unordered_map<PlanKey, double, PlanKeyHash> service_us_;
  std::atomic<u64> hits_{0};
  std::atomic<u64> misses_{0};
  std::atomic<u64> probes_skipped_{0};
};

inline std::optional<CachedPlan> PlanCache::find(const PlanKey& key) {
  std::lock_guard lk(mu_);
  auto it = map_.find(key);
  if (it == map_.end()) return std::nullopt;
  hits_.fetch_add(1, std::memory_order_relaxed);
  // First hit on a shared-in plan: this is when local calibration would
  // have fired — one probe set skipped thanks to the sibling.
  if (it->second.published && !it->second.skip_counted) {
    it->second.skip_counted = true;
    probes_skipped_.fetch_add(1, std::memory_order_relaxed);
  }
  CachedPlan hit = it->second;
  hit.probe_sim_ms = 0.0;  // already paid by the miss
  hit.probes = 0;
  return hit;
}

template <class T>
CachedPlan PlanCache::calibrate(const PlanKey& key, vgpu::Device& dev,
                                std::span<const T> v, u64 k,
                                data::Criterion criterion,
                                const core::DrTopkConfig& base,
                                vgpu::Workspace& ws) {
  CachedPlan fresh = measure(dev, v, k, criterion, base, ws);
  {
    std::lock_guard lk(mu_);
    map_.emplace(key, fresh);  // idempotent under races
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return fresh;
}

template <class T>
CachedPlan PlanCache::measure(vgpu::Device& dev, std::span<const T> v, u64 k,
                              data::Criterion criterion,
                              const core::DrTopkConfig& base,
                              vgpu::Workspace& ws) {
  CachedPlan out;

  // An approximate entry keeps only its workspace marks, never probes and
  // pins no geometry: the plan carries the base's alpha and beta (unpinned
  // unless the caller pinned them), so resolve_geometry derives (alpha,
  // beta) from the recall budget for each group's own kmax. A geometry
  // stored here would replay at every k of this log2(k) bucket, and one
  // sized for a smaller k misses more than a larger k's budget allows.
  if (!base.fidelity.exact()) {
    out.plan.alpha = base.alpha;
    out.plan.beta = base.beta;
    return out;
  }
  const core::DelegateGeometry geo = core::resolve_geometry(v.size(), k, base);
  out.plan.beta = geo.beta;
  // Infeasible delegation is cached as the explicit direct sentinel so a
  // replay goes straight to the direct top-k instead of re-tuning.
  out.plan.alpha = geo.alpha < 0 ? core::kDirectAlpha : geo.alpha;
  // An explicitly pinned base.alpha wins (resolve_geometry's contract):
  // there is nothing to search.
  if (base.alpha >= 0 || geo.alpha < 0) return out;

  // Probes are purely local measurements: never fire a configured
  // kappa_hook (a collective whose once-per-invocation contract a variable
  // number of probes would break) and measure the full pipeline, not the
  // selection-only shortcut. dr_topk rewinds its scratch in `ws` on return.
  core::DrTopkConfig cfg = base;
  cfg.kappa_hook = nullptr;
  cfg.selection_only = false;
  const core::AlphaWalk w = core::walk_alpha(
      v.size(), k, geo.beta, geo.alpha, [&](int a) {
        cfg.alpha = a;
        return core::dr_topk<T>(dev, v, k, criterion, cfg, nullptr, ws).sim_ms;
      });
  out.plan.alpha = w.alpha;
  out.probe_sim_ms = w.probe_ms;
  out.probes = w.probes;
  return out;
}

}  // namespace drtopk::serve
