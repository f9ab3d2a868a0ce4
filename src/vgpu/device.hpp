// The virtual GPU device: kernel launch, CTA context, stats accounting and
// the simulated-time ledger.
//
// A kernel is any callable `void(CtaCtx&)`. CTAs run in parallel on a host
// thread pool; warps inside a CTA run warp-synchronously. All instrumentation
// flows into per-worker KernelStats that are merged when the launch returns,
// so hot paths never touch shared counters.
#pragma once

#include <algorithm>
#include <map>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "vgpu/cost_model.hpp"
#include "vgpu/profile.hpp"
#include "vgpu/shared_mem.hpp"
#include "vgpu/stats.hpp"
#include "vgpu/thread_pool.hpp"
#include "vgpu/types.hpp"
#include "vgpu/warp.hpp"

namespace drtopk::vgpu {

/// Kernel launch configuration (grid geometry + shared memory request).
struct Launch {
  std::string name = "kernel";
  u32 num_ctas = 1;
  u32 warps_per_cta = 8;
  u64 shared_bytes = 0;
  /// Pipeline-stage label for per-stage KernelStats attribution. Must point
  /// at a string with static storage duration. When null, the launch
  /// inherits the ambient StageScope; with no scope either it is charged to
  /// the "unattributed" bucket (CI gates on that bucket staying empty).
  const char* stage = nullptr;
};

/// RAII ambient stage label (thread-local). Library entry points open a
/// defaulting scope — it only takes effect when no caller already
/// established one — so outer context wins: serve's "calibrate" scope keeps
/// plan-cache probe launches out of the steady-state stage ledger even
/// though the probes run the regular pipeline underneath. Pass
/// `force = true` to relabel within an enclosing scope (used by the
/// pipeline's second top-k, which follows the stage-3 scope in the same
/// block).
class StageScope {
 public:
  explicit StageScope(const char* stage, bool force = false) {
    if (force || active_ == nullptr) {
      saved_ = active_;
      active_ = stage;
      engaged_ = true;
    }
  }
  ~StageScope() {
    if (engaged_) active_ = saved_;
  }
  StageScope(const StageScope&) = delete;
  StageScope& operator=(const StageScope&) = delete;

  /// True when this scope actually set the ambient label (i.e. it was the
  /// outermost scope, or forced).
  bool engaged() const { return engaged_; }

  /// The ambient stage label on this thread, or null.
  static const char* active() { return active_; }

 private:
  static inline thread_local const char* active_ = nullptr;
  const char* saved_ = nullptr;
  bool engaged_ = false;
};

/// Per-stage aggregate: KernelStats plus simulated time attributed to one
/// stage label.
struct StageStats {
  std::string stage;
  KernelStats stats;
  double sim_ms = 0.0;
};

/// Execution context handed to the kernel, one per CTA.
class CtaCtx {
 public:
  CtaCtx(u32 cta_id, const Launch& cfg, std::byte* shared_arena,
         KernelStats& stats)
      : cta_id_(cta_id),
        cfg_(&cfg),
        stats_(&stats),
        shared_(shared_arena, cfg.shared_bytes, &stats) {}

  u32 cta_id() const { return cta_id_; }
  u32 num_ctas() const { return cfg_->num_ctas; }
  u32 warps_per_cta() const { return cfg_->warps_per_cta; }
  u32 grid_warps() const { return cfg_->num_ctas * cfg_->warps_per_cta; }

  KernelStats& stats() { return *stats_; }
  SharedMem& shared() { return shared_; }

  /// Warp `w` of this CTA (0 <= w < warps_per_cta).
  Warp warp(u32 w) {
    return Warp(*stats_, cta_id_ * cfg_->warps_per_cta + w, grid_warps());
  }

  /// Runs fn(warp) for every warp of the CTA (warps execute sequentially
  /// within a CTA; parallelism comes from CTAs).
  template <class F>
  void for_each_warp(F&& fn) {
    for (u32 w = 0; w < cfg_->warps_per_cta; ++w) {
      Warp wp = warp(w);
      fn(wp);
    }
  }

  /// Thread-style scalar accessors for control logic.
  template <class T>
  T ld(std::span<const T> v, u64 i) {
    stats_->global_load_elems += 1;
    stats_->global_load_bytes += sizeof(T);
    stats_->global_load_txns += 1;
    return v[i];
  }

  template <class T>
  void st(std::span<T> v, u64 i, const T& x) {
    stats_->global_store_elems += 1;
    stats_->global_store_bytes += sizeof(T);
    stats_->global_store_txns += 1;
    v[i] = x;
  }

  template <class T>
  T atomic_add(std::span<T> v, u64 i, T delta) {
    stats_->atomic_ops += 1;
    return detail::AtomicOps<T>::fetch_add(&v[i], delta);
  }

 private:
  u32 cta_id_;
  const Launch* cfg_;
  KernelStats* stats_;
  SharedMem shared_;
};

/// One simulated GPU: a profile and its cost model, a host thread pool
/// that runs the CTAs of each launch, the running KernelStats and
/// simulated-time totals with a per-stage ledger, and a deterministic
/// launch fault seam (fail_next_launches). launch() is thread-safe, so many
/// executors can share one Device.
class Device {
 public:
  explicit Device(GpuProfile profile = GpuProfile::v100s(),
                  u32 host_threads = 0)
      : profile_(std::move(profile)), cost_(profile_), pool_(host_threads) {}

  const GpuProfile& profile() const { return profile_; }
  const CostModel& cost() const { return cost_; }
  ThreadPool& pool() { return pool_; }

  /// Launches the kernel and blocks until every CTA finished. Returns the
  /// stats of this launch; also adds them (and the simulated time) to the
  /// device's running totals.
  template <class F>
  KernelStats launch(const Launch& cfg, F&& kernel) {
    const u32 workers = pool_.size();
    std::vector<KernelStats> per_worker(workers);

    pool_.parallel_for(0, cfg.num_ctas, [&](u64 cta, u32 worker) {
      // Shared-memory arena: grow-only and thread_local, so an OS thread —
      // which runs one CTA at a time, whatever launch or Device it belongs
      // to — reuses one allocation across launches while concurrent
      // launches (serving executors) stay isolated by construction.
      CtaCtx ctx(static_cast<u32>(cta), cfg,
                 cfg.shared_bytes ? thread_arena(cfg.shared_bytes) : nullptr,
                 per_worker[worker]);
      kernel(ctx);
    });

    KernelStats s;
    for (const auto& w : per_worker) s += w;
    s.kernels_launched = 1;
    s.ctas_run = cfg.num_ctas;

    const double ms = cost_.kernel_ms(s);
    const char* stage = cfg.stage ? cfg.stage : StageScope::active();
    const char* label = stage ? stage : "unattributed";
    {
      std::lock_guard lk(mu_);
      if (fault_budget_ > 0 && fault_stage_ == label) {
        --fault_budget_;
        throw std::runtime_error(
            std::string("vgpu: injected launch failure (stage ") + label +
            ")");
      }
      total_ += s;
      total_sim_ms_ += ms;
      // The stage ledger adds the *same* KernelStats under the *same* lock,
      // so per-stage totals reconcile exactly with total_stats().
      StageSlot& slot = stages_[label];
      slot.stats += s;
      slot.sim_ms += ms;
    }
    return s;
  }

  /// Deterministic fault seam, off by default: the next `count` launches
  /// whose resolved stage label (the explicit one, else the ambient
  /// StageScope, else "unattributed") equals `stage` throw
  /// std::runtime_error in place of recording their stats, so the device
  /// totals and the stage ledger never see them. A call replaces the
  /// previous setting; count 0 disarms it. Tests drive the failure paths of
  /// the layers above with it.
  void fail_next_launches(std::string stage, u64 count) {
    std::lock_guard lk(mu_);
    fault_stage_ = std::move(stage);
    fault_budget_ = count;
  }

  /// Simulated milliseconds for a stats snapshot under this device's profile.
  double sim_ms(const KernelStats& s) const { return cost_.kernel_ms(s); }

  void reset_stats() {
    std::lock_guard lk(mu_);
    total_ = KernelStats{};
    total_sim_ms_ = 0.0;
    stages_.clear();
  }

  KernelStats total_stats() const {
    std::lock_guard lk(mu_);
    return total_;
  }

  double total_sim_ms() const {
    std::lock_guard lk(mu_);
    return total_sim_ms_;
  }

  /// Per-stage kernel-stats breakdown, sorted by stage label. Summing the
  /// returned KernelStats reproduces total_stats() exactly (same counters
  /// added under the same lock).
  std::vector<StageStats> stage_stats() const {
    std::vector<StageStats> out;
    std::lock_guard lk(mu_);
    out.reserve(stages_.size());
    for (const auto& [name, slot] : stages_)
      out.push_back(StageStats{name, slot.stats, slot.sim_ms});
    return out;
  }

  /// Kernel launches that carried no stage label (neither explicit nor
  /// ambient). CI gates on this staying zero for served queries.
  u64 unattributed_launches() const {
    std::lock_guard lk(mu_);
    auto it = stages_.find("unattributed");
    return it == stages_.end() ? 0 : it->second.stats.kernels_launched;
  }

  /// Grid geometry for a workload of `items` independent warp-sized work
  /// units. Grid-stride loops make the exact CTA count a performance knob,
  /// not a correctness one; we size it like a persistent-occupancy launch.
  Launch launch_for_warp_items(u64 items, std::string name,
                               u32 warps_per_cta = 8,
                               u64 shared_bytes = 0) const {
    const u64 resident_warps = static_cast<u64>(profile_.num_sms) *
                               profile_.max_threads_per_sm / kWarpSize;
    const u64 warps = std::clamp<u64>(items, 1, resident_warps);
    Launch cfg;
    cfg.name = std::move(name);
    cfg.warps_per_cta = warps_per_cta;
    cfg.num_ctas =
        static_cast<u32>((warps + warps_per_cta - 1) / warps_per_cta);
    cfg.shared_bytes = shared_bytes;
    return cfg;
  }

 private:
  static std::byte* thread_arena(u64 bytes) {
    thread_local std::vector<std::byte> arena;
    if (arena.size() < bytes) arena.resize(bytes);
    return arena.data();
  }

  GpuProfile profile_;
  CostModel cost_;
  ThreadPool pool_;

  struct StageSlot {
    KernelStats stats;
    double sim_ms = 0.0;
  };

  mutable std::mutex mu_;
  KernelStats total_;
  double total_sim_ms_ = 0.0;
  std::map<std::string, StageSlot> stages_;
  std::string fault_stage_;  ///< fail_next_launches state, under mu_
  u64 fault_budget_ = 0;
};

/// std::vector that skips zero-initialization on resize — the device-buffer
/// equivalent of cudaMalloc'd memory.
template <class T>
struct default_init_allocator : std::allocator<T> {
  template <class U>
  struct rebind {
    using other = default_init_allocator<U>;
  };
  template <class U, class... Args>
  void construct(U* p, Args&&... args) {
    if constexpr (sizeof...(Args) == 0) {
      ::new (static_cast<void*>(p)) U;  // default-init: no zero fill
    } else {
      ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
    }
  }
};

template <class T>
using device_vector = std::vector<T, default_init_allocator<T>>;

}  // namespace drtopk::vgpu
