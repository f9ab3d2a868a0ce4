// Workspace: a bump arena for device scratch memory, the backbone of the
// zero-allocation hot path.
//
// Every engine and pipeline stage used to cudaMalloc-equivalently allocate
// fresh full-size scratch per call (two n-sized radix buffers, the stage-3
// qualified/cand arrays, ...). A Workspace replaces those with pointer-bump
// allocations out of a small set of large blocks that are acquired once and
// reused forever:
//
//   vgpu::Workspace ws;
//   {
//     vgpu::Workspace::Scope scope(ws);      // checkpoint
//     auto buf = ws.alloc<u32>(n);           // O(1), no heap traffic
//     ...
//   }                                        // rewind: buf's bytes reusable
//
// Blocks are never freed or moved while the Workspace lives, so spans handed
// out stay valid until the bump pointer is rewound past them — LIFO scratch
// discipline, exactly what kernel pipelines need. Three counters make the
// steady-state contract testable:
//
//   * allocs()            — alloc<T>() calls served (cheap, informational)
//   * growths()           — blocks acquired; a warmed-up serving path
//                           must not increase this (the allocation-
//                           regression test asserts exactly that)
//   * high_water_bytes()  — peak bytes in use; recorded per plan by
//                           serve::PlanCache so executor/group workspaces
//                           can be presized for recurring shapes
//
// Workspaces are single-threaded by design: one per executor thread, plus a
// WorkspacePool of recycled workspaces for state whose lifetime spans
// threads (a serving group's shared delegate vector). tls_workspace() is the
// convenience fallback for ad-hoc callers (tests, examples, benches).
#pragma once

#include <sys/mman.h>
#include <unistd.h>

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstring>
#include <memory>
#include <mutex>
#include <new>
#include <span>
#include <type_traits>
#include <vector>

#include "vgpu/types.hpp"

namespace drtopk::vgpu {

/// Bump arena of device-style scratch: typed spans carved out of a few
/// large blocks that are acquired once, never freed or moved while the
/// workspace lives, and reused after each Scope rewinds (see the file
/// comment). Block memory is uninitialized, like cudaMalloc'd memory; a
/// Debug build fills each new block with kPoisonByte so a consumer that
/// reads arena memory before writing it shows under the sanitizers.
///
/// Blocks are pages mapped straight from the OS, each followed by one
/// inaccessible guard page, so an access past a block's end faults at once
/// in every build, and a freed block's pages go back to the OS at once.
/// Heap blocks could stay resident in the C allocator's per-thread heaps
/// after the workspace died (which thread grew which arena decides what
/// stays), so a process that builds one server after another would keep
/// earlier arenas' pages.
class Workspace {
 public:
  /// Block growth floor; real workloads outgrow it immediately, tiny tests
  /// stay tiny.
  static constexpr u64 kMinBlockBytes = u64{64} << 10;
  /// Fill byte of a new block in Debug builds (!NDEBUG).
  static constexpr unsigned char kPoisonByte = 0xA5;

  Workspace() = default;
  explicit Workspace(u64 initial_bytes) {
    if (initial_bytes) grow(initial_bytes);
  }

  // Pinned in place: arenas are owned behind stable pointers (pool,
  // per-executor vector, thread_local), and the growth/high-water counters
  // are atomics so monitoring reads from other threads are race-free.
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;
  Workspace(Workspace&&) = delete;
  Workspace& operator=(Workspace&&) = delete;

  /// Bump-allocates `n` elements of trivially-copyable T. The returned span
  /// is uninitialized (like cudaMalloc'd memory) and stays valid until the
  /// workspace is rewound at or before the current position.
  template <class T>
  std::span<T> alloc(u64 n) {
    static_assert(std::is_trivially_copyable_v<T> &&
                      std::is_trivially_destructible_v<T>,
                  "Workspace holds raw device-style buffers");
    ++allocs_;
    if (n == 0) return {};
    std::byte* p = bump(n * sizeof(T), alignof(T));
    return {reinterpret_cast<T*>(p), n};
  }

  /// Bump position; rewinding to it frees (for reuse) everything allocated
  /// after it was taken.
  struct Checkpoint {
    u64 block = 0;
    u64 offset = 0;
  };

  Checkpoint checkpoint() const { return {cur_, off_}; }

  void rewind(const Checkpoint& c) {
    assert(c.block < cur_ || (c.block == cur_ && c.offset <= off_) ||
           blocks_.empty());
    cur_ = c.block;
    off_ = c.offset;
  }

  /// Rewind to empty; capacity (and the growth counter) is retained.
  void reset() {
    cur_ = 0;
    off_ = 0;
  }

  /// RAII checkpoint/rewind — the per-call scratch scope every engine opens.
  class Scope {
   public:
    explicit Scope(Workspace& ws) : ws_(&ws), c_(ws.checkpoint()) {}
    ~Scope() { ws_->rewind(c_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Workspace* ws_;
    Checkpoint c_;
  };

  /// Presizes the arena to at least `bytes` of total capacity. A fresh
  /// workspace gets one contiguous block, so an allocation stream whose
  /// peak in-use total is <= `bytes` cannot grow mid-flight. A workspace
  /// that already reached this capacity organically is left alone — its
  /// existing block walk is what the recorded high-water mark measured, so
  /// replaying the same stream stays growth-free.
  void reserve_bytes(u64 bytes) {
    if (bytes == 0 || capacity_bytes() >= bytes) return;
    grow(bytes);
  }

  u64 capacity_bytes() const {
    u64 total = 0;
    for (const Block& b : blocks_) total += b.size;
    return total;
  }

  /// Bytes currently reserved by live allocations (blocks fully behind the
  /// bump position count whole — skipped tails are unusable until rewind).
  u64 in_use_bytes() const {
    u64 total = off_;
    for (u64 b = 0; b < cur_ && b < blocks_.size(); ++b)
      total += blocks_[b].size;
    return total;
  }

  u64 high_water_bytes() const {
    return high_water_.load(std::memory_order_relaxed);
  }
  u64 allocs() const { return allocs_; }
  u64 growths() const { return growths_.load(std::memory_order_relaxed); }

  /// Windowed peak: the largest in-use total since the last reset_peak().
  /// Lets a caller measure the footprint of ONE unit of work (a query, a
  /// group construction) on a long-lived workspace whose lifetime
  /// high_water_bytes() aggregates every shape it ever served.
  u64 peak_bytes() const { return peak_; }
  void reset_peak() { peak_ = in_use_bytes(); }

 private:
  /// Unmaps a block's whole mapping, guard page included.
  struct Unmap {
    u64 mapped;
    void operator()(std::byte* p) const { ::munmap(p, mapped); }
  };
  struct Block {
    std::unique_ptr<std::byte[], Unmap> data;
    u64 size = 0;
  };

  std::byte* bump(u64 bytes, u64 align) {
    for (;;) {
      if (cur_ < blocks_.size()) {
        const u64 off = (off_ + align - 1) / align * align;
        if (off + bytes <= blocks_[cur_].size) {
          std::byte* p = blocks_[cur_].data.get() + off;
          off_ = off + bytes;
          const u64 in_use = in_use_bytes();
          if (in_use > high_water_.load(std::memory_order_relaxed))
            high_water_.store(in_use, std::memory_order_relaxed);
          peak_ = std::max(peak_, in_use);
          return p;
        }
        // Doesn't fit here: leave the tail as a hole and try the next block
        // (rewind reclaims it). Identical allocation streams walk identical
        // block sequences, so steady state never grows.
        ++cur_;
        off_ = 0;
        continue;
      }
      grow(bytes + align);
    }
  }

  void grow(u64 min_bytes) {
    // Geometric growth: each new block at least doubles total capacity, so
    // a workload reaches its high-water mark in O(log) growths. The bump
    // position is NOT moved: earlier blocks keep serving smaller
    // allocations (bump() walks forward to the new block only when it
    // must), so a reserve_bytes() on a rewound workspace neither strands
    // capacity nor inflates in_use/peak accounting. Sizes round up to
    // whole pages, so the block ends where its guard page begins.
    const u64 page = static_cast<u64>(::sysconf(_SC_PAGESIZE));
    const u64 want = std::max({min_bytes, kMinBlockBytes, capacity_bytes()});
    const u64 size = (want + page - 1) / page * page;
    void* m = ::mmap(nullptr, size + page, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (m == MAP_FAILED) throw std::bad_alloc();
    std::byte* base = static_cast<std::byte*>(m);
    Block b;
    b.data = std::unique_ptr<std::byte[], Unmap>(base, Unmap{size + page});
    if (::mprotect(base + size, page, PROT_NONE) != 0) throw std::bad_alloc();
#ifndef NDEBUG
    std::memset(b.data.get(), kPoisonByte, size);
#endif
    b.size = size;
    blocks_.push_back(std::move(b));
    growths_.fetch_add(1, std::memory_order_relaxed);
  }

  std::vector<Block> blocks_;
  u64 cur_ = 0;   ///< block the bump pointer is in
  u64 off_ = 0;   ///< offset within that block
  std::atomic<u64> high_water_{0};  ///< lifetime peak in-use (monitorable)
  u64 peak_ = 0;                    ///< peak in-use since reset_peak()
  u64 allocs_ = 0;
  std::atomic<u64> growths_{0};     ///< blocks acquired (monitorable)
};

/// Thread-local fallback workspace for callers outside the serving hot path
/// (tests, examples, ad-hoc engine invocations). Persistent per thread, so
/// repeated scoped calls reuse one allocation.
inline Workspace& tls_workspace() {
  thread_local Workspace ws;
  return ws;
}

/// Recycling pool of workspaces for scratch whose lifetime is not tied to
/// one call stack — e.g. a serving group's shared delegate vector, which is
/// built by one executor and read by all of them until the group drains.
/// Leases return their workspace (reset, capacity retained) on destruction,
/// so a steady-state server converges on a fixed set of pooled workspaces
/// and performs zero further heap allocations.
class WorkspacePool {
  struct FreeEntry {
    std::unique_ptr<Workspace> ws;
    u64 affinity;  ///< who returned it (kNoAffinity when untagged)
  };
  struct State {
    std::mutex mu;
    std::vector<FreeEntry> free;
    std::vector<Workspace*> all;  ///< stable observers for metric sums
  };

 public:
  /// Affinity token for acquire(): callers that pass a stable id (e.g. an
  /// executor index) are preferentially re-issued the arena they last
  /// returned — first-touch locality groundwork for NUMA pinning, where a
  /// pool block's pages live on the socket of whoever touched them first.
  static constexpr u64 kNoAffinity = ~u64{0};

  class Lease {
   public:
    Lease() = default;
    Lease(Lease&& o) noexcept
        : state_(std::move(o.state_)),
          ws_(std::move(o.ws_)),
          affinity_(o.affinity_) {}
    Lease& operator=(Lease&& o) noexcept {
      if (this != &o) {
        release();
        state_ = std::move(o.state_);
        ws_ = std::move(o.ws_);
        affinity_ = o.affinity_;
      }
      return *this;
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() { release(); }

    explicit operator bool() const { return ws_ != nullptr; }
    Workspace& operator*() const { return *ws_; }
    Workspace* operator->() const { return ws_.get(); }
    Workspace* get() const { return ws_.get(); }

   private:
    friend class WorkspacePool;
    Lease(std::shared_ptr<State> state, std::unique_ptr<Workspace> ws,
          u64 affinity)
        : state_(std::move(state)), ws_(std::move(ws)), affinity_(affinity) {}

    void release() {
      if (!ws_) return;
      ws_->reset();
      std::lock_guard lk(state_->mu);
      state_->free.push_back({std::move(ws_), affinity_});
    }

    std::shared_ptr<State> state_;
    std::unique_ptr<Workspace> ws_;
    u64 affinity_ = kNoAffinity;
  };

  /// Pops a recycled workspace (or creates one on first use) and presizes
  /// it. Pick order: capacity first, affinity second — an arena already
  /// big enough for `reserve_bytes` (preferring the one this caller last
  /// returned) beats the affine-but-too-small arena, so affinity can bias
  /// placement but never force an avoidable heap growth; any free arena
  /// still beats allocating a new workspace.
  Lease acquire(u64 reserve_bytes = 0, u64 affinity = kNoAffinity) {
    std::unique_ptr<Workspace> ws;
    {
      std::lock_guard lk(state_->mu);
      if (!state_->free.empty()) {
        size_t pick = state_->free.size() - 1;
        size_t fitting = state_->free.size();  // best capacity-sufficient
        size_t affine = state_->free.size();   // best affinity match
        for (size_t i = state_->free.size(); i-- > 0;) {
          const FreeEntry& e = state_->free[i];
          const bool fits = e.ws->capacity_bytes() >= reserve_bytes;
          const bool mine = affinity != kNoAffinity && e.affinity == affinity;
          if (fits && mine) {
            fitting = affine = i;
            break;  // ideal: my own arena, already big enough
          }
          if (fits && fitting == state_->free.size()) fitting = i;
          if (mine && affine == state_->free.size()) affine = i;
        }
        if (fitting < state_->free.size()) {
          pick = fitting;
        } else if (affine < state_->free.size()) {
          pick = affine;
        }
        ws = std::move(state_->free[pick].ws);
        state_->free.erase(state_->free.begin() +
                           static_cast<std::ptrdiff_t>(pick));
      } else {
        ws = std::make_unique<Workspace>();
        state_->all.push_back(ws.get());
      }
    }
    if (reserve_bytes) ws->reserve_bytes(reserve_bytes);
    return Lease(state_, std::move(ws), affinity);
  }

  /// Aggregate counters over every workspace ever created by this pool
  /// (leased or free) — what the allocation-regression test watches.
  u64 growths() const {
    std::lock_guard lk(state_->mu);
    u64 total = 0;
    for (const Workspace* ws : state_->all) total += ws->growths();
    return total;
  }

  u64 high_water_bytes() const {
    std::lock_guard lk(state_->mu);
    u64 peak = 0;
    for (const Workspace* ws : state_->all)
      peak = std::max(peak, ws->high_water_bytes());
    return peak;
  }

  u64 size() const {
    std::lock_guard lk(state_->mu);
    return state_->all.size();
  }

 private:
  std::shared_ptr<State> state_ = std::make_shared<State>();
};

}  // namespace drtopk::vgpu
