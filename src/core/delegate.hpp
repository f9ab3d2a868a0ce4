// Delegate vector construction (Sections 4.1, 4.3, 5.1 and 5.3).
//
// The input vector is split into subranges of 2^alpha elements; each
// subrange contributes its top-beta elements ("delegates") tagged with the
// subrange id. Two construction kernels, selected by subrange size exactly
// as in the paper:
//
//  * Warp-centric path (alpha > 5): one warp per subrange. Lanes stride
//    through the subrange keeping a private top-beta, then beta rounds of
//    shuffle-based max-reduction extract the delegates (31 shuffles per
//    round for a full warp — Equation 2's communication term, and the
//    "beta x more shuffles" cost Section 4.3 mentions). Each CTA takes
//    contiguous tiles of subranges; its warps stage their delegates in a
//    shared-memory tile and warp 0 writes the tile out with coalesced
//    stores. Written directly, every delegate is a single-lane store, which
//    costs a whole 32-byte sector plus a write-allocate fill; staged, the
//    writes cost about their bytes and construction is bound by the one
//    read of the input. The unoptimized construction keeps the single-lane
//    stores as the Section 5.3 baseline.
//
//  * Coalesced-load-to-shared + strided-compute path (alpha <= 5,
//    Section 5.3): one warp loads 32 whole subranges into shared memory
//    coalescedly, then each lane walks one subrange privately — full thread
//    utilization and zero shuffles. The shared layout is padded (pitch 33)
//    to avoid bank conflicts; the padding is a config knob so its effect is
//    measurable.
//
// Short tail subranges yield fewer than beta real delegates; missing slots
// are padded with (key = 0, sid = kInvalidSid) entries which every consumer
// ignores.
#pragma once

#include "topk/kernels.hpp"

namespace drtopk::core {

using topk::Accum;
using topk::Slice;
using topk::warp_slice;

inline constexpr u32 kInvalidSid = 0xFFFF'FFFFu;
inline constexpr u32 kMaxBeta = 4;

/// Largest alpha handled by the shared-memory construction path
/// (subranges of up to 32 elements — one per lane).
inline constexpr int kSharedPathMaxAlpha = 5;

/// Delegate-construction options. `optimized` selects the Section 5.3
/// construction: the shared path for alpha <= 5 and coalesced emission of
/// the warp path's delegates for alpha > 5. Off, every subrange takes the
/// warp path with single-lane delegate stores, the paper's unoptimized
/// construction (Figure 15's baseline).
struct ConstructOpts {
  bool optimized = true;       ///< Section 5.3 construction (see above)
  bool shared_padding = true;  ///< pad the shared layout (bank conflicts off)
  /// Store the per-delegate subrange-id array. The fused stage-3 pipeline
  /// derives delegate validity analytically (valid slots are a prefix of
  /// each subrange's beta slots) and never reads sids, so the pipeline
  /// skips these stores entirely; consumers that want the tags (tests, the
  /// distributed layer) keep the default.
  bool emit_sids = true;
};

/// Workspace-backed delegate vector: `keys`/`sids` view arena memory owned
/// by the workspace the constructor was given; the caller controls their
/// lifetime through that workspace's scope. Invariant (relied on by the
/// fused concatenation): within each subrange's beta slots the real
/// delegates occupy a prefix of length min(beta, subrange_len), sorted
/// descending; trailing slots are padding (key 0 / sid kInvalidSid).
template <class K>
struct DelegateVector {
  std::span<K> keys;    ///< |D| = num_subranges * beta entries
  std::span<u32> sids;  ///< subrange id per delegate (empty if !emit_sids)
  u64 num_subranges = 0;
  u32 beta = 1;
  int alpha = 0;

  u64 size() const { return keys.size(); }
  u64 subrange_len(u64 s, u64 n) const {
    const u64 len = u64{1} << alpha;
    const u64 begin = s * len;
    return std::min(len, n - begin);
  }
};

/// Delegate slots over n keys that hold an element: each full subrange of
/// 2^alpha keys fills min(beta, 2^alpha) slots and a short tail subrange
/// min(beta, its length); the rest of the S * beta slots are padding.
inline u64 real_delegate_count(u64 n, int alpha, u32 beta) {
  const u64 len = u64{1} << alpha;
  return (n >> alpha) * std::min<u64>(beta, len) +
         std::min<u64>(beta, n & (len - 1));
}

namespace detail {

/// Per-lane top-beta accumulator (descending insertion into a tiny array).
template <class K>
struct LaneTopBeta {
  std::array<K, kMaxBeta> best;  // sorted descending, only [0, count) valid
  u32 count = 0;

  void insert(K x, u32 beta) {
    if (count < beta) {
      u32 i = count++;
      while (i > 0 && best[i - 1] < x) {
        best[i] = best[i - 1];
        --i;
      }
      best[i] = x;
    } else if (x > best[beta - 1]) {
      u32 i = beta - 1;
      while (i > 0 && best[i - 1] < x) {
        best[i] = best[i - 1];
        --i;
      }
      best[i] = x;
    }
  }
};

/// Extracts the top-`real_count` values of the union of 32 per-lane
/// top-beta sets using shuffle-based max-reductions (charged per round) and
/// hands each of subrange `sid`'s beta slots to put(r, key, sid): the
/// delegates in descending order, then (0, kInvalidSid) padding.
template <class K, class Put>
void emit_warp_delegates(vgpu::Warp& w,
                         vgpu::LaneArray<LaneTopBeta<K>>& lanes, u32 beta,
                         u64 real_count, u32 sid, Put&& put) {
  vgpu::LaneArray<u32> ptr{};  // per-lane cursor into its sorted top-beta
  for (u32 r = 0; r < beta; ++r) {
    if (r < real_count) {
      vgpu::LaneArray<K> prop{};
      vgpu::LaneArray<u8> has{};
      for (u32 l = 0; l < vgpu::kWarpSize; ++l) {
        has[l] = ptr[l] < lanes[l].count ? 1 : 0;
        prop[l] = has[l] ? lanes[l].best[ptr[l]] : std::numeric_limits<K>::min();
      }
      // A lane with no proposal left could tie a real minimum-key element;
      // resolve by masking: ballot the proposing lanes, reduce over them.
      const u32 mask = w.ballot(has);
      auto [val, lane] = w.reduce_max_index(prop);
      // If the winner has no element (all-zero proposals tie), pick the
      // lowest proposing lane instead.
      if (!has[lane] && mask != 0) {
        lane = static_cast<u32>(std::countr_zero(mask));
        val = prop[lane];
      }
      ++ptr[lane];
      put(r, val, sid);
    } else {
      put(r, K{}, kInvalidSid);
    }
  }
}

}  // namespace detail

/// Builds the delegate vector for subranges of 2^alpha elements. The
/// delegate arrays are allocated from `ws` (no per-call heap traffic); the
/// caller keeps them alive by not rewinding past this point.
template <class K>
DelegateVector<K> build_delegate_vector(
    Accum& acc, std::span<const K> v, int alpha, u32 beta,
    const ConstructOpts& opts = {},
    vgpu::Workspace& ws = vgpu::tls_workspace()) {
  // Stage 1 of the paper's pipeline. Defaulting scope: an enclosing label
  // (e.g. serve's "calibrate") wins.
  vgpu::StageScope stage_scope("construct");
  assert(beta >= 1 && beta <= kMaxBeta);
  assert(alpha >= 0);
  const u64 n = v.size();
  const u64 len = u64{1} << alpha;
  const u64 S = (n + len - 1) / len;

  DelegateVector<K> dv;
  dv.num_subranges = S;
  dv.beta = beta;
  dv.alpha = alpha;
  dv.keys = ws.alloc<K>(S * beta);
  if (opts.emit_sids) dv.sids = ws.alloc<u32>(S * beta);
  std::span<K> dkeys = dv.keys;
  std::span<u32> dsids = dv.sids;
  const bool emit_sids = opts.emit_sids;

  const bool shared_path = opts.optimized && alpha <= kSharedPathMaxAlpha &&
                           len <= vgpu::kWarpSize;

  // Subranges handled by the shared path: whole groups of 32 full-length
  // subranges. The tail (and everything, on the warp path) goes through the
  // shuffle-based kernel.
  const u64 groups = shared_path ? (n / (vgpu::kWarpSize * len)) : 0;
  const u64 first_tail_subrange = groups * vgpu::kWarpSize;

  if (groups > 0) {
    const u32 pitch = opts.shared_padding ? 33u : 32u;
    const u64 shared_per_warp = static_cast<u64>(len) * pitch * sizeof(K);
    const u32 warps_per_cta = 8;
    auto cfg = acc.device().launch_for_warp_items(
        groups, "delegate_shared", warps_per_cta,
        shared_per_warp * warps_per_cta);
    acc.launch(cfg, [&](vgpu::CtaCtx& cta) {
      cta.for_each_warp([&](vgpu::Warp& w) {
        auto sh = cta.shared().alloc<K>(len * pitch);
        for (u64 g = w.global_id(); g < groups; g += w.grid_warps()) {
          const u64 sid0 = g * vgpu::kWarpSize;
          const u64 base = sid0 * len;
          // (i) Coalesced load of 32 subranges, scattered into the padded
          // [element][subrange] shared layout.
          const u64 total = vgpu::kWarpSize * len;
          for (u64 off = 0; off < total; off += vgpu::kWarpSize) {
            auto vals = w.load_coalesced(v, base + off);
            sh.warp_scatter(
                vgpu::kWarpSize,
                [&](u32 l) {
                  const u64 flat = off + l;
                  return (flat % len) * pitch + flat / len;
                },
                vals);
          }
          // (ii) Strided compute: lane t walks subrange t out of shared
          // memory — no shuffles at all.
          vgpu::LaneArray<detail::LaneTopBeta<K>> tops{};
          for (u64 e = 0; e < len; ++e) {
            auto row = sh.warp_gather(vgpu::kWarpSize, [&](u32 l) {
              return e * pitch + l;
            });
            for (u32 l = 0; l < vgpu::kWarpSize; ++l)
              tops[l].insert(row[l], beta);
          }
          // (iii) Coalesced emission: the 32*beta delegate slots of this
          // group are contiguous in the SoA delegate arrays.
          const u64 out_base = sid0 * beta;
          const u64 slots = vgpu::kWarpSize * beta;
          const u64 real = std::min<u64>(beta, len);
          for (u64 off = 0; off < slots; off += vgpu::kWarpSize) {
            vgpu::LaneArray<K> ks{};
            vgpu::LaneArray<u32> ss{};
            const u32 active = static_cast<u32>(
                std::min<u64>(vgpu::kWarpSize, slots - off));
            for (u32 l = 0; l < active; ++l) {
              const u64 flat = off + l;
              const u64 s_local = flat / beta;
              const u64 j = flat % beta;
              if (j < real) {
                ks[l] = tops[s_local].best[j];
                ss[l] = static_cast<u32>(sid0 + s_local);
              } else {
                ks[l] = K{};
                ss[l] = kInvalidSid;
              }
            }
            w.store_coalesced(dkeys, out_base + off, ks, active);
            if (emit_sids) w.store_coalesced(dsids, out_base + off, ss, active);
          }
        }
      });
    });
  }

  if (first_tail_subrange < S) {
    // Warp-centric path: one warp per subrange, shuffle-based extraction.
    // Each CTA takes contiguous tiles of subranges, an even split of the
    // subranges over the grid capped at kMaxTile. Optimized, the tile's
    // delegates are staged in shared memory and flushed coalesced.
    constexpr u64 kMaxTile = 256;  // 12 KB at beta 4 with u64 keys and sids
    const u64 tail_count = S - first_tail_subrange;
    auto cfg = acc.device().launch_for_warp_items(tail_count, "delegate_warp");
    const u64 tile = std::min<u64>(
        kMaxTile, (tail_count + cfg.num_ctas - 1) / cfg.num_ctas);
    const bool staged = opts.optimized;
    if (staged)
      cfg.shared_bytes =
          tile * beta * (sizeof(K) + (emit_sids ? sizeof(u32) : 0));
    acc.launch(cfg, [&](vgpu::CtaCtx& cta) {
      vgpu::SharedSpan<K> tile_keys;
      vgpu::SharedSpan<u32> tile_sids;
      if (staged) tile_keys = cta.shared().alloc<K>(tile * beta);
      if (staged && emit_sids) tile_sids = cta.shared().alloc<u32>(tile * beta);
      for (u64 t0 = cta.cta_id() * tile; t0 < tail_count;
           t0 += cta.num_ctas() * tile) {
        const u64 count = std::min(tile, tail_count - t0);
        const u64 s0 = first_tail_subrange + t0;
        // Each warp takes a contiguous run of the tile's subranges: the host
        // runs a CTA's warps one after another, so it reads the tile in
        // address order.
        const u64 per_warp =
            (count + cta.warps_per_cta() - 1) / cta.warps_per_cta();
        cta.for_each_warp([&](vgpu::Warp& w) {
          const u64 first = (w.global_id() % cta.warps_per_cta()) * per_warp;
          const u64 last = std::min(count, first + per_warp);
          for (u64 j = first; j < last; ++j) {
            const u64 s = s0 + j;
            const u64 begin = s * len;
            const u64 real_len = std::min(len, n - begin);
            vgpu::LaneArray<detail::LaneTopBeta<K>> tops{};
            w.scan_coalesced(v, begin, real_len, [&](u32 lane, K x) {
              tops[lane].insert(x, beta);
            });
            detail::emit_warp_delegates(
                w, tops, beta, std::min<u64>(beta, real_len),
                static_cast<u32>(s), [&](u32 r, K key, u32 sid) {
                  if (staged) {
                    tile_keys.st(j * beta + r, key);
                    if (emit_sids) tile_sids.st(j * beta + r, sid);
                  } else {
                    w.st(dkeys, s * beta + r, key);
                    if (emit_sids) w.st(dsids, s * beta + r, sid);
                  }
                });
          }
        });
        if (!staged) continue;
        // After the CTA barrier, warp 0 writes the tile's slots, which are
        // contiguous in the delegate arrays.
        vgpu::Warp w = cta.warp(0);
        const u64 slots = count * beta;
        for (u64 off = 0; off < slots; off += vgpu::kWarpSize) {
          const u32 active =
              static_cast<u32>(std::min<u64>(vgpu::kWarpSize, slots - off));
          const auto at = [off](u32 l) { return off + l; };
          w.store_coalesced(dkeys, s0 * beta + off,
                            tile_keys.warp_gather(active, at), active);
          if (emit_sids)
            w.store_coalesced(dsids, s0 * beta + off,
                              tile_sids.warp_gather(active, at), active);
        }
      }
    });
  }
  return dv;
}

}  // namespace drtopk::core
