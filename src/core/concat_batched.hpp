// Stage 3 (Rule 2 filtering + Rule 3 subrange skipping) of one selection
// over a delegate vector as ONE launch. A single query
// (core::dr_topk_from_delegates) and an admission group (serve::TopkServer's
// setup, which runs stage 3 once at its largest riding k and answers every
// member from that one candidate set) both call it:
//
//   concat_stage3     one pass over the delegate keys, 32 subranges per
//                     warp work item (one coalesced chunk load). In the
//                     same launch, the taken delegates of partially taken
//                     subranges are staged in shared memory and land in
//                     the candidate span with one cursor reservation per
//                     staged batch, and the qualified (fully taken)
//                     subranges are queued per CTA and streamed with
//                     Rule 2 filtering, round-robin over the CTA's warps.
//   stage3_capacity   the candidate span, sized BEFORE the launch by a
//                     closed-form bound on the delegates the threshold
//                     takes. A reservation past it throws std::logic_error
//                     and writes nothing, so there is no retry path.
//   concat_qualified  the qualified-subrange streaming on its own — the
//                     legacy three-pass stage 3 still uses it.
//
// The threshold is final (the Section 4.3 guard decides inside the first
// top-k, and a group's kappa comes exact from its batched first top-k), so
// nothing is ever classified twice. With `rule2 = false` (a recall
// target's per-partition mode) every taken subrange is partial: the
// candidates are exactly the delegates >= kappa. Delegate validity is
// analytic — the real delegates are a prefix of length
// min(beta, subrange_len) (see DelegateVector) — so the pass never loads
// the sid array. Candidate ORDER depends on reservation interleavings;
// every consumer sorts.
#pragma once

#include <array>
#include <stdexcept>

#include "core/delegate.hpp"

namespace drtopk::core {

/// Per-CTA shared-memory staging capacity of stage 3, in entries: the
/// queued qualified sids (u32) and the staged partial delegates (keys).
/// A CTA queues at most one 32-subrange chunk per warp between two
/// streaming phases, so the sid queue never overflows.
inline constexpr u32 kConcatStageCap = 512;

/// Reserves `count` candidate slots with one atomic on `cursor[0]` and
/// returns the first. A reservation that ends past the span's `capacity`
/// means the caller's stage3_capacity bound was broken: it throws before
/// anything is written.
inline u64 reserve_candidates(vgpu::Warp& w, std::span<u64> cursor,
                              u64 count, u64 capacity) {
  const u64 base = w.atomic_add(cursor, 0, count);
  if (base + count > capacity)
    throw std::logic_error("stage 3: candidate reservation past the span");
  return base;
}

/// Streams one subrange [begin, begin+slen) of `v` through the warp,
/// keeps elements >= kappa (all of them when !filter), and appends the
/// survivors to `cand` with one warp-aggregated cursor reservation per
/// 32-element batch. Shared by the one-pass and legacy concatenations.
template <class K>
void append_filtered_subrange(vgpu::Warp& w, std::span<const K> v, u64 begin,
                              u64 slen, K kappa, bool filter,
                              std::span<K> cand, std::span<u64> cursor) {
  u64 pos = begin;
  const u64 end = begin + slen;
  while (pos < end) {
    const u32 active =
        static_cast<u32>(std::min<u64>(vgpu::kWarpSize, end - pos));
    auto vals = w.load_coalesced(v, pos, active);
    vgpu::LaneArray<u8> keep{};
    for (u32 l = 0; l < active; ++l)
      keep[l] = (!filter || vals[l] >= kappa) ? 1 : 0;
    const u32 mask = w.ballot(keep, active);
    const u32 c = std::popcount(mask);
    if (c) {
      const u64 base = reserve_candidates(w, cursor, c, cand.size());
      vgpu::LaneArray<K> packed{};
      u32 j = 0;
      for (u32 l = 0; l < active; ++l)
        if (keep[l]) packed[j++] = vals[l];
      w.store_coalesced(cand, base, packed, c);
    }
    pos += active;
  }
}

/// Candidate capacity of one stage-3 pass over n keys in subranges of
/// 2^alpha with beta delegates each, given `taken_bound` >= the number of
/// delegates the threshold takes. Partial subranges contribute at most
/// taken_bound delegates. A subrange qualifies only when all of its
/// min(beta, 2^alpha) real delegates are taken (only the one short tail
/// subrange can have fewer), so at most taken_bound / min(beta, 2^alpha)
/// + 1 subranges qualify, each streaming at most 2^alpha candidates.
/// Every candidate is a distinct element, so n caps it all; without
/// Rule 2 (`rule2 = false`) nothing qualifies. What the callers know of
/// the taken count: at most k - 1 strictly above an exact k-th delegate
/// (tie-aware), the count topk::radix_kth_flag reports for a relaxed
/// prefix, and |D| for the inclusive rules and recall targets. The one
/// sizing rule of every concat_stage3 call.
inline u64 stage3_capacity(u64 n, u32 beta, int alpha, u64 taken_bound,
                           bool rule2) {
  if (!rule2) return std::min(n, taken_bound);
  const u64 len = u64{1} << alpha;
  const u64 subranges = (n + len - 1) >> alpha;
  const u64 qualified = std::min(
      subranges, taken_bound / std::min<u64>(beta, len) + 1);
  return std::min(n, taken_bound + qualified * len);
}

/// What one stage-3 pass found.
struct Stage3Counts {
  u64 qualified = 0;    ///< subranges streamed (Rule 3 survivors)
  u64 taken_total = 0;  ///< delegates >= kappa
  u64 cand_count = 0;   ///< candidates written: a prefix of the span
};

/// ONE launch runs stage 3 of the threshold `kappa` (kappa + 1 for the
/// tie-aware rule) over the delegate keys of `v`: it classifies every
/// subrange and writes its candidates into `cand`, which the caller sized
/// with stage3_capacity. Work items are 32-subrange chunks; each warp of a
/// CTA classifies one chunk, then the CTA streams the chunks' qualified
/// subranges (filtered against kappa unless !filter) round-robin over its
/// warps, so a chunk of 32 qualified subranges is not left to one warp.
/// Partial subranges' taken delegates are staged per CTA and flushed with
/// one cursor reservation per staged batch; each CTA adds its taken and
/// qualified totals with one atomic each.
template <class K>
Stage3Counts concat_stage3(topk::Accum& acc, std::span<const K> v,
                           std::span<const K> dkeys, u32 beta, int alpha,
                           K kappa, bool filter, bool rule2,
                           std::span<K> cand) {
  const u64 n = v.size();
  const u64 len = u64{1} << alpha;
  const u64 S = (n + len - 1) >> alpha;
  const u64 chunks = (S + vgpu::kWarpSize - 1) / vgpu::kWarpSize;

  // Global cells: [0] candidate cursor, [1] taken total, [2] qualified.
  std::array<u64, 3> cells{};
  std::span<u64> cspan(cells);

  const vgpu::Launch cfg = acc.device().launch_for_warp_items(
      chunks, "concat_stage3", 8,
      u64{kConcatStageCap} * (sizeof(u32) + sizeof(K)));
  assert(cfg.warps_per_cta * vgpu::kWarpSize <= kConcatStageCap);
  const u32 wpc = cfg.warps_per_cta;
  acc.launch(cfg, [&](vgpu::CtaCtx& cta) {
    auto stage_q = cta.shared().alloc<u32>(kConcatStageCap);
    auto stage_d = cta.shared().alloc<K>(kConcatStageCap);
    u32 qn = 0, dn = 0;
    u64 cta_taken = 0, cta_qualified = 0;

    const auto flush_delegates = [&](vgpu::Warp& w) {
      if (dn == 0) return;
      const u64 base = reserve_candidates(w, cspan, dn, cand.size());
      for (u32 pos = 0; pos < dn; pos += vgpu::kWarpSize) {
        const u32 a = std::min<u32>(vgpu::kWarpSize, dn - pos);
        auto vals = stage_d.warp_gather(a, [&](u32 l) { return u64{pos} + l; });
        w.store_coalesced(cand, base + pos, vals, a);
      }
      dn = 0;
    };

    // Warps of a CTA run warp-synchronously between barriers, so the
    // staging cursors live in registers of the leader. Each round, warp w
    // classifies chunk `first + w`; the barrier after it hands the queued
    // qualified subranges to every warp of the CTA.
    const u64 cta_first = u64{cta.cta_id()} * wpc;
    for (u64 first = cta_first; first < chunks; first += cta.grid_warps()) {
      cta.for_each_warp([&](vgpu::Warp& w) {
        const u64 i = first + (w.global_id() - cta_first);
        if (i >= chunks) return;
        const u64 s0 = i * vgpu::kWarpSize;
        const u32 m = static_cast<u32>(std::min<u64>(vgpu::kWarpSize, S - s0));

        // Coalesced chunk load of the m*beta delegate keys.
        std::array<K, vgpu::kWarpSize * kMaxBeta> keys{};
        const u64 kbase = s0 * beta;
        const u32 total = m * beta;
        for (u32 off = 0; off < total; off += vgpu::kWarpSize) {
          const u32 a = std::min<u32>(vgpu::kWarpSize, total - off);
          auto vals = w.load_coalesced(dkeys, kbase + off, a);
          for (u32 l = 0; l < a; ++l) keys[off + l] = vals[l];
        }

        // Classify: fully taken subranges queue for streaming; the taken
        // delegates of the others are packed for the delegate stage.
        std::array<K, vgpu::kWarpSize * kMaxBeta> out{};
        u32 pc = 0;
        for (u32 l = 0; l < m; ++l) {
          const u64 s = s0 + l;
          const u32 real = static_cast<u32>(
              std::min<u64>(beta, std::min(len, n - s * len)));
          const K* d = keys.data() + u64{l} * beta;
          u32 t = 0;
          for (u32 j = 0; j < real; ++j)
            if (d[j] >= kappa) ++t;
          if (t == 0) continue;
          cta_taken += t;
          if (rule2 && t == real) {
            stage_q.st(qn++, static_cast<u32>(s));
            ++cta_qualified;
          } else {
            for (u32 j = 0; j < real; ++j)
              if (d[j] >= kappa) out[pc++] = d[j];
          }
        }
        if (pc == 0) return;
        if (dn + pc > kConcatStageCap) flush_delegates(w);
        for (u32 pos = 0; pos < pc; pos += vgpu::kWarpSize) {
          const u32 a = std::min<u32>(vgpu::kWarpSize, pc - pos);
          vgpu::LaneArray<K> lanes{};
          for (u32 l = 0; l < a; ++l) lanes[l] = out[pos + l];
          stage_d.warp_scatter(
              a, [&](u32 l) { return u64{dn} + pos + l; }, lanes);
        }
        dn += pc;
      });

      if (qn == 0) continue;
      cta.for_each_warp([&](vgpu::Warp& w) {
        for (u64 j = w.global_id() - cta_first; j < qn; j += wpc) {
          const u64 begin = u64{stage_q.ld(j)} * len;
          append_filtered_subrange(w, v, begin, std::min(len, n - begin),
                                   kappa, filter, cand, cspan);
        }
      });
      qn = 0;
    }

    // Epilogue: the leader warp drains the delegate stage and adds the
    // CTA's totals — a fixed handful of atomics per CTA.
    vgpu::Warp w = cta.warp(0);
    flush_delegates(w);
    if (cta_taken) w.atomic_add(cspan, 1, cta_taken);
    if (cta_qualified) w.atomic_add(cspan, 2, cta_qualified);
  });

  return {cells[2], cells[1], cells[0]};
}

/// Warp-centric concatenation of the qualified subranges with Rule 2
/// filtering (elements >= kappa) and warp-aggregated cursor reservation —
/// one atomic per surviving 32-element batch. The legacy three-pass
/// stage 3's last pass (DrTopkConfig::fused_concat = false).
template <class K>
void concat_qualified(topk::Accum& acc, std::span<const K> v, u64 len,
                      K kappa, bool filter, std::span<const u32> qualified,
                      u64 q_count, std::span<K> cand, std::span<u64> cursor) {
  if (q_count == 0) return;
  const u64 n = v.size();
  auto cfg = acc.device().launch_for_warp_items(q_count, "concat");
  acc.launch(cfg, [&](vgpu::CtaCtx& cta) {
    cta.for_each_warp([&](vgpu::Warp& w) {
      for (u64 i = w.global_id(); i < q_count; i += w.grid_warps()) {
        const u32 sid = w.ld(qualified, i);
        const u64 begin = static_cast<u64>(sid) * len;
        append_filtered_subrange(w, v, begin, std::min(len, n - begin),
                                 kappa, filter, cand, cursor);
      }
    });
  });
}

}  // namespace drtopk::core
