// Stage 3 (Rule 2/3 classification + concatenation) of one selection over
// a delegate vector as ONE classify + ONE concat launch. A single query
// (core::dr_topk_from_delegates) and an admission group (serve::TopkServer's
// setup, which classifies once at its largest riding k and answers every
// member from that one candidate set) both pass exactly one segment:
//
//   classify_subranges_batched   one pass over the delegate keys, 32
//                                subranges per warp iteration (coalesced
//                                chunk loads). Writes taken[s] and builds
//                                the qualified / partial sid lists through
//                                per-CTA shared-memory staging: one global
//                                cursor reservation per staged batch and a
//                                few counter atomics per CTA.
//   concat_candidates_batched    one launch over the partial-list batches
//                                (gather each listed subrange's beta
//                                delegates, keep those >= kappa) and the
//                                qualified subranges (stream with Rule 2
//                                filtering); candidates land in the
//                                segment's span through one cursor.
//   concat_qualified             the qualified-subrange half on its own —
//                                the legacy three-pass path still uses it.
//
// The segment's kappa is final (the Section 4.3 guard decides inside the
// first top-k, and a group's kappa comes exact from its batched first
// top-k), so nothing is ever classified twice. With `rule2 = false` (a
// recall target's per-partition mode) every taken subrange is partial:
// the candidates are exactly the delegates >= kappa. Delegate validity is
// analytic — the real delegates are a prefix of length
// min(beta, subrange_len) (see DelegateVector) — so classification never
// loads the sid array. Candidate ORDER depends on reservation
// interleavings; every consumer sorts.
#pragma once

#include <array>

#include "core/delegate.hpp"

namespace drtopk::core {

/// Per-CTA staged entries for the qualified/partial lists (u32 sids). Two
/// buffers of this size fit comfortably in a CTA's shared memory and make
/// global cursor reservations rare.
inline constexpr u32 kConcatStageCap = 512;

/// Streams one subrange [begin, begin+slen) of `v` through the warp,
/// keeps elements >= kappa (all of them when !filter), and appends the
/// survivors to `cand` with one warp-aggregated cursor reservation per
/// 32-element batch. Shared by the batched and legacy concatenations.
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
      const u64 base = w.atomic_add(cursor, 0, static_cast<u64>(c));
      vgpu::LaneArray<K> packed{};
      u32 j = 0;
      for (u32 l = 0; l < active; ++l)
        if (keep[l]) packed[j++] = vals[l];
      w.store_coalesced(cand, base, packed, c);
    }
    pos += active;
  }
}

/// The one selection problem of a stage-3 launch pair: its threshold, its
/// caller-allocated per-subrange scratch, its classification outputs, and
/// (for the concat pass) its caller-sized candidate span. Scratch spans
/// must each hold >= S entries.
template <class K>
struct BatchedConcatSegment {
  K kappa{};                 ///< the stage-2 threshold (kappa + 1 tie-aware)
  std::span<u8> taken;       ///< per-subrange taken count (scratch, >= S)
  std::span<u32> qualified;  ///< Rule-3 fully-taken sid list (scratch)
  std::span<u32> partial;    ///< partially-taken sid list (scratch)
  u64 qualified_count = 0;
  u64 partial_count = 0;
  u64 partial_taken = 0;     ///< sum of taken over partial subranges
  u64 taken_total = 0;       ///< delegates >= kappa
  /// Candidate output (concat pass): the caller allocates
  /// batched_concat_capacity() after classification.
  std::span<K> cand;
  u64 cand_count = 0;
};

/// Candidate capacity for one classified segment: every partial taken
/// delegate plus the full length of every qualified subrange. The only
/// subrange that can be short is the last one; its cached taken count
/// tells whether it qualified. Without qualified subranges (always so
/// under `rule2 = false`) a fully taken tail is a partial one and needs no
/// correction. Shared by the pipeline, the serving setup and the tests so
/// the sizing rule cannot drift.
template <class K>
u64 batched_concat_capacity(const BatchedConcatSegment<K>& seg, u64 S,
                            u32 beta, int alpha, u64 n) {
  const u64 len = u64{1} << alpha;
  u64 qual_len = seg.qualified_count * len;
  if (seg.qualified_count > 0 && S > 0) {
    const u64 tail_len = n - (S - 1) * len;
    const u64 tail_real = std::min<u64>(beta, tail_len);
    if (tail_len < len && tail_real > 0 && seg.taken[S - 1] == tail_real)
      qual_len -= len - tail_len;
  }
  return seg.partial_taken + qual_len;
}

/// ONE launch classifies every subrange of the delegate vector against the
/// segment's kappa. Work items are 32-subrange chunks; per-CTA staging
/// batches the qualified/partial list entries, and each CTA reaches the
/// global cells with one cursor reservation per staged batch and a few
/// counter atomics. With `rule2 = false` (approximate fidelity) no subrange
/// ever qualifies — taken subranges all go to the partial list, so only
/// delegates become candidates.
template <class K>
void classify_subranges_batched(topk::Accum& acc, std::span<const K> dkeys,
                                u64 S, u32 beta, int alpha, u64 n,
                                BatchedConcatSegment<K>& seg,
                                bool rule2 = true) {
  if (S == 0) return;
  const u64 len = u64{1} << alpha;
  const u64 chunks = (S + vgpu::kWarpSize - 1) / vgpu::kWarpSize;
  const K kappa = seg.kappa;

  // Global cells: [0] qualified cursor, [1] partial cursor, [2] partial-
  // taken total, [3] taken total.
  std::array<u64, 4> cells{};
  std::span<u64> cspan(cells);

  auto cfg = acc.device().launch_for_warp_items(
      chunks, "classify_batched", 8, u64{2} * kConcatStageCap * sizeof(u32));
  acc.launch(cfg, [&](vgpu::CtaCtx& cta) {
    // Staged entries are flushed (one global reservation + coalesced
    // stores) on capacity and at the epilogue. Warps of a CTA run
    // warp-synchronously between barriers, so the staging cursors live in
    // registers of the leader.
    auto stage_q = cta.shared().alloc<u32>(kConcatStageCap);
    auto stage_p = cta.shared().alloc<u32>(kConcatStageCap);
    u32 qn = 0, pn = 0;
    u64 cta_taken = 0, cta_partial_taken = 0;

    const auto flush_list = [&](vgpu::Warp& w, vgpu::SharedSpan<u32>& stage,
                                u32& count, u64 cursor_cell,
                                std::span<u32> out_list) {
      if (count == 0) return;
      const u64 base =
          w.atomic_add(cspan, cursor_cell, static_cast<u64>(count));
      for (u32 pos = 0; pos < count; pos += vgpu::kWarpSize) {
        const u32 m = std::min<u32>(vgpu::kWarpSize, count - pos);
        auto vals = stage.warp_gather(m, [&](u32 l) { return u64{pos} + l; });
        w.store_coalesced(out_list, base + pos, vals, m);
      }
      count = 0;
    };

    cta.for_each_warp([&](vgpu::Warp& w) {
      for (u64 i = w.global_id(); i < chunks; i += w.grid_warps()) {
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

        vgpu::LaneArray<u8> tarr{};
        vgpu::LaneArray<u8> isq{}, isp{};
        u32 qc = 0, pc = 0;
        for (u32 l = 0; l < m; ++l) {
          const u64 s = s0 + l;
          const u32 real = static_cast<u32>(
              std::min<u64>(beta, std::min(len, n - s * len)));
          u32 t = 0;
          for (u32 j = 0; j < real; ++j)
            if (keys[l * beta + j] >= kappa) ++t;
          tarr[l] = static_cast<u8>(t);
          if (t == 0) continue;
          cta_taken += t;
          if (rule2 && t == real) {
            isq[l] = 1;
            ++qc;
          } else {
            isp[l] = 1;
            ++pc;
            cta_partial_taken += t;
          }
        }
        w.store_coalesced(seg.taken, s0, tarr, m);

        if (qc) {
          if (qn + qc > kConcatStageCap)
            flush_list(w, stage_q, qn, 0, seg.qualified);
          for (u32 l = 0; l < m; ++l)
            if (isq[l]) stage_q.st(qn++, static_cast<u32>(s0 + l));
        }
        if (pc) {
          if (pn + pc > kConcatStageCap)
            flush_list(w, stage_p, pn, 1, seg.partial);
          for (u32 l = 0; l < m; ++l)
            if (isp[l]) stage_p.st(pn++, static_cast<u32>(s0 + l));
        }
      }
    });

    // Epilogue: the leader warp drains whatever is still staged — a fixed
    // handful of atomics per CTA regardless of how many subranges it
    // classified.
    vgpu::Warp w = cta.warp(0);
    flush_list(w, stage_q, qn, 0, seg.qualified);
    flush_list(w, stage_p, pn, 1, seg.partial);
    if (cta_partial_taken) w.atomic_add(cspan, 2, cta_partial_taken);
    if (cta_taken) w.atomic_add(cspan, 3, cta_taken);
  });

  seg.qualified_count = cells[0];
  seg.partial_count = cells[1];
  seg.partial_taken = cells[2];
  seg.taken_total = cells[3];
}

/// ONE launch concatenates the segment's candidates: the partial-list
/// batches followed by the qualified subranges form the work-item space,
/// and every candidate lands in the segment's span through one cursor.
/// Partial batches gather + re-threshold their listed subranges' delegates
/// (one sector per subrange); qualified items stream their subrange from
/// the input with Rule 2 filtering. Fills cand_count.
template <class K>
void concat_candidates_batched(topk::Accum& acc, std::span<const K> v,
                               std::span<const K> dkeys, u32 beta, int alpha,
                               bool filter, BatchedConcatSegment<K>& seg) {
  const u64 n = v.size();
  const u64 len = u64{1} << alpha;
  const K kappa = seg.kappa;
  const u64 pchunks =
      (seg.partial_count + vgpu::kWarpSize - 1) / vgpu::kWarpSize;
  const u64 items = pchunks + seg.qualified_count;
  if (items == 0) return;

  u64 count_cell = 0;
  std::span<u64> cursor(&count_cell, 1);

  auto cfg = acc.device().launch_for_warp_items(items, "concat_batched");
  acc.launch(cfg, [&](vgpu::CtaCtx& cta) {
    cta.for_each_warp([&](vgpu::Warp& w) {
      for (u64 i = w.global_id(); i < items; i += w.grid_warps()) {
        if (i < pchunks) {
          // Partial-list batch: taken delegates of 32 listed subranges.
          const u64 p0 = i * vgpu::kWarpSize;
          const u32 m = static_cast<u32>(
              std::min<u64>(vgpu::kWarpSize, seg.partial_count - p0));
          std::span<const u32> plist(seg.partial.data(), seg.partial.size());
          auto sids = w.load_coalesced(plist, p0, m);
          std::array<K, vgpu::kWarpSize * kMaxBeta> out{};
          u32 count = 0;
          for (u32 l = 0; l < m; ++l) {
            const u64 s = sids[l];
            const u32 real = static_cast<u32>(
                std::min<u64>(beta, std::min(len, n - s * len)));
            auto ks = w.load_coalesced(dkeys, s * beta, real);
            for (u32 j = 0; j < real; ++j)
              if (ks[j] >= kappa) out[count++] = ks[j];
          }
          if (count == 0) continue;
          const u64 base = w.atomic_add(cursor, 0, static_cast<u64>(count));
          for (u32 pos = 0; pos < count; pos += vgpu::kWarpSize) {
            const u32 a = std::min<u32>(vgpu::kWarpSize, count - pos);
            vgpu::LaneArray<K> lanes{};
            for (u32 l = 0; l < a; ++l) lanes[l] = out[pos + l];
            w.store_coalesced(seg.cand, base + pos, lanes, a);
          }
          continue;
        }
        // Qualified subrange: stream + filter + warp-aggregated append.
        std::span<const u32> qlist(seg.qualified.data(), seg.qualified.size());
        const u32 sid = w.ld(qlist, i - pchunks);
        const u64 begin = static_cast<u64>(sid) * len;
        append_filtered_subrange(w, v, begin, std::min(len, n - begin),
                                 kappa, filter, seg.cand, cursor);
      }
    });
  });

  seg.cand_count = count_cell;
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
