// Fused single-pass stage 3: subrange classification + concatenation.
//
// The original stage 3 reads the delegate vector twice — once to classify
// subranges (with up to three global atomics per taken subrange), and once
// more to emit the taken delegates of partially-taken subranges (one
// atomic per subrange, divergent single-element stores). The fused design
// reads delegates once and communicates through a compact per-subrange
// taken-count array:
//
//   classify_subranges_fused   ONE pass over the delegate keys, 32 subranges
//                              per warp iteration (coalesced chunk loads, ~8x
//                              fewer load transactions than per-subrange
//                              loads). Writes taken[s] for every subrange and
//                              builds the qualified / partial sid lists
//                              through per-CTA shared-memory staging: one
//                              global cursor reservation per staged batch
//                              and two counter atomics per CTA, instead of
//                              per-subrange atomics.
//   concat_candidates_fused    ONE launch for both candidate sources:
//                              partial-list batches (gather each listed
//                              subrange's beta delegates, keep those >=
//                              kappa, one warp-aggregated reservation per
//                              32 subranges) and qualified subranges
//                              (warp-centric streaming with Rule 2
//                              filtering). Replaces two kernel launches.
//   concat_qualified           the qualified-subrange half on its own —
//                              the legacy three-pass path still uses it.
//
// Every pass runs once per query: the threshold it receives is final. The
// Section 4.3 relaxation guard decides inside the first top-k
// (topk::radix_kth_flag's taken-count bound), before classification.
//
// Classification is policy-aware: with `rule2 = false` (approximate
// per-partition mode) every taken subrange lands on the partial list
// regardless of how many of its delegates cleared kappa, so
// concatenation gathers ONLY taken delegates — no subrange is ever
// streamed from the input vector and the candidates are exactly the
// delegates >= kappa — each subrange's top beta, with (subrange count,
// beta) sized by the recall budget (core::approx_geometry).
//
// Delegate validity is analytic: within a subrange's beta slots the real
// delegates are a prefix of length min(beta, subrange_len) (see
// DelegateVector), so classification never loads the sid array — the
// pipeline doesn't even materialize it (ConstructOpts::emit_sids).
#pragma once

#include "core/delegate.hpp"

namespace drtopk::core {

/// Per-CTA staged entries for the qualified/partial lists (u32 sids). Two
/// buffers of this size fit comfortably in a CTA's shared memory and make
/// global cursor reservations rare.
inline constexpr u32 kConcatStageCap = 512;

/// Result of the fused classification pass. The spans are caller-allocated
/// workspace scratch: `taken` holds one count per subrange, the lists hold
/// up to S sids each.
struct ConcatClassification {
  std::span<u8> taken;       ///< per-subrange taken count (<= beta <= 4)
  std::span<u32> qualified;  ///< sids with taken == real (Rule 3 survivors)
  std::span<u32> partial;    ///< sids with 0 < taken < real
  u64 qualified_count = 0;
  u64 partial_count = 0;
  u64 partial_taken = 0;  ///< sum of taken over partial subranges
  u64 taken_total = 0;    ///< all delegates >= kappa
};

/// Streams one subrange [begin, begin+slen) of `v` through the warp,
/// keeps elements >= kappa (all of them when !filter), and appends the
/// survivors to `cand` with one warp-aggregated cursor reservation per
/// 32-element batch. Shared by the fused and legacy concatenations.
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

/// One pass over the delegate keys: fills cls.taken and the qualified /
/// partial lists, and the four aggregate counters. With `rule2 = false`
/// (approximate fidelity) no subrange ever qualifies — taken subranges all
/// go to the partial list, so only delegates become candidates.
template <class K>
void classify_subranges_fused(topk::Accum& acc, std::span<const K> dkeys,
                              u64 S, u32 beta, int alpha, u64 n, K kappa,
                              ConcatClassification& cls, bool rule2 = true) {
  assert(cls.taken.size() >= S && cls.qualified.size() >= S &&
         cls.partial.size() >= S);
  const u64 len = u64{1} << alpha;
  const u64 chunks = (S + vgpu::kWarpSize - 1) / vgpu::kWarpSize;

  // Global cells: [0] qualified cursor, [1] partial cursor,
  // [2] partial-taken total, [3] taken total.
  std::array<u64, 4> cells{};
  std::span<u64> cspan(cells.data(), cells.size());

  auto cfg = acc.device().launch_for_warp_items(
      chunks, "classify_fused", 8, u64{2} * kConcatStageCap * sizeof(u32));
  acc.launch(cfg, [&](vgpu::CtaCtx& cta) {
    // Block-aggregated list emission: warps append sids to shared staging;
    // a full (or final) buffer is flushed with ONE global reservation plus
    // coalesced stores. Warps of a CTA run warp-synchronously between
    // barriers, so the staging cursors live in registers of the leader.
    auto stage_q = cta.shared().alloc<u32>(kConcatStageCap);
    auto stage_p = cta.shared().alloc<u32>(kConcatStageCap);
    u32 qn = 0, pn = 0;
    u64 cta_taken = 0, cta_partial_taken = 0;

    const auto flush = [&](vgpu::Warp& w, vgpu::SharedSpan<u32>& stage,
                           u32& count, u64 cursor_cell,
                           std::span<u32> out_list) {
      if (count == 0) return;
      const u64 base =
          w.atomic_add(cspan, cursor_cell, static_cast<u64>(count));
      for (u32 pos = 0; pos < count; pos += vgpu::kWarpSize) {
        const u32 m = std::min<u32>(vgpu::kWarpSize, count - pos);
        auto vals =
            stage.warp_gather(m, [&](u32 l) { return u64{pos} + l; });
        w.store_coalesced(out_list, base + pos, vals, m);
      }
      count = 0;
    };

    cta.for_each_warp([&](vgpu::Warp& w) {
      for (u64 c = w.global_id(); c < chunks; c += w.grid_warps()) {
        const u64 s0 = c * vgpu::kWarpSize;
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
        w.store_coalesced(cls.taken, s0, tarr, m);

        if (qc) {
          if (qn + qc > kConcatStageCap) flush(w, stage_q, qn, 0, cls.qualified);
          for (u32 l = 0; l < m; ++l)
            if (isq[l]) stage_q.st(qn++, static_cast<u32>(s0 + l));
        }
        if (pc) {
          if (pn + pc > kConcatStageCap) flush(w, stage_p, pn, 1, cls.partial);
          for (u32 l = 0; l < m; ++l)
            if (isp[l]) stage_p.st(pn++, static_cast<u32>(s0 + l));
        }
      }
    });

    // Block-level epilogue: the leader warp drains the staging buffers and
    // the CTA flushes its two scalar totals — a fixed handful of atomics
    // per CTA regardless of how many subranges it classified.
    {
      vgpu::Warp w = cta.warp(0);
      flush(w, stage_q, qn, 0, cls.qualified);
      flush(w, stage_p, pn, 1, cls.partial);
    }
    if (cta_taken) cta.atomic_add(cspan, 3, cta_taken);
    if (cta_partial_taken) cta.atomic_add(cspan, 2, cta_partial_taken);
  });

  cls.qualified_count = cells[0];
  cls.partial_count = cells[1];
  cls.partial_taken = cells[2];
  cls.taken_total = cells[3];
}

/// Single-launch candidate concatenation: one kernel covers BOTH candidate
/// sources. Work items [0, pchunks) are 32-entry batches of the partial
/// list — each listed subrange's beta delegates are gathered (one sector
/// per subrange), re-thresholded, and written after one warp-aggregated
/// reservation per batch. Work items [pchunks, pchunks + q_count) are
/// qualified subranges — streamed from the input vector with Rule 2
/// filtering and one reservation per surviving 32-element batch. The two
/// sources were separate kernel launches before; at serving rates the
/// saved launch is a measurable share of a query's simulated latency.
template <class K>
void concat_candidates_fused(topk::Accum& acc, std::span<const K> v,
                             std::span<const K> dkeys, u32 beta, int alpha,
                             K kappa, bool filter,
                             std::span<const u32> qualified, u64 q_count,
                             std::span<const u32> partial, u64 partial_count,
                             std::span<K> cand, std::span<u64> cursor) {
  if (q_count == 0 && partial_count == 0) return;
  const u64 n = v.size();
  const u64 len = u64{1} << alpha;
  const u64 pchunks =
      (partial_count + vgpu::kWarpSize - 1) / vgpu::kWarpSize;
  const u64 items = pchunks + q_count;
  auto cfg = acc.device().launch_for_warp_items(items, "concat_fused");
  acc.launch(cfg, [&](vgpu::CtaCtx& cta) {
    cta.for_each_warp([&](vgpu::Warp& w) {
      for (u64 i = w.global_id(); i < items; i += w.grid_warps()) {
        if (i < pchunks) {
          // Partial-list batch: taken delegates of 32 listed subranges.
          const u64 p0 = i * vgpu::kWarpSize;
          const u32 m = static_cast<u32>(
              std::min<u64>(vgpu::kWarpSize, partial_count - p0));
          auto sids = w.load_coalesced(partial, p0, m);
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
            w.store_coalesced(cand, base + pos, lanes, a);
          }
          continue;
        }
        // Qualified subrange: stream + filter + warp-aggregated append.
        const u32 sid = w.ld(qualified, i - pchunks);
        const u64 begin = static_cast<u64>(sid) * len;
        append_filtered_subrange(w, v, begin, std::min(len, n - begin),
                                 kappa, filter, cand, cursor);
      }
    });
  });
}

/// Warp-centric concatenation of the qualified subranges with Rule 2
/// filtering (elements >= kappa) and warp-aggregated cursor reservation —
/// one atomic per surviving 32-element batch.
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
