// Batched multi-segment top-k selection: one launch selects for N
// independent, query-id-tagged candidate segments.
//
// The Dr. Top-k pipeline ends with a second top-k over a small candidate
// vector. Under the serving engine one admission group produces *many* such
// vectors — and at serving rates each one's launch sequence costs more than
// its memory traffic (cost model: ~5 us launch overhead vs micro-second
// sorts). RadiK (arXiv:2501.14336) shows that batching many independent
// small selections into a single launch recovers exactly this overhead;
// this engine models that design on the virtual GPU:
//
//   * single-CTA path — one CTA per segment inside ONE launch: stage the
//     segment into the SM's shared memory (coalesced), bitonically sort it
//     there (the network is charged analytically, like topk/bitonic.hpp),
//     emit the top-k. A lone small input is the one-segment batch: the
//     core pipeline's first and second top-k take this path whenever their
//     input fits (DrTopkConfig::small_input_shared).
//   * multi-CTA path — segments larger than one SM's shared memory get a
//     two-level treatment: several CTAs each sort one shared-memory-sized
//     slice and keep its top-k prefix (any global top-k element is in its
//     slice's top-k), then a tiny cross-CTA merge CTA selects over the
//     concatenated prefixes. Two launches total for *all* such segments,
//     lifting the one-SM capacity cap by the slice count while staying in
//     the single-digit-launch regime.
//   * per-segment fallback — segments too large even for the two-level
//     path run the regular flag-radix engine, one at a time.
//
// Segments that view the *same* underlying span (many queries selecting
// over one shared delegate vector — "queries sharing a corpus") are
// coalesced into one problem: a single sort serves every k over that data,
// so N same-corpus selections cost one sort + N emissions instead of N
// sorts. Each segment keeps its own k / selection_only contract, so
// exactness is per query (cf. the grouping argument of arXiv:2412.04358).
//
// Ragged inputs are first-class: k is clamped to the segment width (the
// result holds min(k, |segment|) keys) and empty segments yield empty
// results — the serving layer's parity suite exercises both.
#pragma once

#include <unordered_map>
#include <vector>

#include "topk/topk.hpp"

namespace drtopk::topk {

/// One selection problem of a batch. `data` typically points into an arena
/// (the serving group's workspace); the engine only reads it.
template <class K>
struct BatchedSegment {
  std::span<const K> data;
  u64 k = 1;                    ///< clamped to data.size() internally
  u64 tag = 0;                  ///< caller id (query id) — carried, not used
  bool selection_only = false;  ///< emit only the k-th key
};

/// Per-batch output: each segment's selected keys plus path/launch
/// accounting (the serving layer's launch-count regression tests key off
/// `launches`).
template <class K>
struct BatchedResult {
  /// Per segment: min(k, |segment|) keys sorted descending (selection-only
  /// segments: just the k-th key; empty segments: empty).
  std::vector<std::vector<K>> keys;
  u64 launches = 0;      ///< kernel launches this call performed
  u64 single_cta = 0;    ///< problems served by the one-launch path
  u64 multi_cta = 0;     ///< problems served by the two-level path
  u64 fallback = 0;      ///< problems served per-segment
  u64 shared_sorts = 0;  ///< segments that rode another segment's sort
};

/// Elements of key type K that fit one CTA's shared-memory staging on `p`
/// — the single source of the one-SM capacity bound.
template <class K>
u64 batched_single_cap(const vgpu::GpuProfile& p) {
  return p.shared_bytes_per_sm / sizeof(K);
}

/// True when an n-element input of key type K fits the single-CTA path on
/// `p` — the core pipeline's gate for its small first/second top-k.
template <class K>
bool small_topk_fits(const vgpu::GpuProfile& p, u64 n) {
  return n > 0 && n <= batched_single_cap<K>(p);
}

/// True when an n-element segment selecting up to k fits the two-level
/// multi-CTA path: slices of one-SM size, and the cross-CTA merge of the
/// per-slice top-k prefixes must itself fit one SM's shared memory.
template <class K>
bool batched_multi_fits(const vgpu::GpuProfile& p, u64 n, u64 k) {
  const u64 cap = batched_single_cap<K>(p);
  if (cap == 0 || n <= cap) return n <= cap;
  const u64 slices = (n + cap - 1) / cap;
  const u64 last_len = n - (slices - 1) * cap;
  const u64 merge_total =
      (slices - 1) * std::min(k, cap) + std::min(k, last_len);
  return merge_total <= cap;
}

namespace detail {

/// Coalesced staging of v[begin, begin+len) into a CTA's shared span at
/// shared offset [sh_off, sh_off+len) (every warp of the CTA copies its
/// slice). The offset form lets one CTA stage several disjoint runs side
/// by side (the merge entry point below).
template <class K>
void batched_stage_shared(vgpu::CtaCtx& cta, std::span<const K> v, u64 begin,
                          u64 len, vgpu::SharedSpan<K>& sh, u64 sh_off = 0) {
  cta.for_each_warp([&](vgpu::Warp& w) {
    const u32 local = w.global_id() % cta.warps_per_cta();
    const Slice s = warp_slice(len, local, cta.warps_per_cta());
    if (s.len == 0) return;
    u64 pos = s.begin;
    const u64 end = s.begin + s.len;
    while (pos < end) {
      const u32 active =
          static_cast<u32>(std::min<u64>(vgpu::kWarpSize, end - pos));
      auto vals = w.load_coalesced(v, begin + pos, active);
      sh.warp_scatter(active, [&](u32 l) { return sh_off + pos + l; }, vals);
      pos += active;
    }
  });
}

/// Coalesced emission of the leading `count` shared elements into `out`.
template <class K>
void batched_emit_shared(vgpu::Warp& w, vgpu::SharedSpan<K>& sh,
                         std::span<K> out, u64 count) {
  u64 pos = 0;
  while (pos < count) {
    const u32 active =
        static_cast<u32>(std::min<u64>(vgpu::kWarpSize, count - pos));
    auto vals = sh.warp_gather(active, [&](u32 l) { return pos + l; });
    w.store_coalesced(out, pos, vals, active);
    pos += active;
  }
}

}  // namespace detail

/// Selects top-k for every segment of the batch. Scratch (the multi-CTA
/// partial buffers) comes from `ws` and is rewound before returning; stats
/// and simulated time accumulate into `acc`.
template <class K>
BatchedResult<K> batched_topk(Accum& acc,
                              std::span<const BatchedSegment<K>> segs,
                              vgpu::Workspace& ws = vgpu::tls_workspace()) {
  // Defaulting scope: serve's "first"/"second" call-site labels win.
  vgpu::StageScope stage_scope("batched");
  BatchedResult<K> r;
  r.keys.resize(segs.size());
  const vgpu::GpuProfile& prof = acc.device().profile();
  const u64 cap = batched_single_cap<K>(prof);

  for (size_t i = 0; i < segs.size(); ++i) {
    const u64 keff = std::min(segs[i].k, segs[i].data.size());
    r.keys[i].resize(segs[i].selection_only ? (keff ? 1 : 0) : keff);
  }

  // ---- Coalesce same-span segments into problems: one sort per distinct
  // (pointer, length), every attached segment emits from it. ----
  enum class Path : u8 { kSingle, kMulti, kFallback };
  struct Problem {
    const K* ptr = nullptr;
    u64 n = 0;
    u64 kmax = 0;                 ///< max clamped k over attached segments
    std::vector<u32> seg_ids;
    Path path = Path::kSingle;
    u64 slices = 0;               ///< multi-CTA slice count
    u64 part_off = 0;             ///< offset into the shared partial buffer
    u64 part_total = 0;           ///< merge-set size
  };
  std::vector<Problem> probs;
  // Pointer-keyed index keeps coalescing O(N) — the common finalization
  // batch is all-distinct spans, which a linear rescan would make O(N^2).
  // Same pointer with different lengths (prefix views) is rare: those
  // chain through the per-pointer bucket.
  std::unordered_map<const K*, std::vector<u32>> by_ptr;
  for (size_t i = 0; i < segs.size(); ++i) {
    const auto& sg = segs[i];
    const u64 keff = std::min(sg.k, sg.data.size());
    if (sg.data.empty() || keff == 0) continue;
    Problem* host = nullptr;
    for (const u32 pi : by_ptr[sg.data.data()]) {
      if (probs[pi].n == sg.data.size()) {
        host = &probs[pi];
        break;
      }
    }
    if (!host) {
      by_ptr[sg.data.data()].push_back(static_cast<u32>(probs.size()));
      probs.emplace_back();
      host = &probs.back();
      host->ptr = sg.data.data();
      host->n = sg.data.size();
    } else {
      ++r.shared_sorts;
    }
    host->kmax = std::max(host->kmax, keff);
    host->seg_ids.push_back(static_cast<u32>(i));
  }

  // ---- Classify each problem by capacity: single-CTA -> multi-CTA ->
  // per-segment. Both checks are O(1) closed forms, so no recorded path
  // hint can beat them. ----
  vgpu::Workspace::Scope scope(ws);
  u64 part_sum = 0;
  for (Problem& pb : probs) {
    if (pb.n <= cap) {
      pb.path = Path::kSingle;
    } else if (batched_multi_fits<K>(prof, pb.n, pb.kmax)) {
      pb.path = Path::kMulti;
      pb.slices = (pb.n + cap - 1) / cap;
      const u64 last_len = pb.n - (pb.slices - 1) * cap;
      pb.part_total = (pb.slices - 1) * std::min(pb.kmax, cap) +
                      std::min(pb.kmax, last_len);
      pb.part_off = part_sum;
      part_sum += pb.part_total;
    } else {
      pb.path = Path::kFallback;
    }
    r.single_cta += pb.path == Path::kSingle;
    r.multi_cta += pb.path == Path::kMulti;
    r.fallback += pb.path == Path::kFallback;
  }
  std::span<K> partial = ws.alloc<K>(part_sum);

  // ---- Launch 1: every single-CTA problem plus every multi-CTA slice,
  // one CTA each, in ONE launch. ----
  constexpr u32 kNoSlice = 0xFFFF'FFFFu;
  struct Item {
    u32 prob;
    u32 slice;
  };
  std::vector<Item> items;
  u64 max_shared = 0;
  for (u32 pi = 0; pi < probs.size(); ++pi) {
    const Problem& pb = probs[pi];
    if (pb.path == Path::kSingle) {
      items.push_back({pi, kNoSlice});
      max_shared = std::max(max_shared, pb.n * sizeof(K));
    } else if (pb.path == Path::kMulti) {
      for (u32 s = 0; s < pb.slices; ++s) items.push_back({pi, s});
      max_shared = std::max(max_shared, cap * sizeof(K));
    }
  }

  if (!items.empty()) {
    vgpu::Launch cfg;
    cfg.name = "batched_select";
    cfg.num_ctas = static_cast<u32>(items.size());
    cfg.warps_per_cta = 8;
    cfg.shared_bytes = max_shared;
    acc.launch(cfg, [&](vgpu::CtaCtx& cta) {
      const Item it = items[cta.cta_id()];
      const Problem& pb = probs[it.prob];
      const std::span<const K> data(pb.ptr, pb.n);
      if (it.slice == kNoSlice) {
        // Single-CTA segment: stage, sort, emit for every attached query.
        auto sh = cta.shared().alloc<K>(pb.n);
        detail::batched_stage_shared(cta, data, 0, pb.n, sh);
        vgpu::Warp w = cta.warp(0);
        topk::detail::charge_shared_network(
            w.stats(), topk::detail::bitonic_sort_cx(std::bit_ceil(pb.n)));
        std::sort(sh.data(), sh.data() + pb.n, std::greater<>());
        for (const u32 si : pb.seg_ids) {
          const auto& sg = segs[si];
          const u64 keff = std::min(sg.k, pb.n);
          std::span<K> out(r.keys[si]);
          if (sg.selection_only)
            w.st(out, 0, sh.ld(keff - 1));
          else
            detail::batched_emit_shared(w, sh, out, keff);
        }
      } else {
        // Multi-CTA slice: sort the slice, keep its top-kmax prefix for
        // the merge CTA (any global top-k element is in its slice's top-k).
        const u64 begin = static_cast<u64>(it.slice) * cap;
        const u64 slen = std::min(cap, pb.n - begin);
        auto sh = cta.shared().alloc<K>(slen);
        detail::batched_stage_shared(cta, data, begin, slen, sh);
        vgpu::Warp w = cta.warp(0);
        topk::detail::charge_shared_network(
            w.stats(), topk::detail::bitonic_sort_cx(std::bit_ceil(slen)));
        std::sort(sh.data(), sh.data() + slen, std::greater<>());
        const u64 keep = std::min(pb.kmax, slen);
        const u64 off = pb.part_off + it.slice * std::min(pb.kmax, cap);
        detail::batched_emit_shared(w, sh, partial.subspan(off, keep), keep);
      }
    });
    ++r.launches;
  }

  // ---- Launch 2 (only when multi-CTA problems exist): one merge CTA per
  // problem selects over the concatenated slice prefixes. ----
  std::vector<u32> multis;
  u64 merge_shared = 0;
  for (u32 pi = 0; pi < probs.size(); ++pi) {
    if (probs[pi].path == Path::kMulti) {
      multis.push_back(pi);
      merge_shared = std::max(merge_shared, probs[pi].part_total * sizeof(K));
    }
  }
  if (!multis.empty()) {
    vgpu::Launch cfg;
    cfg.name = "batched_merge";
    cfg.num_ctas = static_cast<u32>(multis.size());
    cfg.warps_per_cta = 8;
    cfg.shared_bytes = merge_shared;
    acc.launch(cfg, [&](vgpu::CtaCtx& cta) {
      const Problem& pb = probs[multis[cta.cta_id()]];
      const u64 m = pb.part_total;
      auto sh = cta.shared().alloc<K>(m);
      std::span<const K> runs(partial.data() + pb.part_off, m);
      detail::batched_stage_shared(cta, runs, 0, m, sh);
      vgpu::Warp w = cta.warp(0);
      // The merge set is a concatenation of pb.slices sorted runs: charge
      // the P-way merge network (a binary tree of bitonic merges), not a
      // full re-sort — the runs' order is information already paid for in
      // launch 1.
      topk::detail::charge_shared_network(
          w.stats(), vgpu::merge_network_cx(m, pb.slices));
      std::sort(sh.data(), sh.data() + m, std::greater<>());
      for (const u32 si : pb.seg_ids) {
        const auto& sg = segs[si];
        const u64 keff = std::min(sg.k, pb.n);
        std::span<K> out(r.keys[si]);
        if (sg.selection_only)
          w.st(out, 0, sh.ld(keff - 1));
        else
          detail::batched_emit_shared(w, sh, out, keff);
      }
    });
    ++r.launches;
  }

  // ---- Fallback problems: the regular engine, once per problem (attached
  // segments still share the run via the prefix property). ----
  for (const Problem& pb : probs) {
    if (pb.path != Path::kFallback) continue;
    const std::span<const K> data(pb.ptr, pb.n);
    auto fr = run_topk_keys<K>(acc.device(), data, pb.kmax,
                               Algo::kRadixFlag, ws);
    acc.add(fr.stats, fr.sim_ms);
    r.launches += fr.stats.kernels_launched;
    for (const u32 si : pb.seg_ids) {
      const auto& sg = segs[si];
      const u64 keff = std::min(sg.k, pb.n);
      if (sg.selection_only) {
        r.keys[si][0] = fr.keys[keff - 1];
      } else {
        std::copy(fr.keys.begin(), fr.keys.begin() + static_cast<i64>(keff),
                  r.keys[si].begin());
      }
    }
  }

  return r;
}

/// One cross-run merge problem: `runs` are independently *pre-selected*
/// winner lists, each sorted descending (a shard's local top-k, a slice's
/// prefix, a leader's pre-merge output). The merge selects the global
/// top-min(k, Σ|run|) over their union. Unlike BatchedSegment the data is
/// not one contiguous span — the engine stages each run at its offset.
template <class K>
struct MergeSegment {
  std::vector<std::span<const K>> runs;  ///< each sorted descending
  u64 k = 1;                             ///< clamped to Σ|run| internally
  u64 tag = 0;                  ///< caller id (query id) — carried, not used
  bool selection_only = false;  ///< emit only the k-th key
};

/// Merges every segment's pre-sorted runs and selects its top-k, one CTA
/// per segment inside ONE "merge_select" launch. This is the cross-shard
/// reduction kernel of serve::ShardedTopkServer: N shard-local winner lists
/// in, one bit-exact global winner list out, charged as a P-way merge
/// network (vgpu::merge_network_cx) — the runs' order is information the
/// shards already paid for. Segments whose merge set exceeds one SM's
/// shared memory fall back to a charged concatenation + flag-radix run
/// (never hit by serving-sized merges: m = shards·k ≪ the SM cap).
/// Empty runs are skipped; all-empty segments yield empty results.
template <class K>
BatchedResult<K> batched_merge_topk(Accum& acc,
                                    std::span<const MergeSegment<K>> segs,
                                    vgpu::Workspace& ws = vgpu::tls_workspace()) {
  // Defaulting scope: serve's "merge" call-site label wins.
  vgpu::StageScope stage_scope("batched");
  BatchedResult<K> r;
  r.keys.resize(segs.size());
  const vgpu::GpuProfile& prof = acc.device().profile();
  const u64 cap = batched_single_cap<K>(prof);

  enum class Path : u8 { kSingle, kFallback, kEmpty };
  struct Prob {
    u64 m = 0;        ///< Σ run sizes
    u64 nruns = 0;    ///< non-empty run count
    Path path = Path::kEmpty;
  };
  std::vector<Prob> probs(segs.size());
  u64 max_shared = 0;
  for (size_t i = 0; i < segs.size(); ++i) {
    Prob& pb = probs[i];
    for (const auto& run : segs[i].runs) {
      pb.m += run.size();
      pb.nruns += !run.empty();
    }
    const u64 keff = std::min(segs[i].k, pb.m);
    r.keys[i].resize(segs[i].selection_only ? (keff ? 1 : 0) : keff);
    if (pb.m == 0 || keff == 0) {
      pb.path = Path::kEmpty;
    } else if (pb.m <= cap) {
      pb.path = Path::kSingle;
      max_shared = std::max(max_shared, pb.m * sizeof(K));
      ++r.single_cta;
    } else {
      pb.path = Path::kFallback;
      ++r.fallback;
    }
  }

  std::vector<u32> singles;
  for (u32 i = 0; i < probs.size(); ++i)
    if (probs[i].path == Path::kSingle) singles.push_back(i);

  if (!singles.empty()) {
    vgpu::Launch cfg;
    cfg.name = "merge_select";
    cfg.num_ctas = static_cast<u32>(singles.size());
    cfg.warps_per_cta = 8;
    cfg.shared_bytes = max_shared;
    acc.launch(cfg, [&](vgpu::CtaCtx& cta) {
      const u32 si = singles[cta.cta_id()];
      const auto& sg = segs[si];
      const Prob& pb = probs[si];
      auto sh = cta.shared().alloc<K>(pb.m);
      u64 off = 0;
      for (const auto& run : sg.runs) {
        if (run.empty()) continue;
        detail::batched_stage_shared(cta, run, 0, run.size(), sh, off);
        off += run.size();
      }
      vgpu::Warp w = cta.warp(0);
      topk::detail::charge_shared_network(
          w.stats(), vgpu::merge_network_cx(pb.m, pb.nruns));
      std::sort(sh.data(), sh.data() + pb.m, std::greater<>());
      const u64 keff = std::min(sg.k, pb.m);
      std::span<K> out(r.keys[si]);
      if (sg.selection_only)
        w.st(out, 0, sh.ld(keff - 1));
      else
        detail::batched_emit_shared(w, sh, out, keff);
    });
    ++r.launches;
  }

  // ---- Oversized merge sets: concatenate the runs into workspace global
  // memory with a charged copy launch, then run the flag-radix engine. ----
  for (u32 i = 0; i < probs.size(); ++i) {
    if (probs[i].path != Path::kFallback) continue;
    const auto& sg = segs[i];
    const Prob& pb = probs[i];
    vgpu::Workspace::Scope scope(ws);
    std::span<K> flat = ws.alloc<K>(pb.m);
    vgpu::Launch cfg;
    cfg.name = "merge_concat";
    cfg.num_ctas = 1;
    cfg.warps_per_cta = 8;
    acc.launch(cfg, [&](vgpu::CtaCtx& cta) {
      cta.for_each_warp([&](vgpu::Warp& w) {
        if (w.global_id() % cta.warps_per_cta() != 0) return;
        u64 off = 0;
        for (const auto& run : sg.runs) {
          u64 pos = 0;
          while (pos < run.size()) {
            const u32 active = static_cast<u32>(
                std::min<u64>(vgpu::kWarpSize, run.size() - pos));
            auto vals = w.load_coalesced(run, pos, active);
            w.store_coalesced(flat, off + pos, vals, active);
            pos += active;
          }
          off += run.size();
        }
      });
    });
    ++r.launches;
    auto fr = run_topk_keys<K>(acc.device(), std::span<const K>(flat),
                               std::min(sg.k, pb.m), Algo::kRadixFlag, ws);
    acc.add(fr.stats, fr.sim_ms);
    r.launches += fr.stats.kernels_launched;
    const u64 keff = std::min(sg.k, pb.m);
    if (sg.selection_only) {
      r.keys[i][0] = fr.keys[keff - 1];
    } else {
      std::copy(fr.keys.begin(), fr.keys.begin() + static_cast<i64>(keff),
                r.keys[i].begin());
    }
  }

  return r;
}

}  // namespace drtopk::topk
