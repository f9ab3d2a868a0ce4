// Radix top-k / k-selection engines.
//
// Three variants, matching Section 5.1 and Figure 12 of the paper:
//
//  * radix_kth_flag / radix_topk_flag — Dr. Top-k's optimized in-place
//    radix: a single (mask, value) flag pair tracks the radixes of interest;
//    every iteration re-scans the input testing
//    `(x & mask) == value` and histograms the next digit. The input is never
//    written — the design point that removes GGKS's scattered stores.
//  * radix_topk_ggks_oop — GGKS-style out-of-place: each iteration compacts
//    the bucket of interest into a fresh buffer and emits the buckets above
//    it straight to the result.
//  * radix_topk_ggks_inplace — GGKS-style in-place: ineligible elements are
//    overwritten with a sentinel (0) so later iterations skip them; the
//    scattered read-modify-write stores are what Figure 12 measures.
//
// All engines process kRadixBits (8) bits per iteration, MSD-first, exactly
// as the paper's "8-bit per digit yields the optimal performance" choice.
#pragma once

#include <bit>

#include "topk/kernels.hpp"

namespace drtopk::topk {

/// K-selection: value of the k-th largest key (1 <= k <= |v|).
/// Flag-based in-place algorithm; zero stores to v.
///
/// A nonzero `max_taken` enables the paper's "skip the final iteration of
/// the first top-k" relaxation (Section 4.3): after the penultimate digit
/// the selection returns the partial prefix, a *lower bound* on the k-th
/// largest, when at most `max_taken` keys are >= it. That digit's histogram
/// already holds the count, (k - rem) + hist[chosen], which is written to
/// `*at_or_above` when the prefix is returned (stage 3 sizes its candidate
/// span from it). Otherwise the skip is declined (`*declined` is set) and
/// the last digit is refined as in the exact selection, so a relaxed call
/// never launches more kernels than an exact one.
template <class K>
K radix_kth_flag(Accum& acc, std::span<const K> v, u64 k, u64 max_taken = 0,
                 bool* declined = nullptr, u64* at_or_above = nullptr) {
  assert(k >= 1 && k <= v.size());
  constexpr int kDigits = sizeof(K);  // 8 bits each
  K mask = 0, value = 0;
  u64 rem = k;
  std::array<u64, kRadixBuckets> hist;

  for (int d = kDigits - 1; d >= 0; --d) {
    const u32 shift = static_cast<u32>(d) * kRadixBits;
    histogram256(
        acc, v, [mask, value](K x) { return (x & mask) == value; },
        [shift](K x) { return static_cast<u32>((x >> shift) & 0xFF); }, hist,
        "radix_flag_hist");
    u64 cum = 0;
    u32 chosen = 0;
    for (int b = kRadixBuckets - 1; b >= 0; --b) {
      if (cum + hist[b] >= rem) {
        chosen = static_cast<u32>(b);
        rem -= cum;
        break;
      }
      cum += hist[b];
    }
    value |= static_cast<K>(chosen) << shift;
    mask |= static_cast<K>(0xFF) << shift;
    if (d == 1 && max_taken > 0) {
      // Keys above the prefix plus keys on it: every key >= `value`. Checked
      // before the unique-survivor fetch: a lone survivor admits the same k
      // keys as the prefix, so the fetch would be a wasted launch.
      const u64 taken = k - rem + hist[chosen];
      if (taken <= max_taken) {
        if (at_or_above) *at_or_above = taken;
        return value;  // low digit 0
      }
      if (declined) *declined = true;
    }
    if (hist[chosen] == 1) {
      // Unique survivor: fetch it directly instead of refining further.
      return device_find_unique(
          acc, v, [mask, value](K x) { return (x & mask) == value; });
    }
  }
  return value;  // all digits fixed: survivors all equal `value`
}

/// Full top-k with the flag-based engine: k-selection, then collection.
template <class K>
TopkResult<K> radix_topk_flag(vgpu::Device& dev, std::span<const K> v,
                              u64 k) {
  WallTimer wall;
  Accum acc(dev);
  TopkResult<K> r;
  r.kth = radix_kth_flag(acc, v, k);
  r.keys = collect_topk(acc, v, r.kth, k);
  r.stats = acc.stats();
  r.sim_ms = acc.sim_ms();
  r.wall_ms = wall.ms();
  return r;
}

/// GGKS-style out-of-place radix top-k: iteration compacts the bucket of
/// interest into a fresh buffer; buckets above it go straight to the output.
/// Scratch (two n-sized ping-pong buffers) comes from the workspace and is
/// rewound on return.
template <class K>
TopkResult<K> radix_topk_ggks_oop(vgpu::Device& dev, std::span<const K> v,
                                  u64 k,
                                  vgpu::Workspace& ws = vgpu::tls_workspace()) {
  assert(k >= 1 && k <= v.size());
  WallTimer wall;
  Accum acc(dev);
  TopkResult<K> r;
  r.keys.resize(k);
  std::span<K> out(r.keys.data(), k);

  vgpu::Workspace::Scope scope(ws);
  std::span<const K> cur = v;
  std::span<K> next = ws.alloc<K>(v.size());
  std::span<K> other = ws.alloc<K>(v.size());

  u64 emitted = 0;  // elements already known to be in the top-k
  u64 rem = k;      // rank of the kth element within `cur`
  constexpr int kDigits = sizeof(K);
  std::array<u64, kRadixBuckets> hist;

  for (int d = kDigits - 1; d >= 0 && rem > 0; --d) {
    const u32 shift = static_cast<u32>(d) * kRadixBits;
    histogram256(
        acc, cur, [](K) { return true; },
        [shift](K x) { return static_cast<u32>((x >> shift) & 0xFF); }, hist,
        "radix_oop_hist");
    u64 cum = 0;
    u32 chosen = 0;
    for (int b = kRadixBuckets - 1; b >= 0; --b) {
      if (cum + hist[b] >= rem) {
        chosen = static_cast<u32>(b);
        break;
      }
      cum += hist[b];
    }
    // Emit elements in buckets above `chosen`; keep bucket `chosen`.
    const K chosen_digit = static_cast<K>(chosen);
    emitted = device_compact(
        acc, cur,
        [shift, chosen_digit](K x) {
          return ((x >> shift) & 0xFF) > chosen_digit;
        },
        out, emitted, "radix_oop_emit");
    const u64 kept = device_compact(
        acc, cur,
        [shift, chosen_digit](K x) {
          return ((x >> shift) & 0xFF) == chosen_digit;
        },
        next, 0, "radix_oop_keep");
    rem -= cum;
    cur = std::span<const K>(next.data(), kept);
    std::swap(next, other);
    if (kept == rem) {
      // Everything that survived belongs to the top-k.
      emitted = device_compact(
          acc, cur, [](K) { return true; }, out, emitted, "radix_oop_flush");
      rem = 0;
      break;
    }
  }
  if (rem > 0) {
    // All survivors share every digit — they are `rem` copies of one value.
    assert(!cur.empty());
    const K survivor = cur[0];
    for (u64 i = 0; i < rem; ++i) r.keys[emitted + i] = survivor;
    emitted += rem;
  }
  assert(emitted == k);
  std::sort(r.keys.begin(), r.keys.end(), std::greater<>());
  r.kth = r.keys.back();
  r.stats = acc.stats();
  r.sim_ms = acc.sim_ms();
  r.wall_ms = wall.ms();
  return r;
}

/// GGKS-style in-place radix top-k. Destructive: ineligible elements are
/// overwritten with 0 (the sentinel the paper describes), producing the
/// scattered stores that the flag-based variant eliminates. Elements above
/// the bucket of interest are emitted to the result before being zeroed.
/// Requires all input keys to be nonzero (a documented GGKS limitation).
template <class K>
TopkResult<K> radix_topk_ggks_inplace(vgpu::Device& dev, std::span<K> v,
                                      u64 k) {
  assert(k >= 1 && k <= v.size());
  WallTimer wall;
  Accum acc(dev);
  TopkResult<K> r;
  r.keys.resize(k);
  std::span<K> out(r.keys.data(), k);
  std::span<const K> cv(v.data(), v.size());

  u64 emitted = 0;
  u64 rem = k;
  u64 alive = v.size();
  constexpr int kDigits = sizeof(K);
  std::array<u64, kRadixBuckets> hist;
  K prefix_value = 0;

  for (int d = kDigits - 1; d >= 0 && rem > 0; --d) {
    const u32 shift = static_cast<u32>(d) * kRadixBits;
    histogram256(
        acc, cv, [](K x) { return x != 0; },
        [shift](K x) { return static_cast<u32>((x >> shift) & 0xFF); }, hist,
        "radix_inp_hist");
    u64 cum = 0;
    u32 chosen = 0;
    for (int b = kRadixBuckets - 1; b >= 0; --b) {
      if (cum + hist[b] >= rem) {
        chosen = static_cast<u32>(b);
        break;
      }
      cum += hist[b];
    }
    prefix_value |= static_cast<K>(chosen) << shift;

    // Zeroing pass: emit elements above the bucket, zero everything not in
    // the bucket. One scattered store per retired element — the cost GGKS
    // in-place pays and the flag design avoids.
    u64 counter = emitted;
    std::span<u64> cnt(&counter, 1);
    const K chosen_digit = static_cast<K>(chosen);
    auto cfg = stream_launch(acc.device(), v.size(), "radix_inp_zero");
    acc.launch(cfg, [&](vgpu::CtaCtx& cta) {
      cta.for_each_warp([&](vgpu::Warp& w) {
        const Slice s = warp_slice(v.size(), w.global_id(), w.grid_warps());
        if (s.len == 0) return;
        u64 pos = s.begin;
        const u64 end = s.begin + s.len;
        while (pos < end) {
          const u32 active =
              static_cast<u32>(std::min<u64>(vgpu::kWarpSize, end - pos));
          auto vals = w.load_coalesced(cv, pos, active);
          vgpu::LaneArray<u8> is_above{}, is_retired{};
          for (u32 l = 0; l < active; ++l) {
            if (vals[l] == 0) continue;
            const u32 digit = static_cast<u32>((vals[l] >> shift) & 0xFF);
            if (digit > chosen_digit) {
              is_above[l] = 1;
              is_retired[l] = 1;
            } else if (digit < chosen_digit) {
              is_retired[l] = 1;
            }
          }
          const u32 above_mask = w.ballot(is_above, active);
          const u32 c = std::popcount(above_mask);
          if (c) {
            const u64 base = w.atomic_add(cnt, 0, static_cast<u64>(c));
            vgpu::LaneArray<K> packed{};
            u32 j = 0;
            for (u32 l = 0; l < active; ++l)
              if (is_above[l]) packed[j++] = vals[l];
            w.store_coalesced(out, base, packed, c);
          }
          const u32 retire_mask = w.ballot(is_retired, active);
          if (retire_mask) {
            vgpu::LaneArray<u64> idx{};
            vgpu::LaneArray<K> zeros{};
            for (u32 l = 0; l < active; ++l) idx[l] = pos + l;
            w.store_scattered(v, idx, zeros, retire_mask);
          }
          pos += active;
        }
      });
    });
    emitted = counter;
    rem -= cum;
    alive = hist[chosen];
    if (alive == rem) {
      // Everything still alive belongs to the top-k: collect the nonzero
      // survivors (retired elements were zeroed above).
      emitted = device_compact(
          acc, cv, [](K x) { return x != 0; }, out, emitted,
          "radix_inp_flush");
      rem = 0;
      break;
    }
  }
  // Survivors all share the chosen prefix; fill the remaining slots.
  for (u64 i = 0; i < rem; ++i) r.keys[emitted + i] = prefix_value;
  emitted += rem;
  assert(emitted == k);
  std::sort(r.keys.begin(), r.keys.end(), std::greater<>());
  r.kth = r.keys.back();
  r.stats = acc.stats();
  r.sim_ms = acc.sim_ms();
  r.wall_ms = wall.ms();
  return r;
}

}  // namespace drtopk::topk
