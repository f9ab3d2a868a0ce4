// Public typed frontend over the top-k engines.
//
//   vgpu::Device dev;
//   auto r = topk::run_topk<float>(dev, distances, k,
//                                  Criterion::kSmallest, Algo::kRadixFlag);
//
// Values of any supported type are mapped to order-preserving unsigned
// "directed keys" (largest-wins) once, the selected engine runs on keys,
// and the result is mapped back. For u32/u64 inputs under kLargest the
// mapping is the identity and costs nothing.
#pragma once

#include "topk/bitonic.hpp"
#include "topk/bucket.hpp"
#include "topk/heap.hpp"
#include "topk/radix.hpp"
#include "topk/sort.hpp"

namespace drtopk::topk {

enum class Algo {
  kRadixFlag,         ///< optimized flag-based in-place radix (Section 5.1)
  kRadixGgksOop,      ///< GGKS out-of-place radix [2]
  kRadixGgksInplace,  ///< GGKS in-place radix with sentinel zeroing [2]
  kBucketInplace,     ///< in-place bucket (flag-style re-scan) [2]
  kBucketOop,         ///< GGKS out-of-place bucket [2]
  kBucketGgksInplace, ///< GGKS in-place bucket with sentinel zeroing [2]
  kBitonic,           ///< bitonic top-k [42]
  kSortAndChoose,     ///< full radix sort then choose (THRUST stand-in)
  kHeap,              ///< host-side priority-queue baseline (parallel heaps)
};

std::string to_string(Algo a);

/// The GPU algorithms compared throughout the paper's evaluation.
inline std::vector<Algo> baseline_algos() {
  return {Algo::kRadixGgksOop, Algo::kBucketOop, Algo::kBitonic,
          Algo::kSortAndChoose};
}

/// Maps values to directed keys on the device (charged as one streaming
/// pass). Identity-mapped types under kLargest skip the pass entirely
/// (see run_topk). The key buffer is workspace-backed: the caller owns the
/// scope and rewinds when done with the keys.
template <class T>
std::span<typename data::KeyTraits<T>::Key> make_directed_keys(
    Accum& acc, std::span<const T> v, Criterion c,
    vgpu::Workspace& ws = vgpu::tls_workspace()) {
  using Key = typename data::KeyTraits<T>::Key;
  // Key mapping is pre-pipeline work; defaulting scope so an enclosing
  // stage label (e.g. serve's phase-A attribution) wins.
  vgpu::StageScope stage_scope("keys");
  std::span<Key> out = ws.alloc<Key>(v.size());
  auto cfg = stream_launch(acc.device(), v.size(), "to_keys");
  acc.launch(cfg, [&](vgpu::CtaCtx& cta) {
    cta.for_each_warp([&](vgpu::Warp& w) {
      const Slice s = warp_slice(v.size(), w.global_id(), w.grid_warps());
      if (s.len == 0) return;
      u64 pos = s.begin;
      const u64 end = s.begin + s.len;
      while (pos < end) {
        const u32 active =
            static_cast<u32>(std::min<u64>(vgpu::kWarpSize, end - pos));
        auto vals = w.load_coalesced(v, pos, active);
        vgpu::LaneArray<Key> ks{};
        for (u32 l = 0; l < active; ++l)
          ks[l] = data::directed_key(vals[l], c);
        w.store_coalesced(out, pos, ks, active);
        pos += active;
      }
    });
  });
  return out;
}

/// True when T's directed keys are bit-identical to its values.
template <class T>
constexpr bool key_is_identity(Criterion c) {
  return (std::is_same_v<T, u32> || std::is_same_v<T, u64>) &&
         c == Criterion::kLargest;
}

/// Runs `algo` on directed keys (the engine-level entry point). Every
/// engine's scratch comes from `ws` (thread-local fallback when omitted)
/// and is rewound before returning.
template <class K>
TopkResult<K> run_topk_keys(vgpu::Device& dev, std::span<const K> keys,
                            u64 k, Algo algo,
                            vgpu::Workspace& ws = vgpu::tls_workspace()) {
  // Standalone engine runs (benchmarks, tests) get a stage label of their
  // own; inside the Dr. Top-k pipeline the enclosing stage scope wins.
  vgpu::StageScope stage_scope("engine");
  switch (algo) {
    case Algo::kRadixFlag:
      return radix_topk_flag(dev, keys, k);
    case Algo::kRadixGgksOop:
      return radix_topk_ggks_oop(dev, keys, k, ws);
    case Algo::kRadixGgksInplace: {
      // Destructive engine: operate on a scratch copy so callers keep their
      // input (the copy is part of using this engine on borrowed data).
      vgpu::Workspace::Scope scope(ws);
      std::span<K> scratch = ws.alloc<K>(keys.size());
      std::copy(keys.begin(), keys.end(), scratch.begin());
      return radix_topk_ggks_inplace(dev, scratch, k);
    }
    case Algo::kBucketInplace:
      return bucket_topk_inplace(dev, keys, k);
    case Algo::kBucketOop:
      return bucket_topk_oop(dev, keys, k, ws);
    case Algo::kBucketGgksInplace: {
      vgpu::Workspace::Scope scope(ws);
      std::span<K> scratch = ws.alloc<K>(keys.size());
      std::copy(keys.begin(), keys.end(), scratch.begin());
      return bucket_topk_ggks_inplace(dev, scratch, k);
    }
    case Algo::kBitonic:
      return bitonic_topk(dev, keys, k, ws);
    case Algo::kSortAndChoose:
      return sort_and_choose_topk(dev, keys, k, ws);
    case Algo::kHeap:
      // CPU baseline on the device's host thread pool: no kernel stats or
      // simulated GPU time, wall-clock only (see topk/heap.hpp).
      return heap_topk(keys, k, &dev.pool());
  }
  return {};
}

/// Typed frontend: top-k of `values` under `criterion`.
/// result.values[0] is the best element (largest for kLargest, smallest for
/// kSmallest); result.kth is the k-th best — the k-selection answer.
template <class T>
struct TypedTopkResult {
  std::vector<T> values;
  T kth{};
  vgpu::KernelStats stats;
  double sim_ms = 0.0;
  double wall_ms = 0.0;
};

template <class T>
TypedTopkResult<T> run_topk(vgpu::Device& dev, std::span<const T> values,
                            u64 k, Criterion criterion, Algo algo,
                            vgpu::Workspace& ws = vgpu::tls_workspace()) {
  using Key = typename data::KeyTraits<T>::Key;
  WallTimer wall;
  TopkResult<Key> kr;
  if constexpr (std::is_same_v<T, u32> || std::is_same_v<T, u64>) {
    if (criterion == Criterion::kLargest) {
      kr = run_topk_keys<Key>(dev, values, k, algo, ws);
    }
  }
  if (kr.keys.empty()) {
    Accum acc(dev);
    vgpu::Workspace::Scope scope(ws);  // keys live for the engine call only
    auto keys = make_directed_keys(acc, values, criterion, ws);
    kr = run_topk_keys<Key>(
        dev, std::span<const Key>(keys.data(), keys.size()), k, algo, ws);
    kr.stats += acc.stats();
    kr.sim_ms += acc.sim_ms();
  }

  TypedTopkResult<T> r;
  r.values.reserve(kr.keys.size());
  for (const Key key : kr.keys)
    r.values.push_back(data::value_from_directed_key<T>(key, criterion));
  r.kth = r.values.back();
  r.stats = kr.stats;
  r.sim_ms = kr.sim_ms;
  r.wall_ms = wall.ms();
  return r;
}

}  // namespace drtopk::topk
