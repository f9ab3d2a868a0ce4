#include "data/distributions.hpp"

#include <algorithm>

#include "vgpu/thread_pool.hpp"

namespace drtopk::data {

namespace {

/// Pool shared by all data generators (generation is host-side work, not
/// simulated-GPU work, so it does not go through a Device).
vgpu::ThreadPool& gen_pool() {
  static vgpu::ThreadPool pool;
  return pool;
}

/// Parallel elementwise fill: out[i] = fn(i).
template <class F>
void parallel_fill(std::span<u32> out, F&& fn) {
  const u64 n = out.size();
  const u64 block = 1ull << 16;
  const u64 blocks = (n + block - 1) / block;
  gen_pool().parallel_for(0, blocks, [&](u64 b, u32) {
    const u64 lo = b * block;
    const u64 hi = std::min(n, lo + block);
    for (u64 i = lo; i < hi; ++i) out[i] = fn(i);
  });
}

}  // namespace

std::string to_string(Distribution d) {
  switch (d) {
    case Distribution::kUniform: return "UD";
    case Distribution::kNormal: return "ND";
    case Distribution::kCustomized: return "CD";
  }
  return "?";
}

void fill_uniform(std::span<u32> out, u64 seed) {
  parallel_fill(out, [seed](u64 i) { return rand_u32(seed, i); });
}

void fill_normal(std::span<u32> out, u64 seed, f64 mean, f64 stddev) {
  parallel_fill(out, [=](u64 i) {
    const f64 v = mean + stddev * rand_normal(seed, i);
    return static_cast<u32>(std::clamp(v, 0.0, 4294967295.0));
  });
}

void fill_customized(std::span<u32> out, u64 seed) {
  const u64 n = out.size();

  // The target bucket at every level is the top one (index 255), so the
  // k-th element always lives on the all-0xFF prefix path. Each level
  // contributes one decoy per non-target bucket; everything else collapses
  // into the final 8-bit-wide cluster at the top of the value range.
  //
  // Level l refines the range [hi - 2^(32-8l), hi]; bucket b at level l is
  // prefix | b << (32 - 8(l+1)).
  parallel_fill(out, [seed, n](u64 i) -> u32 {
    if (i < kCdDecoys) {
      const u32 level = static_cast<u32>(i / (kCdBuckets - 1));
      const u32 bucket = static_cast<u32>(i % (kCdBuckets - 1));  // 0..254
      const u32 shift = 32 - 8 * (level + 1);
      // Prefix of `level` 0xFF bytes, then the (non-top) bucket byte, then
      // random low bits inside that bucket.
      u32 prefix = level == 0 ? 0u : ~0u << (32 - 8 * level);
      u32 low = shift == 0 ? 0u : (rand_u32(seed ^ 0xCD, i) >> (32 - shift));
      return prefix | (bucket << shift) | low;
    }
    // Cluster: top bucket at every level → top 24 bits all ones; jitter the
    // final byte so the cluster is not a single value.
    return 0xFFFFFF00u | (rand_u32(seed ^ 0xC1, i) & 0xFFu);
  });
}

void fill(std::span<u32> out, Distribution d, u64 seed) {
  switch (d) {
    case Distribution::kUniform: fill_uniform(out, seed); return;
    case Distribution::kNormal: fill_normal(out, seed); return;
    case Distribution::kCustomized: fill_customized(out, seed); return;
  }
}

vgpu::device_vector<u32> generate(u64 n, Distribution d, u64 seed) {
  vgpu::device_vector<u32> v(n);
  fill(std::span<u32>(v.data(), v.size()), d, seed);
  return v;
}

}  // namespace drtopk::data
