// Synthetic input-vector distributions from Section 6 of the paper.
//
//  * UD — uniform over [0, 2^32-1].
//  * ND — normal(mean 1e8, stddev 10) rounded to unsigned ints; the tiny
//         stddev concentrates a billion elements on ~100 distinct values,
//         the tie-heavy regime that destabilizes bucket/radix top-k.
//  * CD — a distribution constructed so that, at every bucket-top-k
//         iteration, the bucket containing the k-th element keeps the vast
//         majority of elements while every other bucket still holds at
//         least one (so no iteration can terminate early). This is the
//         adversarial case of Figure 4.
#pragma once

#include <span>
#include <string>

#include "data/rng.hpp"
#include "vgpu/device.hpp"
#include "vgpu/types.hpp"

namespace drtopk::data {

enum class Distribution { kUniform, kNormal, kCustomized };

/// Short names used throughout the paper's figures: UD / ND / CD.
std::string to_string(Distribution d);

/// Number of per-level decoy values the CD generator plants (one per
/// non-target bucket per level; see fill_customized).
inline constexpr u32 kCdLevels = 3;
inline constexpr u32 kCdBuckets = 256;
inline constexpr u64 kCdDecoys = static_cast<u64>(kCdLevels) * (kCdBuckets - 1);

/// Fills `out` with n = out.size() values of the given distribution,
/// deterministically from `seed`, in parallel. Every element is a pure
/// function of (seed, i), so a shorter vector is a prefix of a longer one.
/// CD places its kCdDecoys decoys first and the cluster after them: for
/// n <= kCdDecoys it is the first n decoys, with no cluster.
void fill_uniform(std::span<u32> out, u64 seed);
void fill_normal(std::span<u32> out, u64 seed, f64 mean = 1e8,
                 f64 stddev = 10.0);
void fill_customized(std::span<u32> out, u64 seed);
void fill(std::span<u32> out, Distribution d, u64 seed);

/// Convenience allocating wrappers.
vgpu::device_vector<u32> generate(u64 n, Distribution d, u64 seed);

}  // namespace drtopk::data
