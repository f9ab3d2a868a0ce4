// Subrange-size (alpha) selection — Rule 4, Section 5.2.
//
// The paper proves the total Dr. Top-k time is convex in alpha and derives
//   alpha* = 1/2 * (Const + log2|V| - log2 k),
// with Const folding the C_global/C_shfl ratio and second-order effects;
// performance tuning lands Const = 3 on V100S. AlphaTuner exposes:
//   * rule4_alpha    — the closed form (auto-tuned alpha of Figure 14),
//   * analytic_const — Const from a GpuProfile's cycle costs (Eq. 11),
//   * predicted_ms   — Equation 6 evaluated directly (Figure 13's model),
//   * oracle_alpha   — exhaustive sweep, the "oracle" of Figure 14,
//   * walk_alpha     — a measured descent of the time curve from Rule 4,
//                      the serving plan cache's calibration.
#pragma once

#include <cmath>
#include <functional>
#include <span>

#include "vgpu/device.hpp"

namespace drtopk::core {

struct DrTopkConfig;  // core/dr_topk.hpp

/// Rule 4's closed form plus the Equation-6 model behind it: the
/// reproduction's alpha choice (`dr_topk_keys` with alpha auto).
struct AlphaTuner {
  /// Rule 4's Const. The paper tunes this to 3 on V100S; analytic_const()
  /// gives the first-principles part (the Delta' correction is empirical).
  double const_term = 3.0;

  /// Closed-form alpha for (|V|, k); unclamped Rule 4. Half-integers round
  /// down: for |V|=2^30, k=2^24 this yields the paper's "optimal alpha = 4"
  /// (Section 5.3).
  int rule4_alpha(u64 n, u64 k) const {
    const double a =
        0.5 * (const_term + std::log2(static_cast<double>(n)) -
               std::log2(static_cast<double>(k)));
    return static_cast<int>(std::floor(a + 0.25));
  }

  /// Const = log2(6*C_global + 31*C_shfl) - log2(6*C_global)  (Eq. 11,
  /// without the empirical Delta' term).
  static double analytic_const(const vgpu::GpuProfile& p) {
    return std::log2(6.0 * p.c_global + 31.0 * p.c_shfl) -
           std::log2(6.0 * p.c_global);
  }

  /// Equation 6 evaluated for (n, k, alpha, beta): the model curve that
  /// Figure 13 shows is convex. Returns simulated milliseconds under the
  /// same normalization the CostModel uses.
  static double predicted_ms(const vgpu::GpuProfile& p, u64 n, u64 k,
                             int alpha, u32 beta = 1);
};

/// Clamps alpha to the feasible range: at least 1, at most log2(n), and
/// small enough that the delegate vector still holds k real delegates
/// (real_delegate_count >= k). Returns -1 when no feasible alpha exists
/// (k too close to n) — the caller falls back to a direct top-k.
int clamp_alpha(u64 n, u64 k, u32 beta, int alpha);

/// Oracle alpha: runs the full pipeline for every alpha in [lo, hi] and
/// returns the argmin of simulated time. Defined in alpha_tuner.cpp.
int oracle_alpha(vgpu::Device& dev, std::span<const u32> v, u64 k,
                 const DrTopkConfig& cfg, int lo, int hi,
                 std::vector<double>* times_out = nullptr);

/// What one walk_alpha run picked and spent.
struct AlphaWalk {
  int alpha = -1;         ///< fastest probed alpha; -1 = none feasible
  double best_ms = 0.0;   ///< its measured time
  double probe_ms = 0.0;  ///< summed time of every probe
  u32 probes = 0;         ///< pipeline runs the walk made
};

/// Measured alpha: walks the time curve, which Section 5.2 proves convex,
/// from `start` (Rule 4) clamped to the feasible range. It probes the start,
/// then steps up one alpha at a time while each probe is strictly faster
/// than the best so far; if the first step up did not improve, it steps
/// down from start - 1 the same way. A walk stops at the first probe that
/// is not strictly faster or at the first alpha clamp_alpha rejects, so it
/// runs at most |pick - start| + 3 probes; where a measured curve has a
/// step instead of a bowl, that first rise can stop it short of the
/// argmin. Up goes first because the alphas below the start build larger
/// delegate vectors (n / 2^alpha), so their scratch is paid only when
/// stepping up did not help. `probe` runs the pipeline at the given alpha
/// and returns its time.
AlphaWalk walk_alpha(u64 n, u64 k, u32 beta, int start,
                     const std::function<double(int)>& probe);

}  // namespace drtopk::core
