// Subrange-size (alpha) selection — Rule 4, Section 5.2.
//
// The paper proves the total Dr. Top-k time is convex in alpha and derives
//   alpha* = 1/2 * (Const + log2|V| - log2 k),
// with Const folding the C_global/C_shfl ratio and second-order effects;
// performance tuning lands Const = 3 on V100S. AlphaTuner exposes:
//   * rule4_alpha    — the closed form (auto-tuned alpha of Figure 14),
//   * analytic_const — Const from a GpuProfile's cycle costs (Eq. 11),
//   * predicted_ms   — Equation 6 evaluated directly (Figure 13's model),
//   * oracle_alpha   — exhaustive sweep, the "oracle" of Figure 14.
#pragma once

#include <cmath>
#include <span>

#include "vgpu/device.hpp"

namespace drtopk::core {

struct DrTopkConfig;  // core/dr_topk.hpp

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

}  // namespace drtopk::core
