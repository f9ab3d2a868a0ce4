// Exactness as a per-query execution policy.
//
// Every layer of the pipeline historically *assumed* exact answers; this
// header turns that assumption into a value. A FidelityPolicy is either
// exact (the default — bit-identical to the paper's pipeline) or carries a
// recall target rho < 1, which licenses the approximate per-partition mode
// of "Approximate Top-k for Increased Parallelism" (arXiv 2412.04358),
// generalized to top-beta per bucket as in arXiv 2506.04165:
//
//   * construction keeps each subrange's top beta (the paper's beta
//     delegates, Section 4.3), with (subrange count, beta) sized jointly
//     by core::approx_geometry,
//   * the answer is the top-k of the delegates — Rule 2's
//     qualified-subrange streaming and the second-stage collection over it
//     are skipped entirely,
//   * the first top-k keeps its Section 4.3 relaxed threshold even where
//     the guard would decline the skip in exact mode: a relaxed kappa only
//     widens the candidate superset, which the error budget already
//     tolerates.
//
// Recall model: with S subranges and exchangeable value placement, the
// number of true top-k elements landing in one subrange is
// X ~ Binomial(k, 1/S). A subrange keeping its top beta loses (X - beta)+
// of them, so
//   E[missed] = S * E[(X - beta)+]                (approx_expected_misses).
// For beta = 1 this is at most the first-order bound k(k-1)/(2S), i.e.
// E[recall] >= 1 - (k-1)/(2S). The geometry keeps E[missed] within half
// the allowance k(1 - rho) — the other half is finite-sample margin — and
// picks the fewest delegates S * beta that does.
//
// The policy is quantized to basis points wherever it acts as a key
// (admission-group signatures, PlanCache keys) so that two
// "0.9" targets computed through different arithmetic never split a group.
#pragma once

#include <algorithm>
#include <cmath>

#include "vgpu/types.hpp"

namespace drtopk::core {

/// Per-query exactness policy: exact (recall_target == 1) or a recall
/// target in (0, 1). Exact is the default everywhere — approximate
/// execution is always an explicit opt-in.
struct FidelityPolicy {
  /// Fraction of the true top-k the answer must contain (in expectation,
  /// with margin). 1.0 = exact, bit-identical pipeline.
  double recall_target = 1.0;

  /// True when the policy demands the exact pipeline.
  bool exact() const { return recall_target >= 1.0; }

  /// The target quantized to basis points (0..10000); the form used in
  /// every key/signature so float noise cannot split groups or plans.
  u32 quantized_bp() const {
    const double r = std::clamp(recall_target, 0.0, 1.0);
    return static_cast<u32>(std::lround(r * 10000.0));
  }

  /// Named constructor for a recall-target policy (clamped to [0.5, 1]:
  /// below one-half the per-partition scheme is the wrong tool).
  static FidelityPolicy approx(double rho) {
    return FidelityPolicy{std::clamp(rho, 0.5, 1.0)};
  }
};

/// Policies compare by their quantized form — the same equivalence every
/// signature/key uses.
inline bool operator==(const FidelityPolicy& a, const FidelityPolicy& b) {
  return a.quantized_bp() == b.quantized_bp();
}

/// Expected true top-k elements missing from the delegates when each of
/// `subranges` equal buckets keeps its top `beta`: S * E[(X - beta)+] with
/// X ~ Binomial(k, 1/S) (see the recall model above). Closed form through
/// the lower tail, E[(X - b)+] = E[X] - b + sum_{x<b} (b - x) P(X = x),
/// so the cost is O(beta) whatever k is.
inline double approx_expected_misses(u64 k, u64 subranges, u32 beta) {
  if (k <= beta) return 0.0;
  const double kk = static_cast<double>(k);
  if (subranges <= 1) return kk - beta;
  const double s = static_cast<double>(subranges);
  const double p = 1.0 / s;
  double px = std::exp(kk * std::log1p(-p));  // P(X = 0)
  double below = 0.0;
  for (u32 x = 0; x < beta; ++x) {
    below += static_cast<double>(beta - x) * px;
    px *= (kk - x) / (x + 1.0) * p / (1.0 - p);
  }
  return std::max(0.0, kk - s * beta + s * below);
}

/// The expected-miss budget of a top-k query under policy `f`: half the
/// allowance k(1 - rho); the other half is finite-sample margin.
inline double approx_miss_budget(u64 k, const FidelityPolicy& f) {
  return static_cast<double>(k) * (1.0 - f.recall_target) / 2.0;
}

}  // namespace drtopk::core
