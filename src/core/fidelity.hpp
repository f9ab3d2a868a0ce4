// Exactness as a per-query execution policy (ROADMAP item 3).
//
// Every layer of the pipeline historically *assumed* exact answers; this
// header turns that assumption into a value. A FidelityPolicy is either
// exact (the default — bit-identical to the paper's pipeline) or carries a
// recall target rho < 1, which licenses the approximate per-partition mode
// in the style of "Approximate Top-k for Increased Parallelism"
// (arXiv 2412.04358) and the generalized two-stage scheme of
// arXiv 2506.04165:
//
//   * construction keeps only each subrange's maximum (beta = 1),
//   * the answer is the top-k of the per-subrange maxima — Rule 2's
//     qualified-subrange streaming and the second-stage collection over it
//     are skipped entirely,
//   * the Section 4.3 relaxation guard never re-thresholds: a relaxed
//     kappa only widens the candidate superset, which the error budget
//     already tolerates.
//
// Recall model: with S subranges and exchangeable value placement, the
// i-th largest element is its subrange's maximum unless one of the i-1
// larger elements shares the subrange, so
//   E[recall] >= 1 - (k-1)/(2S).
// approx_min_subranges doubles that bound's requirement (margin for
// finite-sample variance) and floors it, giving the largest subrange size
// (= fewest delegates) the budget allows.
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

/// Smallest subrange count honoring the policy's error budget for a top-k
/// query: S >= (k-1)/(1-rho) keeps E[missed elements] <= k(1-rho)/2 —
/// half the budget, the other half is finite-sample margin. Floored at
/// max(64, k) so tiny queries never degenerate and the delegate vector
/// always holds a top-k.
inline u64 approx_min_subranges(u64 k, const FidelityPolicy& f) {
  const double miss = std::max(1.0 - f.recall_target, 1e-4);
  const u64 budget =
      static_cast<u64>(std::ceil(static_cast<double>(k - 1) / miss));
  return std::max<u64>({u64{64}, k, budget});
}

}  // namespace drtopk::core
