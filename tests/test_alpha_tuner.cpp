// Tests for Rule 4's subrange-size tuning: closed-form values, feasibility
// clamping, convexity of the Equation-6 model, and agreement between the
// auto-tuned alpha and the oracle sweep (Figure 14's claim).
#include <gtest/gtest.h>

#include <cmath>

#include "core/dr_topk.hpp"
#include "data/distributions.hpp"

namespace drtopk::core {
namespace {

TEST(Rule4, PaperHeadlineValue) {
  // Section 5.3: "when |V|=2^30 and k=2^24, the optimal alpha = 4".
  AlphaTuner t;
  EXPECT_EQ(t.rule4_alpha(u64{1} << 30, u64{1} << 24), 4);
}

TEST(Rule4, GrowsWithNShrinksWithK) {
  AlphaTuner t;
  const int a_base = t.rule4_alpha(u64{1} << 30, 1 << 10);
  EXPECT_GT(t.rule4_alpha(u64{1} << 32, 1 << 10), a_base - 1);
  EXPECT_LT(t.rule4_alpha(u64{1} << 30, 1 << 20), a_base);
  // Doubling |V| or halving k moves alpha by half a step; over four
  // doublings the shift is exactly 2.
  EXPECT_EQ(t.rule4_alpha(u64{1} << 30, 1 << 10) + 2,
            t.rule4_alpha(u64{1} << 30, 1 << 6));
}

TEST(Rule4, AnalyticConstIsPositiveAndBelowTuned) {
  const double c = AlphaTuner::analytic_const(vgpu::GpuProfile::v100s());
  // Eq. 11's first-principles part; the paper's tuned Const = 3 includes an
  // additional empirical Delta' correction on top.
  EXPECT_GT(c, 0.0);
  EXPECT_LT(c, 3.0);
}

TEST(ClampAlpha, KeepsDelegateVectorAboveK) {
  // alpha must not make |D| < k.
  const u64 n = 1 << 20;
  const u64 k = 1 << 12;
  const int a = clamp_alpha(n, k, 1, 30);
  ASSERT_GT(a, 0);
  const u64 subranges = n >> a;
  EXPECT_GE(subranges, k);
}

TEST(ClampAlpha, CountsOnlyRealDelegates) {
  // 2^17 + 1 keys leave a one-element tail subrange: at alpha 7 the 1025
  // subranges x beta 4 give 4100 slots but only 4097 real delegates.
  const u64 n = (u64{1} << 17) + 1;
  EXPECT_EQ(real_delegate_count(n, 7, 4), 4097u);
  EXPECT_EQ(clamp_alpha(n, 4097, 4, 7), 7);
  const int a = clamp_alpha(n, 4098, 4, 7);
  ASSERT_GT(a, 0);
  EXPECT_LT(a, 7);
  EXPECT_GE(real_delegate_count(n, a, 4), 4098u);
}

TEST(ClampAlpha, InfeasibleWhenKNearN) {
  EXPECT_EQ(clamp_alpha(1000, 600, 1, 5), -1);
  EXPECT_EQ(clamp_alpha(16, 9, 2, 2), -1);
}

TEST(ClampAlpha, BetaExtendsFeasibility) {
  const u64 n = 1 << 12;
  const u64 k = 1 << 10;
  // beta=1: subranges must be >= 2k = 2^11 -> alpha <= 1.
  const int a1 = clamp_alpha(n, k, 1, 8);
  const int a4 = clamp_alpha(n, k, 4, 8);
  ASSERT_GT(a1, 0);
  ASSERT_GT(a4, 0);
  EXPECT_GE(a4, a1);
}

TEST(Eq6Model, ConvexInAlpha) {
  const auto& p = vgpu::GpuProfile::v100s();
  for (u64 k : {u64{1} << 8, u64{1} << 13, u64{1} << 18}) {
    const u64 n = u64{1} << 30;
    // Unimodal: strictly decreasing then strictly increasing.
    int direction_changes = 0;
    double prev = AlphaTuner::predicted_ms(p, n, k, 1);
    bool increasing = false;
    for (int a = 2; a <= 24; ++a) {
      const double cur = AlphaTuner::predicted_ms(p, n, k, a);
      if (cur > prev && !increasing) {
        increasing = true;
        ++direction_changes;
      }
      if (cur < prev && increasing) ++direction_changes;  // would break unimodality
      prev = cur;
    }
    EXPECT_LE(direction_changes, 1) << "k=" << k;
  }
}

TEST(Eq6Model, MinimizerTracksRule4) {
  const auto& p = vgpu::GpuProfile::v100s();
  AlphaTuner t;
  t.const_term = AlphaTuner::analytic_const(p);
  for (u64 k : {u64{1} << 10, u64{1} << 16, u64{1} << 20}) {
    const u64 n = u64{1} << 30;
    int best = 1;
    double best_t = AlphaTuner::predicted_ms(p, n, k, 1);
    for (int a = 2; a <= 26; ++a) {
      const double cur = AlphaTuner::predicted_ms(p, n, k, a);
      if (cur < best_t) {
        best_t = cur;
        best = a;
      }
    }
    // The closed form matches the model's argmin to within a step.
    EXPECT_NEAR(best, t.rule4_alpha(n, k), 1.01) << "k=" << k;
  }
}

TEST(Oracle, AutoTunedAlphaIsNearOracle) {
  vgpu::Device dev(vgpu::GpuProfile::v100s());
  const u64 n = 1 << 18;
  const u64 k = 1 << 6;
  auto v = data::generate(n, data::Distribution::kUniform, 21);
  std::span<const u32> vs(v.data(), v.size());
  DrTopkConfig cfg;
  cfg.beta = 2;
  std::vector<double> times;
  const int oracle = oracle_alpha(dev, vs, k, cfg, 2, 12, &times);
  ASSERT_EQ(times.size(), 11u);
  const int tuned = clamp_alpha(n, k, cfg.beta,
                                AlphaTuner{cfg.tuner_const}.rule4_alpha(n, k));
  // Figure 14: auto-tuned alpha performs like the oracle. Allow the flat
  // bottom of the convex bowl (+/- 2 steps) and require the *time* at the
  // tuned alpha to be within 30% of the oracle's.
  ASSERT_GT(tuned, 0);
  EXPECT_LE(std::abs(oracle - tuned), 3);
  const double t_oracle = *std::min_element(times.begin(), times.end());
  const double t_tuned = times[static_cast<size_t>(tuned - 2)];
  EXPECT_LT(t_tuned, 1.3 * t_oracle);
}

TEST(Oracle, MeasuredCurveIsRoughlyUnimodal) {
  vgpu::Device dev(vgpu::GpuProfile::v100s());
  const u64 n = 1 << 18;
  const u64 k = 1 << 8;
  auto v = data::generate(n, data::Distribution::kUniform, 22);
  std::span<const u32> vs(v.data(), v.size());
  std::vector<double> times;
  (void)oracle_alpha(dev, vs, k, DrTopkConfig{}, 1, 10, &times);
  // Endpoints are worse than the minimum — the convex-bowl shape of
  // Figure 13 (exact unimodality is not asserted; measurement noise).
  const double best = *std::min_element(times.begin(), times.end());
  EXPECT_GT(times.front(), best);
  EXPECT_GT(times.back(), best);
}

/// A walk over a synthetic convex curve (x - argmin)^2 + 1 that logs
/// every alpha it probed.
AlphaWalk walk_bowl(u64 n, u64 k, int start, int argmin,
                    std::vector<int>* probed) {
  return walk_alpha(n, k, 2, start, [&](int a) {
    probed->push_back(a);
    return static_cast<double>((a - argmin) * (a - argmin)) + 1.0;
  });
}

TEST(Walk, StepsUpFirstAndStopsAtTheFirstRise) {
  const u64 n = u64{1} << 20, k = 4096;
  std::vector<int> probed;
  const AlphaWalk w = walk_bowl(n, k, 5, 7, &probed);
  EXPECT_EQ(w.alpha, 7);
  EXPECT_EQ(probed, (std::vector<int>{5, 6, 7, 8}));
  EXPECT_EQ(w.probes, 4u);
  EXPECT_DOUBLE_EQ(w.best_ms, 1.0);
  EXPECT_DOUBLE_EQ(w.probe_ms, 5.0 + 2.0 + 1.0 + 2.0);
}

TEST(Walk, StepsDownOnlyWhenTheFirstStepUpLoses) {
  const u64 n = u64{1} << 20, k = 4096;
  std::vector<int> probed;
  AlphaWalk w = walk_bowl(n, k, 6, 4, &probed);
  EXPECT_EQ(w.alpha, 4);
  EXPECT_EQ(probed, (std::vector<int>{6, 7, 5, 4, 3}));
  // At the minimum already: both neighbours, three probes.
  probed.clear();
  w = walk_bowl(n, k, 6, 6, &probed);
  EXPECT_EQ(w.alpha, 6);
  EXPECT_EQ(probed, (std::vector<int>{6, 7, 5}));
}

TEST(Walk, StaysInsideTheFeasibleRange) {
  // k = 4096 of 2^16 at beta 2 allows alpha 1..5: the start clamps to 5 and
  // the walk never probes past either end.
  const u64 n = u64{1} << 16, k = 4096;
  ASSERT_EQ(clamp_alpha(n, k, 2, 64), 5);
  std::vector<int> probed;
  AlphaWalk w = walk_bowl(n, k, 9, 12, &probed);
  EXPECT_EQ(w.alpha, 5);
  EXPECT_EQ(probed, (std::vector<int>{5, 4}));
  probed.clear();
  w = walk_bowl(n, k, 3, -4, &probed);
  EXPECT_EQ(w.alpha, 1);
  EXPECT_EQ(probed, (std::vector<int>{3, 4, 2, 1}));
  // No feasible alpha at all: no probe, no pick.
  probed.clear();
  w = walk_bowl(1000, 600, 5, 5, &probed);
  EXPECT_EQ(w.alpha, -1);
  EXPECT_EQ(w.probes, 0u);
  EXPECT_TRUE(probed.empty());
}

TEST(Walk, AFlatStepEndsTheWalk) {
  // Only a strictly faster probe moves the pick: ties keep the start.
  std::vector<int> probed;
  const AlphaWalk w = walk_alpha(u64{1} << 20, 4096, 2, 6, [&](int a) {
    probed.push_back(a);
    return 1.0;
  });
  EXPECT_EQ(w.alpha, 6);
  EXPECT_EQ(probed, (std::vector<int>{6, 7, 5}));
}

}  // namespace
}  // namespace drtopk::core
