// Dr. Top-k: the delegate-centric top-k pipeline (Sections 3-5).
//
//   input vector --(1) delegate vector construction--> delegate vector
//                --(2) first top-k  --> threshold kappa + taken delegates
//                --(3) concatenation (Rule 2 filtering, Rule 3 skipping)
//                --(4) second top-k --> final top-k
//
// Correctness rests on three rules, all unit-tested against brute force:
//  * Rule 1: a subrange whose maximum delegate is not among the top-k of
//    the delegate vector contributes nothing to the final top-k.
//  * Rule 2: kappa = min(top-k(D)) lower-bounds the final k-th element, so
//    elements < kappa can be filtered out during concatenation.
//  * Rule 3 (beta delegates): if not all beta delegates of a subrange are
//    taken, none of its *non-delegate* elements can reach the final top-k —
//    the subrange is skipped entirely and only its taken delegates remain
//    candidates.
//
// As the paper states them (and as the legacy three-pass stage 3, the
// Rule-2 ablation, a kappa hook and a recall target still run them), the
// taken set is "every delegate >= kappa": a superset of the exact top-k(D)
// that lets the first top-k stop its radix refinement one digit early
// (Section 4.3's skipped last iteration).
//
// The default exact pipeline runs them tie-aware (tie_aware_stage3): taken
// means "> kappa", a subrange streams only when every real delegate is
// > kappa, and the candidates are G = {x in V : x > kappa} — a subrange
// whose smallest real delegate is <= kappa holds no non-delegate above
// kappa. Every kappa the pipeline derives from its own vector (the exact
// k-th delegate, a Section 4.3 relaxed prefix of it, a group's batched
// exact selection) has at least k keys >= it, so the answer is the top-k of
// G when |G| > k, and otherwise G padded to k with copies of kappa
// (expand_skipped_answer), with no second top-k at all. On tie-heavy data
// (CD's ~65K copies of the maximum key) this drops every copy of kappa from
// stage 3 and 4; a kappa equal to the key type's maximum leaves G empty and
// stage 3 launches nothing.
//
// Entry points:
//  * dr_topk_keys      — the full pipeline (stages 1-4);
//  * dr_topk_from_delegates — stages 2-4 of one query over a prebuilt
//    delegate vector (dr_topk_keys' second half). The serving layer does
//    not call it: a group setup runs stages 2-3 once, at its largest
//    riding k, and answers every member from that one candidate set
//    (topk::batched_topk, core/concat_batched.hpp);
//  * ExecPlan          — an externally supplied (alpha, beta) geometry,
//    e.g. from serve::PlanCache, that skips the alpha tuner.
#pragma once

#include <algorithm>
#include <functional>
#include <limits>
#include <vector>

#include "core/alpha_tuner.hpp"
#include "core/concat_batched.hpp"
#include "core/delegate.hpp"
#include "core/fidelity.hpp"
#include "topk/batched.hpp"
#include "topk/topk.hpp"

namespace drtopk::core {

/// Pipeline configuration: stage algorithms, the alpha/beta delegate
/// geometry, and the optimization toggles that keep earlier hot-path
/// designs measurable as baselines.
struct DrTopkConfig {
  u32 beta = 2;       ///< delegates per subrange (1 = maximum delegate only)
  int alpha = -1;     ///< log2(subrange size); -1 = auto (Rule 4)
  double tuner_const = 3.0;  ///< Rule 4 Const (paper-tuned value)
  bool filtering = true;     ///< Rule 2 delegate-top-k-enabled filtering
  bool skip_last_first_iter = true;  ///< Section 4.3 first top-k relaxation
  /// Fused stage 3: ONE launch (core/concat_batched.hpp) classifies the
  /// delegates chunk by chunk, appends the taken delegates of partial
  /// subranges and streams the qualified ones into a candidate span sized
  /// before the launch. `false` replays the original three-pass stage 3 —
  /// kept as the measurable baseline and exercised by the parity tests.
  bool fused_concat = true;
  /// Single-launch shared-memory sort-and-choose — a one-segment
  /// topk::batched_topk — for the first/second top-k whenever their input
  /// fits one SM's shared memory. The later pipeline stages run on inputs
  /// orders of magnitude smaller than |V|; at serving rates they are
  /// launch-overhead bound, and one launch beats a multi-pass radix
  /// refinement. Applies only when the stage's algorithm is the kRadixFlag
  /// default, so engine-comparison figures measure what they claim to.
  bool small_input_shared = true;
  ConstructOpts construct;
  topk::Algo first_algo = topk::Algo::kRadixFlag;
  topk::Algo second_algo = topk::Algo::kRadixFlag;

  /// k-selection mode: only the k-th element is needed (the paper's
  /// distinction in Section 1). The final stage runs a pure k-selection on
  /// the candidates and skips the collection pass; result.keys holds just
  /// the k-th key.
  bool selection_only = false;

  /// Optional hook invoked with the locally derived threshold kappa right
  /// after the first top-k; its return value replaces kappa. Distributed
  /// Dr. Top-k uses this to exchange the k-th delegate across GPUs
  /// (Section 5.4's optional filter-sharpening step). The returned value
  /// must still lower-bound the global k-th element; it is carried as u64
  /// regardless of key width.
  std::function<u64(u64)> kappa_hook;

  /// Exactness policy (core/fidelity.hpp). Exact (the default) is
  /// bit-identical to the pipeline as it always was. A recall target
  /// switches to the per-partition approximate mode: unless alpha is
  /// pinned, alpha AND beta come from the error budget (approx_geometry —
  /// the fewest delegates whose expected misses fit the budget),
  /// classification is delegates-only (no Rule-2 qualified streaming),
  /// and the first top-k keeps its relaxed threshold past the 4k bound
  /// that exact mode enforces (counted in StageBreakdown::guard_skips).
  /// The answer is the top-k of the per-subrange top-beta delegates, with
  /// E[recall] >= the target.
  FidelityPolicy fidelity;
};

/// alpha sentinel: delegation was *determined* infeasible (k too close to
/// n) — replaying it goes straight to the direct top-k without re-running
/// the tuner. Distinct from -1, which means "not yet resolved: auto-tune".
inline constexpr int kDirectAlpha = -2;

/// A fully resolved execution plan: the delegate geometry the alpha tuner
/// would decide, captured so steady-state callers (serve::PlanCache) can
/// skip tuning entirely and replay the decision. Engines are not part of
/// a plan: they come from the caller's base configuration.
struct ExecPlan {
  int alpha = -1;  ///< log2 subrange size; -1 = auto, kDirectAlpha = direct
  u32 beta = 2;
};

/// Applies a plan's geometry onto a base configuration.
inline DrTopkConfig apply_plan(DrTopkConfig cfg, const ExecPlan& p) {
  cfg.alpha = p.alpha;
  cfg.beta = p.beta;
  return cfg;
}

/// A delegate geometry: subranges of 2^alpha elements, each contributing
/// its top `beta`. alpha < 0 means delegation is infeasible (or pointless)
/// for the shape — the pipeline runs a direct top-k.
struct DelegateGeometry {
  int alpha = -1;
  u32 beta = 1;
};

/// Fewest subranges an approximate geometry may use: below this the
/// construction degenerates into a handful of very long warp scans.
inline constexpr u64 kApproxMinSubranges = 64;

/// The approximate mode's geometry for a top-k of |V| = n under policy
/// `f`: over every feasible (alpha, beta <= kMaxBeta) with at least
/// kApproxMinSubranges subranges, beta below the subrange length and at
/// least k real delegates (real_delegate_count: the answer is drawn from
/// them, and a short tail subrange's padding slots hold no element), the
/// fewest delegates S * beta whose expected misses
/// (approx_expected_misses) stay within approx_miss_budget; ties go to the
/// fewer expected misses. Bigger subranges with more delegates each reach
/// a target with far fewer delegates than beta = 1 (arXiv 2506.04165):
/// k = 4096 at rho = 0.99 on 2^20 keys needs 4096 x 4 delegates instead
/// of 2^19 x 1. Returns alpha = -1 when no geometry meets the budget — the
/// direct top-k is then exact and cheaper than delegating everything.
inline DelegateGeometry approx_geometry(u64 n, u64 k, const FidelityPolicy& f) {
  DelegateGeometry best;
  if (n < 2 || k * 2 > n) return best;
  const double budget = approx_miss_budget(k, f);
  u64 best_len = 0;
  double best_miss = 0.0;
  for (int alpha = 1; (u64{1} << alpha) <= n; ++alpha) {
    const u64 len = u64{1} << alpha;
    const u64 subranges = (n + len - 1) >> alpha;
    if (subranges < kApproxMinSubranges) break;
    for (u32 beta = 1; beta <= kMaxBeta && beta < len; ++beta) {
      if (real_delegate_count(n, alpha, beta) < k) continue;
      const double miss = approx_expected_misses(k, subranges, beta);
      if (miss > budget) continue;
      const u64 dlen = subranges * beta;
      if (best.alpha < 0 || dlen < best_len ||
          (dlen == best_len && miss < best_miss)) {
        best = {alpha, beta};
        best_len = dlen;
        best_miss = miss;
      }
      break;  // a larger beta at this alpha only adds delegates
    }
  }
  return best;
}

/// Resolves the pipeline's delegate geometry for (n, k) — the single source
/// of truth shared by dr_topk_keys, the serving layer's shared
/// construction, and plan calibration. An explicit cfg.alpha pins the
/// geometry to (cfg.alpha, cfg.beta) under either policy (this is how a
/// calibrated ExecPlan replays); otherwise exact fidelity takes the
/// configured beta with Rule 4's closed-form alpha, and a recall target
/// takes both from approx_geometry. Feasibility-clamped; alpha = -1 when
/// no feasible geometry exists (k too close to n).
inline DelegateGeometry resolve_geometry(u64 n, u64 k, const DrTopkConfig& cfg) {
  if (cfg.alpha <= kDirectAlpha) return {};  // calibrated: go direct, no tuner
  if (cfg.alpha < 0 && !cfg.fidelity.exact())
    return approx_geometry(n, k, cfg.fidelity);
  const u32 beta = std::clamp<u32>(cfg.beta, 1, kMaxBeta);
  const int alpha = cfg.alpha >= 0
                        ? cfg.alpha
                        : AlphaTuner{cfg.tuner_const}.rule4_alpha(n, k);
  return {clamp_alpha(n, k, beta, alpha), beta};
}

/// Per-stage accounting: the quantities plotted in Figures 6/7/10/13/15
/// (stage times) and Figures 20/21 (workload = vector sizes).
struct StageBreakdown {
  double construct_ms = 0, first_ms = 0, concat_ms = 0, second_ms = 0;
  vgpu::KernelStats construct_stats, first_stats, concat_stats, second_stats;
  u64 delegate_len = 0;  ///< |D| — the first top-k's workload
  u64 concat_len = 0;    ///< candidate count — the second top-k's workload:
                         ///< keys > kappa (tie-aware), >= kappa otherwise
  u64 num_subranges = 0;
  u64 qualified_subranges = 0;  ///< subranges streamed (Rule 3 survivors):
                                ///< every real delegate > kappa (tie-aware)
                                ///< or >= kappa
  u64 taken_delegates = 0;      ///< delegates > kappa (tie-aware) or >= kappa
  int alpha = 0;
  u32 beta = 1;
  bool second_skipped = false;  ///< no second top-k: tie-aware, at most k
                                ///< candidates (the answer is them padded
                                ///< with kappa); otherwise the Rule 3 fast
                                ///< path (Figure 8b)
  bool fallback_direct = false; ///< k too large for delegation; ran directly
  u64 guard_trips = 0;  ///< declined last-digit skips: > 4k delegates
                        ///< reached the relaxed prefix (tie-heavy data)
  u64 guard_skips = 0;  ///< relaxed thresholds a recall target kept past 4k

  double total_ms() const {
    return construct_ms + first_ms + concat_ms + second_ms;
  }
  vgpu::KernelStats total_stats() const {
    return construct_stats + first_stats + concat_stats + second_stats;
  }

  StageBreakdown& operator+=(const StageBreakdown& o) {
    construct_ms += o.construct_ms;
    first_ms += o.first_ms;
    concat_ms += o.concat_ms;
    second_ms += o.second_ms;
    construct_stats += o.construct_stats;
    first_stats += o.first_stats;
    concat_stats += o.concat_stats;
    second_stats += o.second_stats;
    delegate_len += o.delegate_len;
    concat_len += o.concat_len;
    num_subranges += o.num_subranges;
    qualified_subranges += o.qualified_subranges;
    taken_delegates += o.taken_delegates;
    guard_trips += o.guard_trips;
    guard_skips += o.guard_skips;
    return *this;
  }
};

/// Whether stage 3 runs tie-aware (see the file comment): the fused engine
/// under exact fidelity with Rule 2 filtering and no kappa hook. A hook may
/// return a value above this vector's own k-th (Section 5.4), so padding
/// with it could invent keys; the legacy three-pass stage 3 and the Rule 2
/// ablation stay the paper's inclusive baselines; a recall target answers
/// from the delegates >= kappa.
inline bool tie_aware_stage3(const DrTopkConfig& cfg) {
  return cfg.fused_concat && cfg.filtering && cfg.fidelity.exact() &&
         !cfg.kappa_hook;
}

/// The answer of a skipped second top-k: the at most k candidates sorted
/// descending and padded to k with copies of kappa (only tie-aware
/// candidates, the keys strictly above kappa, ever fall short of k);
/// selection-only keeps the k-th key alone.
template <class K>
std::vector<K> expand_skipped_answer(std::span<const K> cand, K kappa, u64 k,
                                     bool selection_only) {
  assert(cand.size() <= k);
  if (selection_only)
    return {cand.size() < k ? kappa
                            : *std::min_element(cand.begin(), cand.end())};
  std::vector<K> keys(cand.begin(), cand.end());
  std::sort(keys.begin(), keys.end(), std::greater<>());
  keys.resize(k, kappa);
  return keys;
}

/// Launch geometry for one-warp-per-subrange classification kernels.
inline vgpu::Launch acc_launch_subranges(vgpu::Device& dev, u64 subranges) {
  return dev.launch_for_warp_items(std::max<u64>(1, subranges / 32),
                                   "classify");
}

/// Stages 2-4 of the pipeline over a prebuilt delegate vector: first top-k
/// on the delegates, Rule 2/3 classification + concatenation, second top-k.
/// Re-entrant — safe to call concurrently on one Device as long as each
/// caller passes its own workspace. All scratch (the candidate vector, the
/// legacy path's sid list, engine buffers) comes from `ws` and is rewound
/// before returning, so steady-state callers with a warmed workspace never
/// grow it here. The returned result (and breakdown) covers stages 2-4
/// only; the caller owns the construction accounting.
template <class K>
topk::TopkResult<K> dr_topk_from_delegates(
    vgpu::Device& dev, std::span<const K> v, u64 k,
    const DelegateVector<K>& dv, const DrTopkConfig& cfg = {},
    StageBreakdown* bd_out = nullptr,
    vgpu::Workspace& ws = vgpu::tls_workspace()) {
  using topk::Accum;
  topk::WallTimer wall;
  const u64 n = v.size();
  assert(k >= 1 && k <= n);
  assert(dv.size() >= k);  // the delegate vector must hold a top-k
  vgpu::Workspace::Scope scope(ws);
  StageBreakdown bd;
  bd.alpha = dv.alpha;
  bd.beta = dv.beta;
  bd.num_subranges = dv.num_subranges;
  bd.delegate_len = dv.size();
  const u64 len = u64{1} << dv.alpha;
  const u32 beta = dv.beta;
  std::span<const K> dkeys(dv.keys.data(), dv.keys.size());
  std::span<const u32> dsids(dv.sids.data(), dv.sids.size());

  topk::TopkResult<K> result;

  // ---- Stage 2: first top-k -> threshold kappa ----
  // A delegate vector that fits one SM's shared memory takes the
  // single-launch sort-and-choose path: exact kappa, one launch, no
  // relaxation needed. Otherwise the Section 4.3 relaxation (skip the last
  // radix digit) applies, except under a kappa_hook: the hook exists to
  // exchange the local k-th delegate across devices (Section 5.4), and a
  // prefix with its low digit zeroed is a looser bound than that.
  // Approximate fidelity (per-partition mode): the answer is the top-k of
  // the delegates themselves, so classification is delegates-only (Rule 2
  // never streams a subrange) and a relaxed threshold needs no guard — it
  // only widens the candidate superset the error budget already covers.
  const bool approx = !cfg.fidelity.exact();
  const bool small_first =
      cfg.small_input_shared &&
      cfg.first_algo == topk::Algo::kRadixFlag &&
      topk::small_topk_fits<K>(dev.profile(), dkeys.size());
  // The relaxation needs beta > 1 for the exact rules to absorb the looser
  // threshold; under approximate fidelity it is always sound (any
  // kappa <= the exact one keeps every top-k delegate a candidate).
  const bool relax =
      !small_first && cfg.skip_last_first_iter &&
      (beta > 1 || approx) && !cfg.kappa_hook &&
      cfg.first_algo == topk::Algo::kRadixFlag;
  // Relaxation guard: skipping the last digit only pays when that digit
  // barely discriminates. On tie-heavy data (e.g. ND, whose whole value
  // range fits inside one low digit) the relaxed prefix admits nearly every
  // delegate, so exact fidelity takes the skip only while at most 4k
  // delegates reach it; the radix otherwise refines the last digit.
  const u64 guard_bound = 4 * k;
  K kappa;
  // Keys strictly above kappa: fewer than k for an exact k-th delegate;
  // a relaxed prefix reports its own count of keys >= it. Bounds what the
  // tie-aware stage 3 takes (stage3_capacity).
  u64 above_kappa = k - 1;
  {
    // Defaulting stage scope: serve's "calibrate" (plan-cache probes) wins
    // when present; otherwise first-top-k launches are charged to "first".
    vgpu::StageScope stage2("first");
    if (small_first) {
      Accum a2(dev);
      const topk::BatchedSegment<K> seg{dkeys, k, 0, /*selection_only=*/true};
      kappa = topk::batched_topk<K>(a2, {&seg, 1}, ws).keys[0][0];
      bd.first_ms = a2.sim_ms();
      bd.first_stats = a2.stats();
    } else if (cfg.first_algo == topk::Algo::kRadixFlag) {
      Accum a2(dev);
      bool declined = false;
      const u64 max_taken = !relax ? 0 : approx ? ~u64{0} : guard_bound;
      kappa = topk::radix_kth_flag(a2, dkeys, k, max_taken, &declined,
                                   &above_kappa);
      if (declined) ++bd.guard_trips;
      bd.first_ms = a2.sim_ms();
      bd.first_stats = a2.stats();
    } else {
      auto fr = topk::run_topk_keys(dev, dkeys, k, cfg.first_algo, ws);
      kappa = fr.kth;
      bd.first_ms = fr.sim_ms;
      bd.first_stats = fr.stats;
    }
  }
  if (cfg.kappa_hook)
    kappa = static_cast<K>(cfg.kappa_hook(static_cast<u64>(kappa)));

  // ---- Stage 3: subrange classification + concatenation ----
  // Named scope (no block): stage 4 below force-overrides it — but only
  // when this scope actually owns the ambient label (engaged()), so an
  // enclosing "calibrate" is never clobbered.
  vgpu::StageScope stage3("concat");
  // Tie-aware: the one-pass kernel keeps its >= test against kappa + 1.
  // Nothing lies strictly above the key type's maximum, so that kappa
  // leaves the candidate set empty without a launch.
  const bool tie_aware = tie_aware_stage3(cfg);
  const bool nothing_above =
      tie_aware && kappa == std::numeric_limits<K>::max();
  Accum a3(dev);
  const u64 S = dv.num_subranges;
  u64 q_count = 0;
  std::span<K> cand;
  u64 cand_count = 0;

  // The legacy path needs the sid tags; a delegate vector built without
  // them (emit_sids=false) can only run fused — degrade gracefully rather
  // than read an empty span. Approximate fidelity also forces the fused
  // path: its delegates-only classification lives there, and the legacy
  // three-pass stage stays a faithful exact baseline.
  const bool run_fused = cfg.fused_concat || dsids.empty() || approx;
  if (nothing_above) {
    // G is empty: the answer is k copies of kappa.
  } else if (run_fused) {
    // ONE launch (core/concat_batched.hpp) classifies every subrange and
    // concatenates its candidates into a span sized before the launch:
    // the tie-aware rule takes at most above_kappa delegates, the
    // inclusive rules and a recall target at most |D|.
    const u64 taken_bound = tie_aware ? above_kappa : dkeys.size();
    cand = ws.alloc<K>(
        stage3_capacity(n, beta, dv.alpha, taken_bound, /*rule2=*/!approx));
    const Stage3Counts c = concat_stage3<K>(
        a3, v, dkeys, beta, dv.alpha,
        tie_aware ? static_cast<K>(kappa + 1) : kappa, cfg.filtering,
        /*rule2=*/!approx, cand);
    // A recall target kept the relaxed threshold whatever its taken count:
    // extra candidates only cost the (small) second top-k, never recall.
    if (relax && approx && c.taken_total > guard_bound) ++bd.guard_skips;
    q_count = c.qualified;
    bd.taken_delegates = c.taken_total;
    bd.qualified_subranges = q_count;
    cand_count = c.cand_count;
  } else {
    // Legacy three-pass stage 3 (the PR-1 baseline, kept measurable):
    // classify, re-scan for partial emission, concatenate. Requires the
    // delegate sid tags to detect padding (run_fused above degrades to the
    // fused path when they were not materialized).
    std::span<u32> qspan = ws.alloc<u32>(S);
    std::span<u64> ccount(&cand_count, 1);
    std::array<u64, 3> counters{};  // [0]=qualified, [1]=partial, [2]=taken
    std::span<u64> cspan(counters.data(), counters.size());
    auto cfg_l = acc_launch_subranges(dev, S);
    a3.launch(cfg_l, [&](vgpu::CtaCtx& cta) {
      cta.for_each_warp([&](vgpu::Warp& w) {
        for (u64 s = w.global_id(); s < S; s += w.grid_warps()) {
          const u64 real = std::min<u64>(beta, dv.subrange_len(s, n));
          auto ks = w.load_coalesced(dkeys, s * beta, beta);
          auto ss = w.load_coalesced(dsids, s * beta, beta);
          u32 taken = 0;
          for (u32 j = 0; j < beta; ++j)
            if (ss[j] != kInvalidSid && ks[j] >= kappa) ++taken;
          if (taken == 0) continue;
          w.atomic_add(cspan, 2, static_cast<u64>(taken));
          if (taken == real) {
            const u64 pos = w.atomic_add(cspan, 0, u64{1});
            w.st(qspan, pos, static_cast<u32>(s));
          } else {
            w.atomic_add(cspan, 1, static_cast<u64>(taken));
          }
        }
      });
    });
    q_count = counters[0];
    const u64 partial_total = counters[1];
    bd.taken_delegates = counters[2];
    bd.qualified_subranges = q_count;

    u64 qual_len = q_count * len;
    for (u64 i = 0; i < q_count; ++i) {
      if (qspan[i] == S - 1) {
        qual_len -= len - dv.subrange_len(S - 1, n);
        break;
      }
    }
    cand = ws.alloc<K>(partial_total + qual_len);

    // Phase B1: partial subranges contribute their taken delegates
    // (full delegate re-scan, one atomic + divergent stores per subrange).
    if (partial_total > 0) {
      auto cfg_l = acc_launch_subranges(dev, S);
      a3.launch(cfg_l, [&](vgpu::CtaCtx& cta) {
        cta.for_each_warp([&](vgpu::Warp& w) {
          for (u64 s = w.global_id(); s < S; s += w.grid_warps()) {
            const u64 real = std::min<u64>(beta, dv.subrange_len(s, n));
            auto ks = w.load_coalesced(dkeys, s * beta, beta);
            auto ss = w.load_coalesced(dsids, s * beta, beta);
            u32 taken = 0;
            for (u32 j = 0; j < beta; ++j)
              if (ss[j] != kInvalidSid && ks[j] >= kappa) ++taken;
            if (taken == 0 || taken == real) continue;
            const u64 base = w.atomic_add(ccount, 0, static_cast<u64>(taken));
            u32 out = 0;
            for (u32 j = 0; j < beta; ++j) {
              if (ss[j] != kInvalidSid && ks[j] >= kappa)
                w.st(cand, base + out++, ks[j]);
            }
          }
        });
      });
    }

    // Phase B2: warp-centric concatenation of qualified subranges.
    concat_qualified(a3, v, len, kappa, cfg.filtering,
                     std::span<const u32>(qspan.data(), qspan.size()),
                     q_count, cand, ccount);
  }
  bd.concat_ms = a3.sim_ms();
  bd.concat_stats = a3.stats();
  bd.concat_len = cand_count;

  // ---- Stage 4: second top-k (skipped entirely when at most k tie-aware
  // candidates remain, or when Rule 3 leaves the taken delegates as the
  // exact answer — Figure 8b) ----
  // Force-override stage3's ambient label; a defaulting scope would leave
  // stage-4 launches charged to "concat". No launches follow this region.
  vgpu::StageScope stage4("second", /*force=*/stage3.engaged());
  bd.second_skipped = tie_aware ? cand_count <= k
                                : (q_count == 0 && bd.taken_delegates == k);
  const std::span<const K> cview(cand.data(), cand_count);
  const bool small_second =
      !bd.second_skipped && cfg.small_input_shared &&
      cfg.second_algo == topk::Algo::kRadixFlag &&
      topk::small_topk_fits<K>(dev.profile(), cand_count);
  if (bd.second_skipped) {
    result.keys = expand_skipped_answer<K>(cview, kappa, k, cfg.selection_only);
  } else if (small_second) {
    // Candidate vector fits one SM: single-launch sort-and-choose (full
    // top-k and pure selection alike), as a one-segment batch.
    const topk::BatchedSegment<K> seg{cview, k, 0, cfg.selection_only};
    topk::Accum a4(dev);
    auto br = topk::batched_topk<K>(a4, {&seg, 1}, ws);
    bd.second_ms = a4.sim_ms();
    bd.second_stats = a4.stats();
    result.keys = std::move(br.keys[0]);
  } else if (cfg.selection_only) {
    // Pure k-selection on the candidates: no collection pass at all.
    topk::Accum a4(dev);
    const K kth = topk::radix_kth_flag(a4, cview, k);
    bd.second_ms = a4.sim_ms();
    bd.second_stats = a4.stats();
    result.keys = {kth};
  } else {
    auto sr = topk::run_topk_keys(dev, cview, k, cfg.second_algo, ws);
    bd.second_ms = sr.sim_ms;
    bd.second_stats = sr.stats;
    result.keys = std::move(sr.keys);
  }
  result.kth = result.keys.back();
  result.stats = bd.total_stats();
  result.sim_ms = bd.total_ms();
  result.wall_ms = wall.ms();
  if (bd_out) *bd_out = bd;
  return result;
}

/// Dr. Top-k over directed keys. Returns the exact top-k multiset (sorted
/// descending), total stats/simulated time, and optionally the breakdown.
/// Every scratch buffer of every stage (the delegate vector included) is
/// carved out of `ws` and rewound on return.
template <class K>
topk::TopkResult<K> dr_topk_keys(vgpu::Device& dev, std::span<const K> v,
                                 u64 k, const DrTopkConfig& cfg = {},
                                 StageBreakdown* bd_out = nullptr,
                                 vgpu::Workspace& ws = vgpu::tls_workspace()) {
  using topk::Accum;
  topk::WallTimer wall;
  const u64 n = v.size();
  assert(k >= 1 && k <= n);
  const DelegateGeometry geo = resolve_geometry(n, k, cfg);

  if (geo.alpha < 0) {
    // Delegation infeasible (k within a factor of |V|): direct top-k.
    StageBreakdown bd;
    bd.alpha = geo.alpha;
    bd.beta = geo.beta;
    bd.fallback_direct = true;
    // The direct run is the whole answer; charge it to the second
    // selection, matching where its stats land in the breakdown.
    vgpu::StageScope stage_scope("second");
    topk::TopkResult<K> result = topk::run_topk_keys(dev, v, k,
                                                     cfg.second_algo, ws);
    bd.second_ms = result.sim_ms;
    bd.second_stats = result.stats;
    bd.concat_len = n;
    // Selection-only keeps its contract on every path: just the k-th key.
    if (cfg.selection_only) result.keys = {result.kth};
    if (bd_out) *bd_out = bd;
    result.wall_ms = wall.ms();
    return result;
  }

  // ---- Stage 1: delegate vector construction ----
  vgpu::Workspace::Scope scope(ws);  // the delegate vector is call scratch
  Accum a1(dev);
  ConstructOpts copts = cfg.construct;
  // The fused stage 3 derives delegate validity analytically; skip the sid
  // array (and its stores) entirely.
  if (cfg.fused_concat) copts.emit_sids = false;
  DelegateVector<K> dv =
      build_delegate_vector(a1, v, geo.alpha, geo.beta, copts, ws);

  // ---- Stages 2-4 ----
  StageBreakdown bd;
  topk::TopkResult<K> result = dr_topk_from_delegates(dev, v, k, dv, cfg,
                                                      &bd, ws);
  bd.construct_ms = a1.sim_ms();
  bd.construct_stats = a1.stats();
  result.stats += bd.construct_stats;
  result.sim_ms += bd.construct_ms;
  result.wall_ms = wall.ms();
  if (bd_out) *bd_out = bd;
  return result;
}

/// K-selection: the value of the k-th largest key only (Section 1's
/// "k-selection algorithm"). Cheaper than the full top-k: the candidate
/// stage needs no collection pass.
template <class K>
K dr_kth_keys(vgpu::Device& dev, std::span<const K> v, u64 k,
              DrTopkConfig cfg = {}, StageBreakdown* bd_out = nullptr,
              vgpu::Workspace& ws = vgpu::tls_workspace()) {
  cfg.selection_only = true;
  return dr_topk_keys<K>(dev, v, k, cfg, bd_out, ws).kth;
}

/// Typed frontend mirroring topk::run_topk.
template <class T>
topk::TypedTopkResult<T> dr_topk(vgpu::Device& dev, std::span<const T> values,
                                 u64 k, data::Criterion criterion,
                                 const DrTopkConfig& cfg = {},
                                 StageBreakdown* bd_out = nullptr,
                                 vgpu::Workspace& ws = vgpu::tls_workspace()) {
  using Key = typename data::KeyTraits<T>::Key;
  topk::WallTimer wall;
  topk::TopkResult<Key> kr;
  if constexpr (std::is_same_v<T, u32> || std::is_same_v<T, u64>) {
    if (criterion == data::Criterion::kLargest)
      kr = dr_topk_keys<Key>(dev, values, k, cfg, bd_out, ws);
  }
  if (kr.keys.empty()) {
    topk::Accum acc(dev);
    vgpu::Workspace::Scope scope(ws);  // directed keys are call scratch
    auto keys = topk::make_directed_keys(acc, values, criterion, ws);
    kr = dr_topk_keys<Key>(dev,
                           std::span<const Key>(keys.data(), keys.size()), k,
                           cfg, bd_out, ws);
    kr.stats += acc.stats();
    kr.sim_ms += acc.sim_ms();
  }
  topk::TypedTopkResult<T> r;
  r.values.reserve(kr.keys.size());
  for (const Key key : kr.keys)
    r.values.push_back(data::value_from_directed_key<T>(key, criterion));
  r.kth = r.values.back();
  r.stats = kr.stats;
  r.sim_ms = kr.sim_ms;
  r.wall_ms = wall.ms();
  return r;
}

}  // namespace drtopk::core
