#include "core/alpha_tuner.hpp"

#include <limits>

#include "core/dr_topk.hpp"

namespace drtopk::core {

double AlphaTuner::predicted_ms(const vgpu::GpuProfile& p, u64 n, u64 k,
                                int alpha, u32 beta) {
  // Equation 6 generalized to beta delegates:
  //   T_delegate = (1 + beta*2^-a) |V| C_g + 31 beta |V| 2^-a C_s
  //   T_first    = 5 beta |V| 2^-a C_g + 2 k C_g
  //   T_concat   = k C_g + 2 k 2^a C_g
  //   T_second   = 4 k 2^a C_g
  const double nn = static_cast<double>(n);
  const double kk = static_cast<double>(k);
  const double sub = std::pow(2.0, static_cast<double>(alpha));
  const double b = static_cast<double>(beta);
  // Per-op times in the roofline units of the cost model: a 4-byte global
  // access costs 4/mem_bw seconds, a shuffle lane-op 1/shfl_glanes.
  const double t_g = 4.0 / (p.mem_bw_gbps * 1e9);
  const double t_s = 1.0 / p.shfl_glanes_per_sec();

  const double sec = ((1.0 + b / sub) * nn + 5.0 * b * nn / sub +
                      2.0 * kk + kk + 2.0 * kk * sub + 4.0 * kk * sub) * t_g +
                     31.0 * b * nn / sub * t_s;
  return sec * 1e3;
}

int clamp_alpha(u64 n, u64 k, u32 beta, int alpha) {
  if (n < 2 || k * 2 > n) return -1;
  // Feasibility: the delegate vector must hold at least k real delegates
  // (a short tail subrange's padding slots hold no element), with a
  // factor-2 headroom so the first top-k is still a real reduction.
  int max_alpha = 0;
  while ((u64{1} << (max_alpha + 1)) <= n) ++max_alpha;
  int hi = max_alpha;
  while (hi > 1 && real_delegate_count(n, hi, beta) < k) --hi;
  if (hi <= 0 || real_delegate_count(n, hi, beta) < k) return -1;
  return std::clamp(alpha, 1, hi);
}

int oracle_alpha(vgpu::Device& dev, std::span<const u32> v, u64 k,
                 const DrTopkConfig& cfg, int lo, int hi,
                 std::vector<double>* times_out) {
  int best_alpha = -1;
  double best = std::numeric_limits<double>::infinity();
  if (times_out) times_out->clear();
  for (int a = lo; a <= hi; ++a) {
    DrTopkConfig c = cfg;
    c.alpha = a;
    StageBreakdown bd;
    (void)dr_topk_keys<u32>(dev, v, k, c, &bd);
    const double t = bd.total_ms();
    if (times_out) times_out->push_back(t);
    if (t < best) {
      best = t;
      best_alpha = a;
    }
  }
  return best_alpha;
}

AlphaWalk walk_alpha(u64 n, u64 k, u32 beta, int start,
                     const std::function<double(int)>& probe) {
  AlphaWalk w;
  const int a0 = clamp_alpha(n, k, beta, start);
  if (a0 < 0) return w;
  const auto run = [&](int a) {
    const double t = probe(a);
    w.probe_ms += t;
    ++w.probes;
    return t;
  };
  w.alpha = a0;
  w.best_ms = run(a0);
  // One direction of the descent; true when it moved off the start.
  const auto descend = [&](int step) {
    bool moved = false;
    for (int a = a0 + step; clamp_alpha(n, k, beta, a) == a; a += step) {
      const double t = run(a);
      if (!(t < w.best_ms)) break;
      w.best_ms = t;
      w.alpha = a;
      moved = true;
    }
    return moved;
  };
  if (!descend(+1)) descend(-1);
  return w;
}

}  // namespace drtopk::core
