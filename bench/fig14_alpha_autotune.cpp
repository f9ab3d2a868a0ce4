// Figure 14: auto-tuned alpha (Rule 4 closed form, Const=3) vs the oracle
// alpha (exhaustive sweep) across k. The paper shows the two perform
// near-identically. A third column is the measured plan the serving plan
// cache calibrates: core::walk_alpha, stepping from Rule 4 over full-size
// runs.
#include "common.hpp"

using namespace drtopk;

int main(int argc, char** argv) {
  auto args = bench::Args::parse(argc, argv);
  args.default_logn(22);
  bench::print_title("Figure 14", "oracle alpha vs auto-tuned alpha", args);
  vgpu::Device dev;
  auto v = data::generate(args.n(), data::Distribution::kUniform, args.seed);
  std::span<const u32> vs(v.data(), v.size());

  std::printf("%-10s %8s %8s %8s %7s %12s %12s %10s %10s\n", "k", "a_tuned",
              "a_oracle", "a_walk", "probes", "t_tuned", "t_oracle",
              "tuned/orc", "walk/orc");
  for (u64 k : args.k_sweep()) {
    core::DrTopkConfig cfg;
    const int max_alpha = core::clamp_alpha(args.n(), k, cfg.beta, 30);
    if (max_alpha < 1) continue;
    std::vector<double> times;
    const int lo = 1;
    const int oracle =
        core::oracle_alpha(dev, vs, k, cfg, lo, max_alpha, &times);
    const int tuned = core::clamp_alpha(
        args.n(), k, cfg.beta,
        core::AlphaTuner{cfg.tuner_const}.rule4_alpha(args.n(), k));
    // The plan cache's walk, probing the same deterministic full-size runs
    // the oracle sweep just timed.
    const core::AlphaWalk walk = core::walk_alpha(
        args.n(), k, cfg.beta, tuned,
        [&](int a) { return times[static_cast<size_t>(a - lo)]; });
    const double t_tuned = times[static_cast<size_t>(tuned - lo)];
    const double t_oracle = times[static_cast<size_t>(oracle - lo)];
    std::printf("2^%-8d %8d %8d %8d %7u %12.3f %12.3f %9.3fx %9.3fx\n",
                static_cast<int>(std::bit_width(k)) - 1, tuned, oracle,
                walk.alpha, walk.probes, t_tuned, t_oracle,
                t_tuned / t_oracle, walk.best_ms / t_oracle);
  }
  std::printf("\nPaper: auto-tuned alpha tracks the oracle across the whole"
              " k range.\na_walk: the serving plan cache's measured alpha"
              " (core::walk_alpha from a_tuned).\n");
  return 0;
}
