// Figure 21: workload vs k at fixed |V|. Larger k leaves less to skip; the
// first top-k's workload (the beta-sized delegate vector) dominates. The
// default pipeline's candidates are the keys strictly above kappa
// (tie-aware stage 3); the paper's inclusive workload (>= kappa, the
// three-pass stage 3) prints beside it so the figure stays comparable.
#include "common.hpp"

using namespace drtopk;

int main(int argc, char** argv) {
  auto args = bench::Args::parse(argc, argv);
  args.default_logn(24);
  bench::print_title("Figure 21", "workload vs k (|V| fixed)", args);
  vgpu::Device dev;
  auto v = data::generate(args.n(), data::Distribution::kUniform, args.seed);
  std::span<const u32> vs(v.data(), v.size());

  std::printf("%-10s %14s %14s %14s %12s %14s %12s\n", "k", "first (|D|)",
              "second(|C|)", "sum", "sum/|V| %", "paper |C|", "paper sum %");
  core::DrTopkConfig paper;
  paper.fused_concat = false;  // the paper's inclusive >= kappa candidates
  for (u64 k : args.k_sweep()) {
    core::StageBreakdown bd, bp;
    (void)core::dr_topk_keys<u32>(dev, vs, k, core::DrTopkConfig{}, &bd);
    (void)core::dr_topk_keys<u32>(dev, vs, k, paper, &bp);
    const u64 sum = bd.delegate_len + bd.concat_len;
    const u64 paper_sum = bp.delegate_len + bp.concat_len;
    std::printf("2^%-8d %14llu %14llu %14llu %11.4f%% %14llu %11.4f%%\n",
                static_cast<int>(std::bit_width(k)) - 1,
                static_cast<unsigned long long>(bd.delegate_len),
                static_cast<unsigned long long>(bd.concat_len),
                static_cast<unsigned long long>(sum),
                100.0 * static_cast<double>(sum) /
                    static_cast<double>(args.n()),
                static_cast<unsigned long long>(bp.concat_len),
                100.0 * static_cast<double>(paper_sum) /
                    static_cast<double>(args.n()));
  }
  std::printf("\nsecond(|C|): keys > kappa (tie-aware); paper: keys >= kappa"
              " (fused_concat = false).\n");
  std::printf("Paper (|V|=2^30): sum climbs from 0.0015%% to 15.91%% of"
              " |V| as k goes 2^0 -> 2^24;\nfirst top-k dominates (beta"
              " doubles the delegate vector).\n");
  return 0;
}
