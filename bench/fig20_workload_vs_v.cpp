// Figure 20: workload (first top-k = |D|, second top-k = |concat|, and
// their sum) as a fraction of |V|, for growing |V| at fixed k. The ratio
// collapses as |V| grows — Dr. Top-k's scalability argument. The default
// pipeline's candidates are the keys strictly above kappa (tie-aware stage
// 3); the paper's inclusive workload (>= kappa, the three-pass stage 3)
// prints beside it so the figure stays comparable to the paper.
#include "common.hpp"

using namespace drtopk;

int main(int argc, char** argv) {
  auto args = bench::Args::parse(argc, argv);
  args.default_logn(24);
  bench::print_title("Figure 20", "workload vs |V| (k fixed)", args);
  vgpu::Device dev;
  // Paper: k = 2^19 at |V| up to 2^30; keep k/|V|max = 2^-11.
  const u64 k = std::max<u64>(16, args.n() >> 11);
  std::printf("k = 2^%d\n", static_cast<int>(std::bit_width(k)) - 1);
  std::printf("%-8s %14s %14s %14s %12s %14s %12s\n", "|V|", "first (|D|)",
              "second(|C|)", "sum", "sum/|V| %", "paper |C|", "paper sum %");
  core::DrTopkConfig paper;
  paper.fused_concat = false;  // the paper's inclusive >= kappa candidates
  for (u64 logn = args.logn - 8; logn <= args.logn; ++logn) {
    const u64 n = u64{1} << logn;
    if (k * 4 > n) continue;
    auto v = data::generate(n, data::Distribution::kUniform, args.seed);
    std::span<const u32> vs(v.data(), v.size());
    core::StageBreakdown bd, bp;
    (void)core::dr_topk_keys<u32>(dev, vs, k, core::DrTopkConfig{}, &bd);
    (void)core::dr_topk_keys<u32>(dev, vs, k, paper, &bp);
    const u64 sum = bd.delegate_len + bd.concat_len;
    const u64 paper_sum = bp.delegate_len + bp.concat_len;
    std::printf("2^%-6d %14llu %14llu %14llu %11.4f%% %14llu %11.4f%%\n",
                static_cast<int>(logn),
                static_cast<unsigned long long>(bd.delegate_len),
                static_cast<unsigned long long>(bd.concat_len),
                static_cast<unsigned long long>(sum),
                100.0 * static_cast<double>(sum) / static_cast<double>(n),
                static_cast<unsigned long long>(bp.concat_len),
                100.0 * static_cast<double>(paper_sum) /
                    static_cast<double>(n));
  }
  std::printf("\nsecond(|C|): keys > kappa (tie-aware); paper: keys >= kappa"
              " (fused_concat = false).\n");
  std::printf("Paper: sum falls from 76.06%% of |V| at 2^22 to 0.83%% at"
              " 2^30.\n");
  return 0;
}
