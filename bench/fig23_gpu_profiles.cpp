// Figure 23: Dr. Top-k (radix) on V100S vs Titan Xp. Same code, different
// GpuProfile; the paper reports a 1.3-1.8x gap roughly tracking the peak
// bandwidth ratio (1134 vs 547.7 GB/s).
#include "common.hpp"

using namespace drtopk;

int main(int argc, char** argv) {
  auto args = bench::Args::parse(argc, argv);
  args.default_logn(23);
  bench::print_title("Figure 23", "V100S vs Titan Xp", args,
                     "simulated ms on each GPU profile");
  vgpu::Device v100(vgpu::GpuProfile::v100s());
  vgpu::Device xp(vgpu::GpuProfile::titan_xp());
  vgpu::Device a100(vgpu::GpuProfile::a100());
  auto v = data::generate(args.n(), data::Distribution::kUniform, args.seed);
  std::span<const u32> vs(v.data(), v.size());

  std::printf("%-10s %12s %12s %10s %12s\n", "k", "V100S (ms)",
              "TitanXp (ms)", "ratio", "A100 (ms)");
  for (u64 k : args.k_sweep()) {
    core::StageBreakdown a, b, c;
    (void)core::dr_topk_keys<u32>(v100, vs, k, core::DrTopkConfig{}, &a);
    (void)core::dr_topk_keys<u32>(xp, vs, k, core::DrTopkConfig{}, &b);
    (void)core::dr_topk_keys<u32>(a100, vs, k, core::DrTopkConfig{}, &c);
    std::printf("2^%-8d %12.3f %12.3f %9.2fx %12.3f\n",
                static_cast<int>(std::bit_width(k)) - 1, a.total_ms(),
                b.total_ms(), b.total_ms() / a.total_ms(), c.total_ms());
  }
  std::printf("\nPaper: V100S ahead of Titan Xp by 1.3-1.8x, roughly the"
              " 1134/547.7 bandwidth ratio.\nA100 (the intro's motivating"
              " GPU) added as a forward-looking profile.\n");
  return 0;
}
