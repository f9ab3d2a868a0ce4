// Ablation: the Section 4.3 "skip the last first-top-k iteration"
// relaxation, and the guard this implementation adds on top.
//
// On UD the relaxation saves a digit pass for a negligible candidate-set
// growth. On ND (whole distribution inside one low digit) the relaxed
// prefix would admit nearly every delegate; the guard reads that count off
// the penultimate digit's histogram (taken > 4k), declines the skip and
// refines the last digit, so the relaxed row costs what the exact row does.
#include "common.hpp"

using namespace drtopk;

namespace {

void run(vgpu::Device& dev, std::span<const u32> v, u64 k, bool relax,
         const char* label) {
  core::DrTopkConfig cfg;
  cfg.skip_last_first_iter = relax;
  core::StageBreakdown bd;
  (void)core::dr_topk_keys<u32>(dev, v, k, cfg, &bd);
  std::printf("  %-16s first=%8.3f concat=%8.3f total=%8.3f taken=%-10llu"
              " |C|=%-10llu declined=%llu\n",
              label, bd.first_ms, bd.concat_ms, bd.total_ms(),
              static_cast<unsigned long long>(bd.taken_delegates),
              static_cast<unsigned long long>(bd.concat_len),
              static_cast<unsigned long long>(bd.guard_trips));
}

}  // namespace

int main(int argc, char** argv) {
  auto args = bench::Args::parse(argc, argv);
  args.default_logn(23);
  bench::print_title("Ablation", "first top-k last-digit relaxation + guard",
                     args);
  vgpu::Device dev;
  const u64 k = u64{1} << (args.logn - 8);

  for (auto d : {data::Distribution::kUniform, data::Distribution::kNormal}) {
    auto v = data::generate(args.n(), d, args.seed);
    std::span<const u32> vs(v.data(), v.size());
    std::printf("%s, k=2^%d:\n", data::to_string(d).c_str(),
                static_cast<int>(std::bit_width(k)) - 1);
    run(dev, vs, k, false, "exact kth");
    run(dev, vs, k, true, "skip if <= 4k");
  }
  std::printf("\nOn ND the relaxed prefix would admit ~every delegate (the"
              " whole value range\nlives inside the skipped digit): the"
              " guard declines the skip inside the\nfirst top-k, and the"
              " row matches the exact one.\n");
  return 0;
}
