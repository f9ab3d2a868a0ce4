// Ablation: flat vs hierarchical multi-GPU reduction (Section 5.4
// anticipates "hierarchical reduction would excel when Dr. Top-k scales to
// a large number of GPUs"). Node leaders pre-merge their members' top-ks so
// the primary GPU receives #nodes messages instead of #GPUs.
#include "common.hpp"
#include "dist/multi_gpu.hpp"

using namespace drtopk;

int main(int argc, char** argv) {
  auto args = bench::Args::parse(argc, argv);
  args.default_logn(22);
  bench::print_title("Ablation", "flat vs hierarchical multi-GPU reduction",
                     args);
  auto v = data::generate(args.n(), data::Distribution::kUniform, args.seed);
  std::span<const u32> vs(v.data(), v.size());
  const u64 k = 1 << 10;

  std::printf("%-8s %14s %14s | %14s %14s\n", "#GPUs", "flat comm",
              "flat msgs@0", "hier comm", "hier msgs@0");
  for (u32 gpus : {4u, 8u, 16u, 32u}) {
    dist::MultiGpuConfig cfg;
    cfg.num_gpus = gpus;
    cfg.device_capacity_elems = args.n();
    cfg.host_threads_per_gpu = 1;
    cfg.gpus_per_node = 4;
    auto flat = dist::multi_gpu_topk(vs, k, cfg);
    cfg.hierarchical = true;
    auto hier = dist::multi_gpu_topk(vs, k, cfg);
    if (flat.keys != hier.keys) {
      std::printf("MISMATCH at %u GPUs\n", gpus);
      return 1;
    }
    std::printf("%-8u %14.3f %14llu | %14.3f %14llu\n", gpus, flat.comm_ms,
                static_cast<unsigned long long>(flat.primary_messages),
                hier.comm_ms,
                static_cast<unsigned long long>(hier.primary_messages));
  }
  std::printf("\nThe primary's receive serialization shrinks from #GPUs-1 to"
              " #nodes-1 messages;\nleaders absorb the rest in parallel.\n");
  return 0;
}
