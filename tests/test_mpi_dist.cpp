// Tests for the message-passing substrate and distributed Dr. Top-k.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>

#include "data/distributions.hpp"
#include "dist/multi_gpu.hpp"
#include "mpi/comm.hpp"
#include "topk/common.hpp"

namespace drtopk {
namespace {

using data::Distribution;

// ---- Comm substrate ----

TEST(Comm, SendRecvRoundTrip) {
  mpi::run(2, [](mpi::Comm& c) {
    if (c.rank() == 0) {
      std::vector<u32> payload = {1, 2, 3, 4};
      c.send<u32>(1, 7, payload);
    } else {
      auto got = c.recv<u32>(0, 7);
      EXPECT_EQ(got, (std::vector<u32>{1, 2, 3, 4}));
    }
  });
}

TEST(Comm, MessagesDoNotOvertakePerTriple) {
  mpi::run(2, [](mpi::Comm& c) {
    if (c.rank() == 0) {
      for (u32 i = 0; i < 100; ++i) {
        std::vector<u32> m = {i};
        c.send<u32>(1, 3, m);
      }
    } else {
      for (u32 i = 0; i < 100; ++i) {
        auto got = c.recv<u32>(0, 3);
        ASSERT_EQ(got[0], i);  // MPI non-overtaking order
      }
    }
  });
}

TEST(Comm, TagsKeepStreamsSeparate) {
  mpi::run(2, [](mpi::Comm& c) {
    if (c.rank() == 0) {
      std::vector<u32> a = {10}, b = {20};
      c.send<u32>(1, 1, a);
      c.send<u32>(1, 2, b);
    } else {
      // Receive in the opposite order of sending.
      EXPECT_EQ(c.recv<u32>(0, 2)[0], 20u);
      EXPECT_EQ(c.recv<u32>(0, 1)[0], 10u);
    }
  });
}

TEST(Comm, GatherCollectsAllRanksAtRoot) {
  mpi::run(4, [](mpi::Comm& c) {
    std::vector<u64> mine = {static_cast<u64>(c.rank()) * 100};
    auto all = c.gather<u64>(mine, 0);
    if (c.rank() == 0) {
      ASSERT_EQ(all.size(), 4u);
      for (int r = 0; r < 4; ++r)
        EXPECT_EQ(all[static_cast<size_t>(r)][0], static_cast<u64>(r) * 100);
    } else {
      EXPECT_TRUE(all.empty());
    }
  });
}

TEST(Comm, BcastDeliversRootPayload) {
  mpi::run(3, [](mpi::Comm& c) {
    std::vector<u32> data;
    if (c.rank() == 1) data = {5, 6};
    auto got = c.bcast<u32>(data, 1);
    EXPECT_EQ(got, (std::vector<u32>{5, 6}));
  });
}

TEST(Comm, AllreduceMaxAgreesEverywhere) {
  std::array<u64, 5> results{};
  mpi::run(5, [&](mpi::Comm& c) {
    const u64 mine = static_cast<u64>((c.rank() * 37) % 11);
    results[static_cast<size_t>(c.rank())] = c.allreduce_max(mine);
  });
  for (u64 r : results) EXPECT_EQ(r, 8u);  // max of {0,4,8,1,5} (r*37 mod 11)
}

TEST(Comm, BarrierSynchronizesPhases) {
  std::atomic<int> phase1{0};
  std::atomic<bool> violated{false};
  mpi::run(4, [&](mpi::Comm& c) {
    phase1.fetch_add(1);
    c.barrier();
    if (phase1.load() != 4) violated = true;
    c.barrier();
  });
  EXPECT_FALSE(violated.load());
}

TEST(Comm, StatsAndCostModel) {
  mpi::CommCostModel cost;
  cost.latency_ms = 1.0;
  cost.bw_gbps = 1.0;
  auto stats = mpi::run(
      2,
      [](mpi::Comm& c) {
        if (c.rank() == 0) {
          std::vector<u32> m(250, 0);  // 1000 bytes
          c.send<u32>(1, 0, m);
        } else {
          (void)c.recv<u32>(0, 0);
        }
      },
      cost);
  EXPECT_EQ(stats[0].msgs_sent, 1u);
  EXPECT_EQ(stats[0].bytes_sent, 1000u);
  EXPECT_EQ(stats[1].msgs_received, 1u);
  // 1 ms latency + 1000 B / 1 GB/s = 1.001 ms.
  EXPECT_NEAR(stats[1].modeled_ms, 1.001, 1e-6);
}

TEST(Comm, PropagatesRankExceptions) {
  EXPECT_THROW(mpi::run(2,
                        [](mpi::Comm& c) {
                          if (c.rank() == 1) throw std::runtime_error("boom");
                          // rank 0 exits without communicating
                        }),
               std::runtime_error);
}

// ---- Distributed Dr. Top-k ----

class MultiGpuCorrectness : public ::testing::TestWithParam<u32> {};

TEST_P(MultiGpuCorrectness, ExactAcrossGpuCounts) {
  const u64 n = 1 << 18;
  const u64 k = 128;
  auto v = data::generate(n, Distribution::kUniform, 55);
  std::span<const u32> vs(v.data(), v.size());
  dist::MultiGpuConfig cfg;
  cfg.num_gpus = GetParam();
  cfg.device_capacity_elems = n;  // everything resident
  cfg.host_threads_per_gpu = 2;
  auto r = dist::multi_gpu_topk(vs, k, cfg);
  EXPECT_EQ(r.keys, topk::reference_topk(vs, k));
  EXPECT_EQ(r.shards_total, GetParam());
  if (GetParam() > 1) {
    EXPECT_GT(r.comm_ms, 0.0);
  }
  EXPECT_EQ(r.reload_ms, 0.0);
}

INSTANTIATE_TEST_SUITE_P(GpuCounts, MultiGpuCorrectness,
                         ::testing::Values(1, 2, 3, 4, 8));

TEST(MultiGpu, ReloadOverheadWhenOverCapacity) {
  const u64 n = 1 << 16;
  const u64 k = 64;
  auto v = data::generate(n, Distribution::kNormal, 56);
  std::span<const u32> vs(v.data(), v.size());
  dist::MultiGpuConfig cfg;
  cfg.num_gpus = 2;
  cfg.device_capacity_elems = n / 8;  // 8 shards over 2 GPUs
  cfg.host_threads_per_gpu = 2;
  auto r = dist::multi_gpu_topk(vs, k, cfg);
  EXPECT_EQ(r.keys, topk::reference_topk(vs, k));
  EXPECT_EQ(r.shards_total, 8u);
  // Each GPU holds 4 shards: 3 reloads each (Table 2's reload column).
  EXPECT_GT(r.reload_ms, 0.0);
  const double one_shard_ms =
      vgpu::CostModel(cfg.profile).transfer_ms((n / 8) * sizeof(u32));
  EXPECT_NEAR(r.reload_ms, 3 * one_shard_ms, one_shard_ms * 0.5);
}

TEST(MultiGpu, MoreGpusRemoveReloads) {
  // 2^18 keys: one GPU's three shard reloads (~0.066 ms) outweigh the
  // 4-GPU gather (~0.060 ms). At 2^16 the reloads are a quarter of the
  // gather, so the total-time comparison would measure launch counts.
  const u64 n = 1 << 18;
  auto v = data::generate(n, Distribution::kUniform, 57);
  std::span<const u32> vs(v.data(), v.size());
  dist::MultiGpuConfig cfg;
  cfg.device_capacity_elems = n / 4;
  cfg.host_threads_per_gpu = 2;

  cfg.num_gpus = 1;
  auto r1 = dist::multi_gpu_topk(vs, 32, cfg);
  cfg.num_gpus = 4;
  auto r4 = dist::multi_gpu_topk(vs, 32, cfg);
  EXPECT_GT(r1.reload_ms, 0.0);
  EXPECT_EQ(r4.reload_ms, 0.0);  // all shards fit once spread over 4 GPUs
  // Table 2's superlinear speedup regime: removing reloads dominates. The
  // premise first, so a cost change cannot move the test out of it.
  EXPECT_GT(r1.reload_ms, r4.comm_ms);
  EXPECT_LT(r4.total_ms, r1.total_ms);
  EXPECT_EQ(r1.keys, r4.keys);
}

TEST(MultiGpu, KthExchangeStaysExactAndSharpensThreshold) {
  const u64 n = 1 << 18;
  const u64 k = 256;
  auto v = data::generate(n, Distribution::kUniform, 58);
  std::span<const u32> vs(v.data(), v.size());
  dist::MultiGpuConfig cfg;
  cfg.num_gpus = 4;
  cfg.device_capacity_elems = n;
  cfg.host_threads_per_gpu = 2;
  cfg.kth_exchange = true;
  auto r = dist::multi_gpu_topk(vs, k, cfg);
  EXPECT_EQ(r.keys, topk::reference_topk(vs, k));
  // The exchange adds reduce traffic on top of the gather.
  dist::MultiGpuConfig plain = cfg;
  plain.kth_exchange = false;
  auto rp = dist::multi_gpu_topk(vs, k, plain);
  EXPECT_EQ(rp.keys, r.keys);
  EXPECT_GT(r.comm_ms, rp.comm_ms);
}

TEST(MultiGpu, TieHeavyDataAcrossShards) {
  // All shards share the same duplicated values: gather/merge must keep the
  // exact multiset.
  std::vector<u32> v(1 << 14, 5u);
  for (int i = 0; i < 100; ++i) v[static_cast<size_t>(i) * 100] = 9u;
  std::span<const u32> vs(v.data(), v.size());
  dist::MultiGpuConfig cfg;
  cfg.num_gpus = 4;
  cfg.device_capacity_elems = v.size();
  cfg.host_threads_per_gpu = 1;
  auto r = dist::multi_gpu_topk(vs, 150, cfg);
  EXPECT_EQ(r.keys, topk::reference_topk(vs, 150));
}

TEST(MultiGpu, HierarchicalReductionIsExactAndCutsPrimaryMessages) {
  const u64 n = 1 << 18;
  const u64 k = 128;
  auto v = data::generate(n, Distribution::kUniform, 61);
  std::span<const u32> vs(v.data(), v.size());
  dist::MultiGpuConfig cfg;
  cfg.num_gpus = 16;
  cfg.device_capacity_elems = n;
  cfg.host_threads_per_gpu = 1;
  cfg.gpus_per_node = 4;

  auto flat = dist::multi_gpu_topk(vs, k, cfg);
  cfg.hierarchical = true;
  auto hier = dist::multi_gpu_topk(vs, k, cfg);

  EXPECT_EQ(flat.keys, topk::reference_topk(vs, k));
  EXPECT_EQ(hier.keys, flat.keys);
  // Flat: primary receives 15 messages; hierarchical: 3 node leaders.
  EXPECT_EQ(flat.primary_messages, 15u);
  EXPECT_EQ(hier.primary_messages, 3u);
}

TEST(MultiGpu, HierarchicalNoopWhenSingleNode) {
  const u64 n = 1 << 16;
  auto v = data::generate(n, Distribution::kNormal, 62);
  std::span<const u32> vs(v.data(), v.size());
  dist::MultiGpuConfig cfg;
  cfg.num_gpus = 4;
  cfg.device_capacity_elems = n;
  cfg.host_threads_per_gpu = 1;
  cfg.hierarchical = true;  // 4 GPUs <= gpus_per_node: flat path
  auto r = dist::multi_gpu_topk(vs, 99, cfg);
  EXPECT_EQ(r.keys, topk::reference_topk(vs, 99));
  EXPECT_EQ(r.primary_messages, 3u);
}

TEST(MultiGpu, HierarchicalRaggedLastNodeAndTopologyHelpers) {
  // 10 GPUs at 4 per node: nodes {0-3}, {4-7}, {8,9} — the last one
  // ragged. The reduction must match the topology helpers exactly (the
  // sharded server's merge grouping reuses the same arithmetic).
  const u64 n = 1 << 17;
  const u64 k = 64;
  auto v = data::generate(n, Distribution::kNormal, 63);
  std::span<const u32> vs(v.data(), v.size());
  dist::MultiGpuConfig cfg;
  cfg.num_gpus = 10;
  cfg.device_capacity_elems = n;
  cfg.host_threads_per_gpu = 1;
  cfg.gpus_per_node = 4;
  cfg.hierarchical = true;
  auto r = dist::multi_gpu_topk(vs, k, cfg);
  EXPECT_EQ(r.keys, topk::reference_topk(vs, k));
  EXPECT_EQ(r.primary_messages, dist::primary_messages(10, 4, true));
  EXPECT_EQ(r.primary_messages, 2u);
  // The helper arithmetic behind that count.
  EXPECT_EQ(dist::group_count(10, 4), 3u);
  EXPECT_EQ(dist::group_leader(9, 4), 8u);
  EXPECT_EQ(dist::group_end(8, 4, 10), 10u);  // ragged: members {8, 9}
}

TEST(MultiGpu, HierarchicalComposesWithKthExchange) {
  // Both sharpenings at once: the k-th-exchange filter shrinks every
  // rank's list BEFORE the leader pre-merge; exactness must survive the
  // composition (tie-heavy data makes sloppy threshold handling visible).
  const u64 n = 1 << 17;
  const u64 k = 200;
  std::vector<u32> v(n);
  for (u64 i = 0; i < n; ++i) v[i] = static_cast<u32>(i % 512);
  std::span<const u32> vs(v.data(), v.size());
  dist::MultiGpuConfig cfg;
  cfg.num_gpus = 8;
  cfg.device_capacity_elems = n;
  cfg.host_threads_per_gpu = 1;
  cfg.gpus_per_node = 4;
  cfg.hierarchical = true;
  cfg.kth_exchange = true;
  auto r = dist::multi_gpu_topk(vs, k, cfg);
  EXPECT_EQ(r.keys, topk::reference_topk(vs, k));
  EXPECT_EQ(r.primary_messages, dist::primary_messages(8, 4, true));
}

TEST(MultiGpu, ScalabilityShrinksComputePerGpu) {
  const u64 n = 1 << 20;
  auto v = data::generate(n, Distribution::kUniform, 59);
  std::span<const u32> vs(v.data(), v.size());
  dist::MultiGpuConfig cfg;
  cfg.device_capacity_elems = n;
  cfg.host_threads_per_gpu = 2;
  cfg.num_gpus = 1;
  auto r1 = dist::multi_gpu_topk(vs, 128, cfg);
  cfg.num_gpus = 4;
  auto r4 = dist::multi_gpu_topk(vs, 128, cfg);
  // Table 2: per-GPU compute scales with shard size. (Total time only
  // improves once shards are large enough to dominate the fixed
  // communication + final-reduction cost — the paper's speedups are
  // measured at |V| >= 2^30; at this test size the fixed costs show.)
  EXPECT_LT(r4.compute_ms, r1.compute_ms);
  EXPECT_LT(r4.compute_ms + r4.reload_ms, r1.compute_ms + r1.reload_ms);
}

}  // namespace
}  // namespace drtopk
