// Tests for the vgpu::Workspace arena subsystem and the zero-allocation
// serving contract: arena semantics (bump/checkpoint/rewind/growth
// accounting), pool lease recycling, engine scratch reuse, and — the PR's
// headline property — N steady-state queries through a warmed TopkServer
// performing zero arena growths.
#include <gtest/gtest.h>

#include <algorithm>

#include "data/distributions.hpp"
#include "serve/server.hpp"

namespace drtopk {
namespace {

using data::Criterion;
using data::Distribution;
using topk::reference_topk;

TEST(Workspace, AllocationsAreDistinctAndAligned) {
  vgpu::Workspace ws;
  auto a = ws.alloc<u32>(100);
  auto b = ws.alloc<u64>(50);
  auto c = ws.alloc<u8>(7);
  ASSERT_EQ(a.size(), 100u);
  ASSERT_EQ(b.size(), 50u);
  ASSERT_EQ(c.size(), 7u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(b.data()) % alignof(u64), 0u);
  // Writes to one span must not alias another.
  std::fill(a.begin(), a.end(), 0xAAAAAAAAu);
  std::fill(b.begin(), b.end(), u64{0xBBBBBBBBBBBBBBBB});
  std::fill(c.begin(), c.end(), u8{0xCC});
  EXPECT_TRUE(std::all_of(a.begin(), a.end(),
                          [](u32 x) { return x == 0xAAAAAAAAu; }));
  EXPECT_EQ(ws.allocs(), 3u);
  EXPECT_EQ(ws.growths(), 1u);  // everything fit the first block
}

TEST(Workspace, RewindReusesMemoryWithoutGrowth) {
  vgpu::Workspace ws;
  const auto cp = ws.checkpoint();
  u32* first = ws.alloc<u32>(1024).data();
  ws.rewind(cp);
  u32* second = ws.alloc<u32>(1024).data();
  EXPECT_EQ(first, second);  // bump pointer came back to the same spot
  EXPECT_EQ(ws.growths(), 1u);
}

TEST(Workspace, ScopeRewindsOnDestruction) {
  vgpu::Workspace ws;
  (void)ws.alloc<u32>(16);
  const u64 used = ws.in_use_bytes();
  {
    vgpu::Workspace::Scope scope(ws);
    (void)ws.alloc<u32>(4096);
    EXPECT_GT(ws.in_use_bytes(), used);
  }
  EXPECT_EQ(ws.in_use_bytes(), used);
}

TEST(Workspace, GrowthIsGeometricAndHighWaterTracks) {
  vgpu::Workspace ws;
  (void)ws.alloc<u8>(vgpu::Workspace::kMinBlockBytes / 2);
  EXPECT_EQ(ws.growths(), 1u);
  (void)ws.alloc<u8>(4 * vgpu::Workspace::kMinBlockBytes);
  EXPECT_EQ(ws.growths(), 2u);
  const u64 hw = ws.high_water_bytes();
  EXPECT_GE(hw, 4 * vgpu::Workspace::kMinBlockBytes);
  // Rewinding does not lower the high-water mark.
  ws.reset();
  EXPECT_EQ(ws.high_water_bytes(), hw);
  EXPECT_EQ(ws.in_use_bytes(), 0u);
  // A stream that fits the high-water mark replays without growth.
  (void)ws.alloc<u8>(4 * vgpu::Workspace::kMinBlockBytes);
  EXPECT_EQ(ws.growths(), 2u);
}

TEST(Workspace, ReserveMakesSubsequentStreamGrowthFree) {
  vgpu::Workspace ws;
  ws.reserve_bytes(1 << 20);
  const u64 g = ws.growths();
  for (int rep = 0; rep < 4; ++rep) {
    vgpu::Workspace::Scope scope(ws);
    (void)ws.alloc<u32>(1 << 16);
    (void)ws.alloc<u64>(1 << 14);
    (void)ws.alloc<u8>(1 << 12);
  }
  EXPECT_EQ(ws.growths(), g);
}

TEST(Workspace, ReserveOnRewoundArenaDoesNotStrandBlocksOrInflatePeaks) {
  // A presize on a warmed, rewound workspace must append capacity without
  // moving the bump position: earlier blocks keep serving allocations and
  // in_use/peak accounting stays truthful (regression: grow() used to jump
  // the cursor to the new block, stranding everything before it).
  vgpu::Workspace ws;
  u32* first = ws.alloc<u32>(1024).data();  // organic first block
  ws.reset();
  ws.reserve_bytes(8 * vgpu::Workspace::kMinBlockBytes);
  ws.reset_peak();
  auto small = ws.alloc<u32>(1024);
  EXPECT_EQ(small.data(), first);  // still served from block 0
  EXPECT_EQ(ws.in_use_bytes(), 1024 * sizeof(u32));
  EXPECT_EQ(ws.peak_bytes(), 1024 * sizeof(u32));  // no phantom bytes
}

TEST(WorkspaceDeathTest, AccessPastABlockEndFaults) {
  // Blocks are whole pages followed by an inaccessible guard page, so a
  // write one byte past a block's end faults at once, in every build.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  vgpu::Workspace ws;
  u8* start = ws.alloc<u8>(1).data();
  const u64 cap = ws.capacity_bytes();  // one block
  const std::span<u8> rest = ws.alloc<u8>(cap - 1);
  ASSERT_EQ(rest.data(), start + 1);  // the same block, filled to its end
  ASSERT_EQ(ws.capacity_bytes(), cap);
  rest.back() = 1;  // the block's last byte is writable
  EXPECT_DEATH(
      {
        volatile u8* end = start + cap;
        *end = 1;
      },
      "");
}

TEST(WorkspacePool, LeasesRecycleCapacity) {
  vgpu::WorkspacePool pool;
  u32* p1;
  {
    auto lease = pool.acquire();
    p1 = lease->alloc<u32>(4096).data();
  }
  EXPECT_EQ(pool.size(), 1u);
  const u64 g = pool.growths();
  {
    // Recycled: same workspace, same capacity, no new heap block.
    auto lease = pool.acquire();
    EXPECT_EQ(lease->alloc<u32>(4096).data(), p1);
  }
  EXPECT_EQ(pool.growths(), g);
  {
    // Two concurrent leases force a second workspace.
    auto l1 = pool.acquire();
    auto l2 = pool.acquire();
    EXPECT_NE(l1.get(), l2.get());
  }
  EXPECT_EQ(pool.size(), 2u);
}

TEST(WorkspacePool, LeaseAffinityPrefersLastReturnedArena) {
  // First-touch locality groundwork: a caller that tags its acquires gets
  // back the arena it last returned, even when other arenas sit on top of
  // the free stack.
  vgpu::WorkspacePool pool;
  u32 *e0, *e1;
  {
    auto l0 = pool.acquire(0, /*affinity=*/0);
    auto l1 = pool.acquire(0, /*affinity=*/1);
    e0 = l0->alloc<u32>(64).data();
    e1 = l1->alloc<u32>(64).data();
    // l1 releases last, so it tops the free stack; affinity must still
    // route executor 0 back to its own arena.
  }
  {
    auto l0 = pool.acquire(0, /*affinity=*/0);
    EXPECT_EQ(l0->alloc<u32>(64).data(), e0);
    auto l1 = pool.acquire(0, /*affinity=*/1);
    EXPECT_EQ(l1->alloc<u32>(64).data(), e1);
  }
  // Availability beats affinity: a caller with no matching arena takes any
  // free one instead of allocating a new workspace.
  {
    auto l9 = pool.acquire(0, /*affinity=*/9);
    (void)l9;
    EXPECT_EQ(pool.size(), 2u);
  }
  // Untagged acquires keep working and never allocate while arenas are free.
  {
    auto l = pool.acquire();
    (void)l;
    EXPECT_EQ(pool.size(), 2u);
  }
}

TEST(Workspace, EngineCallsReuseOneArena) {
  // Repeated engine invocations against one workspace must grow it at most
  // during the first call; every later call replays the same block walk.
  vgpu::Device dev;
  auto v = data::generate(1 << 16, Distribution::kUniform, 7);
  std::span<const u32> vs(v.data(), v.size());
  const auto expect = reference_topk(vs, 500);

  vgpu::Workspace ws;
  for (topk::Algo algo : {topk::Algo::kRadixGgksOop, topk::Algo::kBucketOop,
                          topk::Algo::kBitonic, topk::Algo::kSortAndChoose}) {
    (void)topk::run_topk_keys<u32>(dev, vs, 500, algo, ws);
  }
  const u64 warm = ws.growths();
  for (int rep = 0; rep < 3; ++rep) {
    for (topk::Algo algo : {topk::Algo::kRadixGgksOop, topk::Algo::kBucketOop,
                            topk::Algo::kBitonic,
                            topk::Algo::kSortAndChoose}) {
      EXPECT_EQ(topk::run_topk_keys<u32>(dev, vs, 500, algo, ws).keys,
                expect);
    }
  }
  EXPECT_EQ(ws.growths(), warm);
  EXPECT_EQ(ws.in_use_bytes(), 0u);  // every engine rewound its scope
}

TEST(Workspace, PipelineReusesOneArena) {
  vgpu::Device dev;
  auto v = data::generate(1 << 17, Distribution::kNormal, 9);
  std::span<const u32> vs(v.data(), v.size());
  const auto expect = reference_topk(vs, 256);

  vgpu::Workspace ws;
  core::DrTopkConfig cfg;
  cfg.beta = 2;
  (void)core::dr_topk_keys<u32>(dev, vs, 256, cfg, nullptr, ws);  // warm
  const u64 warm = ws.growths();
  for (int rep = 0; rep < 5; ++rep)
    EXPECT_EQ(core::dr_topk_keys<u32>(dev, vs, 256, cfg, nullptr, ws).keys,
              expect);
  EXPECT_EQ(ws.growths(), warm);
}

// ---- The allocation-regression contract: steady-state serving performs
// ---- zero arena growths after warmup.

TEST(AllocationRegression, SteadyStateServingDoesNotGrowArenas) {
  const u64 n = 1 << 15;
  auto ud = data::generate(n, Distribution::kUniform, 21);
  auto nd = data::generate(n, Distribution::kNormal, 22);
  std::span<const u32> us(ud.data(), ud.size());
  std::span<const u32> ns(nd.data(), nd.size());

  vgpu::Device dev;
  serve::ServerConfig cfg;
  // One executor makes the query-to-arena routing deterministic: every
  // shape touches the single executor workspace and groups drain serially
  // (pool demand exactly one), so the zero-growth assertion is exact, not
  // scheduling-dependent. Multi-executor convergence is covered below.
  cfg.executors = 1;
  cfg.batch_max = 16;
  serve::TopkServer server(dev, cfg);

  // A steady-state mix covering every hot path: identity keys, materialized
  // directed keys (kSmallest), selection-only, and two k shapes.
  const auto round = [&] {
    std::vector<serve::Query> qs;
    for (int i = 0; i < 16; ++i) qs.push_back(serve::Query::view(us, 100));
    for (int i = 0; i < 8; ++i)
      qs.push_back(serve::Query::view(ns, 64, Criterion::kSmallest));
    for (int i = 0; i < 8; ++i)
      qs.push_back(serve::Query::view(us, 1000, Criterion::kLargest,
                                      /*selection_only=*/true));
    return server.run_batch(std::move(qs));
  };

  // Warmup: plans calibrate, the executor and the group pool reach their
  // high-water capacity.
  for (int r = 0; r < 3; ++r) (void)round();
  const u64 warm_growths = server.workspace_growths();
  EXPECT_GT(warm_growths, 0u);  // the warmup did allocate
  EXPECT_GT(server.workspace_high_water(), 0u);

  // Steady state: N queries, zero arena growths, still exact.
  const auto expect_us = reference_topk(us, 100);
  for (int r = 0; r < 4; ++r) {
    auto results = round();
    for (size_t i = 0; i < 16; ++i) {
      ASSERT_EQ(results[i].values.size(), expect_us.size());
      for (size_t j = 0; j < expect_us.size(); ++j)
        ASSERT_EQ(results[i].values[j], static_cast<u64>(expect_us[j]));
    }
  }
  EXPECT_EQ(server.workspace_growths(), warm_growths)
      << "steady-state serving must not heap-allocate scratch";
}

TEST(AllocationRegression, MultiExecutorGrowthConverges) {
  // With several executors the query-to-arena routing is nondeterministic
  // (which executor first meets a shape, how many group leases are live at
  // once), so growth is asserted to CONVERGE: within a bounded number of
  // identical rounds there must be a round that adds zero growths —
  // after which capacity everywhere has reached this workload's peak.
  const u64 n = 1 << 14;
  auto v = data::generate(n, Distribution::kUniform, 41);
  std::span<const u32> vs(v.data(), v.size());

  vgpu::Device dev;
  serve::ServerConfig cfg;
  cfg.executors = 4;
  cfg.batch_max = 8;
  serve::TopkServer server(dev, cfg);
  const auto expect = reference_topk(vs, 64);

  bool converged = false;
  for (int r = 0; r < 12 && !converged; ++r) {
    const u64 before = server.workspace_growths();
    std::vector<serve::Query> qs;
    for (int i = 0; i < 32; ++i) qs.push_back(serve::Query::view(vs, 64));
    auto results = server.run_batch(std::move(qs));
    for (auto& res : results) {
      ASSERT_EQ(res.values.size(), expect.size());
      ASSERT_EQ(res.kth, static_cast<u64>(expect.back()));
    }
    converged = server.workspace_growths() == before && r > 0;
  }
  EXPECT_TRUE(converged)
      << "arena growth must stop once every executor/pool workspace has "
         "served the recurring shape";
}

TEST(AllocationRegression, PlanCacheHighWaterPresizesNewShapes) {
  // Once a shape's workspace high-water is recorded, a hit presizes the
  // group workspace before construction — the lease-time reserve is the
  // only growth even for a pool workspace that never saw the shape.
  const u64 n = 1 << 14;
  auto v = data::generate(n, Distribution::kUniform, 31);
  std::span<const u32> vs(v.data(), v.size());

  vgpu::Device dev;
  serve::ServerConfig cfg;
  cfg.executors = 1;
  serve::TopkServer server(dev, cfg);
  (void)server.run_batch({serve::Query::view(vs, 128)});
  auto s = server.stats();
  EXPECT_GE(s.plan_misses, 1u);
  const u64 warm = server.workspace_growths();
  (void)server.run_batch({serve::Query::view(vs, 128)});
  EXPECT_EQ(server.workspace_growths(), warm);
  EXPECT_GE(server.stats().plan_hits, 1u);
}

}  // namespace
}  // namespace drtopk
