// Tests for deadline-aware admission: the controller's decision ladder in
// isolation (injected estimators, no sockets), the deadline-conformance
// matrix end-to-end over live NetServers (tight/loose deadlines x
// exact/recall-floor clients x single/sharded backends), and the serving
// layer's measured queue wait, which admission predicts separately from
// service time. Deadlines act only at this front door: the serving layer
// never sees them.
#include <gtest/gtest.h>

#include <thread>

#include "data/distributions.hpp"
#include "net/client.hpp"
#include "net/net_server.hpp"

namespace drtopk::net {
namespace {

using data::Criterion;
using data::Distribution;

vgpu::Device& shared_device() {
  static vgpu::Device dev(vgpu::GpuProfile::v100s());
  return dev;
}

serve::PlanKey key_of(u32 salt) {
  serve::PlanKey k{};
  k.fingerprint = salt;  // distinct estimator buckets per shape
  return k;
}

// Controller with injected estimates: `svc` maps fingerprint -> EWMA.
AdmissionController controller(
    std::unordered_map<u32, u64> svc, u64 queue_us = 0,
    AdmissionController::Config cfg = {.max_in_flight = 4,
                                       .safety = 1.0,
                                       .queue_quantile = 0.9}) {
  return AdmissionController(
      cfg,
      [svc = std::move(svc)](const serve::PlanKey& k) -> u64 {
        auto it = svc.find(static_cast<u32>(k.fingerprint));
        return it == svc.end() ? 0 : it->second;
      },
      [queue_us]() { return queue_us; });
}

// ------------------------------------------------------- controller unit

TEST(Admission, LadderOrderRateQuotaOverloadDeadline) {
  auto c = controller({{1, 1000}});
  const auto k = key_of(1);
  // Rate trumps everything.
  EXPECT_EQ(c.decide(k, k, 1, kExactBp, false, false, 99).status,
            Status::kShedRate);
  // Then quota.
  EXPECT_EQ(c.decide(k, k, 1, kExactBp, true, false, 99).status,
            Status::kShedQuota);
  // Then the server-wide bound.
  EXPECT_EQ(c.decide(k, k, 1, kExactBp, true, true, 4).status,
            Status::kShedOverload);
  // Then the deadline (1us budget vs 1000us estimate, no floor).
  EXPECT_EQ(c.decide(k, k, 1, kExactBp, true, true, 0).status,
            Status::kShedDeadline);
}

TEST(Admission, NoDeadlineAlwaysRunsExact) {
  auto c = controller({{1, u64{1} << 40}});  // absurdly expensive shape
  const auto v = c.decide(key_of(1), key_of(1), 0, 9000, true, true, 0);
  EXPECT_EQ(v.status, Status::kOk);
  EXPECT_EQ(v.fidelity_bp, kExactBp);
}

TEST(Admission, DeadlineConformanceMatrix) {
  // Exact shape costs 1000us, floor shape 100us, queue adds 50us.
  auto c = controller({{1, 1000}, {2, 100}}, /*queue_us=*/50);
  const auto exact = key_of(1), floor = key_of(2);

  struct Case {
    u64 deadline_us;
    u32 floor_bp;
    Status want;
    u32 want_bp;
  };
  const Case cases[] = {
      // Loose deadline: runs exact regardless of the client's floor.
      {2000, kExactBp, Status::kOk, kExactBp},
      {2000, 9000, Status::kOk, kExactBp},
      // Tight for exact (estimate 1050 > 500), loose for the floor (150):
      // the exact-only client is shed, the floor client degrades.
      {500, kExactBp, Status::kShedDeadline, kExactBp},
      {500, 9000, Status::kDegraded, 9000},
      // Tight for both (estimate 150 > 80): everyone sheds.
      {80, kExactBp, Status::kShedDeadline, kExactBp},
      {80, 9000, Status::kShedDeadline, kExactBp},
  };
  for (const auto& tc : cases) {
    const auto v =
        c.decide(exact, floor, tc.deadline_us, tc.floor_bp, true, true, 0);
    EXPECT_EQ(v.status, tc.want)
        << "deadline=" << tc.deadline_us << " floor=" << tc.floor_bp;
    if (v.admitted()) {
      EXPECT_EQ(v.fidelity_bp, tc.want_bp) << "deadline=" << tc.deadline_us;
    }
  }
}

TEST(Admission, ColdShapesAreAdmittedOptimistically) {
  auto c = controller({});  // no estimates at all
  const auto v = c.decide(key_of(1), key_of(2), 10, kExactBp, true, true, 0);
  EXPECT_EQ(v.status, Status::kOk);
  EXPECT_EQ(v.estimate_us, 0u);  // unknown, not "zero cost"
}

TEST(Admission, DegradedFidelityIsQuantizedHonestly) {
  auto c = controller({{1, 1000}});
  const auto v = c.decide(key_of(1), key_of(2), 10, 8250, true, true, 0);
  ASSERT_EQ(v.status, Status::kDegraded);
  // The reported bp is the FidelityPolicy quantization of the floor — what
  // the query actually runs at, not an echo of the request.
  EXPECT_EQ(v.fidelity_bp, core::FidelityPolicy::approx(0.825).quantized_bp());
  EXPECT_LT(v.fidelity_bp, kExactBp);
  EXPECT_GE(v.fidelity_bp, 8250u - 50u);
}

TEST(Admission, SafetyFactorInflatesTheEstimate) {
  auto c = controller({{1, 100}}, /*queue_us=*/0,
                      {.max_in_flight = 4, .safety = 3.0,
                       .queue_quantile = 0.9});
  // 100us EWMA * 3.0 safety = 300us estimate: a 200us budget sheds.
  EXPECT_EQ(c.decide(key_of(1), key_of(1), 200, kExactBp, true, true, 0)
                .status,
            Status::kShedDeadline);
  EXPECT_EQ(c.decide(key_of(1), key_of(1), 400, kExactBp, true, true, 0)
                .status,
            Status::kOk);
}

TEST(Admission, TokenBucketRefillsAtRate) {
  TokenBucket b(/*rate_qps=*/1000.0, /*burst=*/2.0);
  EXPECT_TRUE(b.try_take(1000));
  EXPECT_TRUE(b.try_take(1000));
  EXPECT_FALSE(b.try_take(1000));   // burst exhausted
  EXPECT_FALSE(b.try_take(1500));   // 0.5 tokens refilled: still short
  EXPECT_TRUE(b.try_take(2100));    // >1 token refilled
  TokenBucket off(0.0);
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(off.try_take(0));
}

// ------------------------------------------------- end-to-end conformance

constexpr u64 kTightUs = 1;  // beneath any real service estimate

// Warm the service-time EWMA for (corpus, k) with no-deadline queries,
// then exercise the deadline ladder against the live estimate.
void warm(BlockingClient& cli, u64 k, int rounds = 3) {
  for (int i = 0; i < rounds; ++i) {
    TopkRequest req;
    req.request_id = 1000 + static_cast<u64>(i);
    req.k = k;
    auto resp = cli.call(req);
    ASSERT_TRUE(resp.has_value());
    ASSERT_EQ(resp->status, Status::kOk);
  }
}

void run_conformance(Backend& backend) {
  NetServer net(backend, {});
  BlockingClient cli;
  ASSERT_TRUE(cli.connect(net.port()));
  warm(cli, 64);

  // Loose deadline, exact client: admitted exact.
  TopkRequest req;
  req.request_id = 1;
  req.k = 64;
  req.deadline_us = 30'000'000;
  auto loose = cli.call(req);
  ASSERT_TRUE(loose.has_value());
  EXPECT_EQ(loose->status, Status::kOk);
  EXPECT_EQ(loose->fidelity_bp, kExactBp);
  EXPECT_FALSE(loose->values.empty());

  // Tight deadline, exact-only client: typed shed, answered fast (the
  // rejection itself honors the spirit of the deadline — microseconds of
  // decision, no execution).
  req.request_id = 2;
  req.deadline_us = kTightUs;
  const auto t0 = mono_us();
  auto shed = cli.call(req);
  const u64 reject_us = mono_us() - t0;
  ASSERT_TRUE(shed.has_value());
  EXPECT_EQ(shed->status, Status::kShedDeadline);
  EXPECT_TRUE(shed->values.empty());
  EXPECT_LT(reject_us, 1'000'000u);  // a decision, not an execution

  // Tight deadline, recall-floor client: degraded, not shed — and the
  // response reports the degraded fidelity honestly.
  req.request_id = 3;
  req.recall_floor_bp = 9000;
  auto deg = cli.call(req);
  ASSERT_TRUE(deg.has_value());
  EXPECT_EQ(deg->status, Status::kDegraded);
  EXPECT_LT(deg->fidelity_bp, kExactBp);
  EXPECT_GE(deg->fidelity_bp, 9000u - 50u);
  EXPECT_FALSE(deg->values.empty());

  // The shed/degrade decisions surface in the front-door counters.
  auto metrics = cli.metrics();
  ASSERT_TRUE(metrics.has_value());
  EXPECT_NE(metrics->find("net_shed_deadline 1"), std::string::npos);
  EXPECT_NE(metrics->find("net_degraded 1"), std::string::npos);
  net.drain();
}

TEST(AdmissionE2E, SingleBackendConformance) {
  auto corpus = data::generate(1 << 15, Distribution::kUniform, 41);
  serve::TopkServer srv(shared_device());
  SingleBackend backend(srv);
  backend.add_corpus(std::span<const u32>(corpus.data(), corpus.size()));
  run_conformance(backend);
}

TEST(AdmissionE2E, ShardedBackendConformance) {
  auto corpus = data::generate(1 << 16, Distribution::kUniform, 42);
  serve::ShardedConfig cfg;
  cfg.num_shards = 2;
  serve::ShardedTopkServer srv(cfg);
  ShardedBackend backend(srv);
  backend.add_corpus(std::span<const u32>(corpus.data(), corpus.size()));
  run_conformance(backend);
}

TEST(AdmissionE2E, QuotaAndOverloadShedsAreTyped) {
  auto corpus = data::generate(1 << 14, Distribution::kUniform, 43);
  serve::TopkServer srv(shared_device());
  SingleBackend backend(srv);
  backend.add_corpus(std::span<const u32>(corpus.data(), corpus.size()));

  NetServerConfig cfg;
  cfg.client_quota = 1;  // one in-flight request per connection
  NetServer net(backend, cfg);

  BlockingClient cli;
  ASSERT_TRUE(cli.connect(net.port()));
  // Pipeline a burst without reading: beyond the quota of 1, requests are
  // shed as kShedQuota while the first is still in flight. Responses come
  // back in SOME order; collect and count by status.
  constexpr int kBurst = 8;
  for (int i = 0; i < kBurst; ++i) {
    TopkRequest req;
    req.request_id = static_cast<u64>(i);
    req.k = 512;
    ASSERT_TRUE(cli.send(req));
  }
  int ok = 0, quota = 0;
  for (int i = 0; i < kBurst; ++i) {
    auto resp = cli.recv_response();
    ASSERT_TRUE(resp.has_value()) << "response " << i;
    if (resp->status == Status::kOk) ++ok;
    else if (resp->status == Status::kShedQuota) ++quota;
  }
  EXPECT_GE(ok, 1);
  EXPECT_GE(quota, 1);
  EXPECT_EQ(ok + quota, kBurst);
  net.drain();
}

TEST(AdmissionE2E, RateLimitShedsAreTyped) {
  auto corpus = data::generate(1 << 14, Distribution::kUniform, 44);
  serve::TopkServer srv(shared_device());
  SingleBackend backend(srv);
  backend.add_corpus(std::span<const u32>(corpus.data(), corpus.size()));

  NetServerConfig cfg;
  cfg.client_rate_qps = 1.0;  // ~one query/second
  cfg.client_burst = 2.0;
  NetServer net(backend, cfg);

  BlockingClient cli;
  ASSERT_TRUE(cli.connect(net.port()));
  int ok = 0, rate = 0;
  for (int i = 0; i < 6; ++i) {
    TopkRequest req;
    req.request_id = static_cast<u64>(i);
    req.k = 8;
    auto resp = cli.call(req);
    ASSERT_TRUE(resp.has_value());
    if (resp->status == Status::kOk) ++ok;
    if (resp->status == Status::kShedRate) ++rate;
  }
  EXPECT_EQ(ok, 2);   // the burst
  EXPECT_GE(rate, 3); // everything after it (6 calls in well under 1s)
  net.drain();
}

// ------------------------------------------- serving-layer queue wait

TEST(DeadlineGrouping, QueueWaitIsMeasuredIntoQueryResult) {
  auto corpus = data::generate(1 << 14, Distribution::kUniform, 47);
  std::span<const u32> cs(corpus.data(), corpus.size());
  serve::TopkServer server(shared_device());
  auto r = server.submit(serve::Query::view(cs, 10)).get();
  // queue_us is a measured component of wall_ms, not an independent clock.
  EXPECT_LE(static_cast<double>(r.queue_us), r.wall_ms * 1000.0 + 1000.0);
}

}  // namespace
}  // namespace drtopk::net
