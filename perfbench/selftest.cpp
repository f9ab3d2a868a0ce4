// Self-tests of the benchmark's measurement primitives (harness.hpp):
// the percentile rule, SLO accounting, due-time latency under a sender
// stall, span self time, and the Backend decorator's pass-through.
#include <gtest/gtest.h>

#include <numeric>

#include "harness.hpp"

namespace pb = perfbench;
using drtopk::u32;
using drtopk::u64;

namespace {

std::vector<double> iota_samples(u64 n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);  // 1..n
  return v;
}

TEST(Percentile, NearestRank) {
  const auto v = iota_samples(200);
  EXPECT_EQ(pb::quantile(v, 0.5).value, 100.0);
  EXPECT_EQ(pb::quantile(v, 0.99).value, 198.0);
  EXPECT_EQ(pb::quantile(v, 1.0).value, 200.0);
  EXPECT_EQ(pb::quantile({}, 0.5).value, 0.0);
  EXPECT_EQ(pb::median({3.0, 1.0, 2.0, 4.0}), 2.5);
}

TEST(Percentile, TailKeepsTenSamplesBeyond) {
  // p99 is reported exactly when >= 10 samples lie beyond it.
  EXPECT_DOUBLE_EQ(pb::supported_quantile(1000, 0.99), 0.99);
  EXPECT_DOUBLE_EQ(pb::supported_quantile(5000, 0.99), 0.99);
  EXPECT_LT(pb::supported_quantile(999, 0.99), 0.99);
  EXPECT_DOUBLE_EQ(pb::supported_quantile(250, 0.99), 0.96);
  EXPECT_DOUBLE_EQ(pb::supported_quantile(100, 0.99), 0.90);
  EXPECT_DOUBLE_EQ(pb::supported_quantile(10, 0.99), 0.5);
  for (u64 n : {21u, 57u, 250u, 999u, 1000u, 1234u, 20000u}) {
    const auto v = iota_samples(n);
    const pb::Quantile t = pb::tail_quantile(v);
    u64 beyond = 0;
    for (double x : v) beyond += x > t.value;
    EXPECT_GE(beyond, pb::kMinBeyond) << "n=" << n;
    EXPECT_EQ(t.samples, n);
  }
}

TEST(Percentile, QuietestWindowIgnoresBurstyWindows) {
  // 20 windows of 1000 samples; all but one are slowed by bursts.
  std::vector<double> v;
  for (int w = 0; w < 20; ++w)
    for (int i = 1; i <= 1000; ++i) v.push_back(w == 7 ? i : (2 + w) * i);
  const pb::Windowed p99 = pb::windowed_quantile(v, 0.99);
  EXPECT_EQ(p99.windows, 20u);
  EXPECT_DOUBLE_EQ(p99.per_window.q, 0.99);
  EXPECT_DOUBLE_EQ(p99.per_window.value, 990.0);
  EXPECT_EQ(p99.per_window.samples, 20000u);
  EXPECT_DOUBLE_EQ(pb::windowed_quantile(v, 0.5).per_window.value, 500.0);
  // Too few samples for two windows: one window, tail rule applied to it.
  const pb::Windowed small = pb::windowed_quantile(iota_samples(250), 0.99);
  EXPECT_EQ(small.windows, 1u);
  EXPECT_DOUBLE_EQ(small.per_window.q, 0.96);
  EXPECT_DOUBLE_EQ(pb::windowed_quantile(iota_samples(250), 0.5).per_window.value,
                   125.0);
}

TEST(Slo, FailuresAndLostRequestsAreMisses) {
  pb::SloTally s(1000.0);
  for (int i = 0; i < 10; ++i) s.on_sent();
  s.on_answer(true, 500);    // ok, within
  s.on_answer(true, 1000);   // ok, at the limit
  s.on_answer(true, 1500);   // ok, late: a miss, not a failure
  s.on_answer(false, 10);    // fast but failed (shed/degraded/wrong): miss
  s.on_answer(false, 5000);  // failed
  // five requests were never answered
  EXPECT_EQ(s.ok, 3u);
  EXPECT_EQ(s.ok_within, 2u);
  EXPECT_EQ(s.failed(), 7u);
  EXPECT_DOUBLE_EQ(s.attainment(), 0.2);
  EXPECT_DOUBLE_EQ(s.ok_frac(), 0.3);
  EXPECT_DOUBLE_EQ(pb::SloTally(1.0).attainment(), 0.0);
}

TEST(OpenLoop, PoissonScheduleIsSeededAndAtRate) {
  const auto a = pb::poisson_schedule(7, 1000.0, 5.0);
  const auto b = pb::poisson_schedule(7, 1000.0, 5.0);
  const auto c = pb::poisson_schedule(8, 1000.0, 5.0);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_NEAR(static_cast<double>(a.size()), 5000.0, 300.0);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_LT(a.back(), 5'000'000'000u);
}

TEST(OpenLoop, DueTimeLatencyChargesAnInjectedStall) {
  // A fake clock: requests are due every 1 ms; sending request 2 stalls the
  // sender for 10 ms. Answers arrive 100 us after each actual send.
  u64 clock_ns = 0;
  pb::PacerClock fake;
  fake.now = [&] { return clock_ns; };
  fake.sleep_until = [&](u64 t) { clock_ns = std::max(clock_ns, t); };
  std::vector<u64> due;
  for (u64 i = 0; i < 20; ++i) due.push_back(i * 1'000'000);
  std::vector<u64> sent_at;
  const u64 t0 = 5'000'000;
  const u64 sent = pb::run_paced(due, t0, fake, [&](u64 i) {
    if (i == 2) clock_ns += 10'000'000;
    return true;
  }, sent_at);
  ASSERT_EQ(sent, due.size());

  std::vector<double> from_due, from_send;
  for (u64 i = 0; i < due.size(); ++i) {
    const u64 recv = sent_at[i] + 100'000;
    from_due.push_back(pb::due_latency_us(t0, due[i], recv));
    from_send.push_back(static_cast<double>(recv - sent_at[i]) / 1e3);
  }
  // Timed from the send, the stall is invisible.
  for (double l : from_send) EXPECT_DOUBLE_EQ(l, 100.0);
  // Timed from the due time, requests 3..12 waited behind the stall: the
  // schedule was not shifted, so each is charged what it lost.
  EXPECT_DOUBLE_EQ(from_due[2], 100.0);
  EXPECT_DOUBLE_EQ(from_due[3], 9'100.0);
  EXPECT_DOUBLE_EQ(from_due[12], 100.0);
  for (u64 i = 3; i < 12; ++i) EXPECT_GT(from_due[i], 100.0) << i;
  // The sender's lag shows the stall too.
  EXPECT_EQ(sent_at[3] - (t0 + due[3]), 9'000'000u);
}

TEST(Spans, SelfTimeSubtractsTheUnionOfChildren) {
  pb::SpanRecorder rec(true);
  rec.add("net.request", 0, 1000, 1, 0, 7);
  rec.add("backend.service", 100, 600, 2, pb::kParentByRequest, 7);
  rec.add("backend.submit", 50, 150, 3, pb::kParentByRequest, 7);  // overlaps
  rec.add("client.send", 900, 1200, 4, 1, 7);  // clipped to the parent
  rec.add("bench.query", 0, 50, 5, 0, 8);      // another request
  const auto self = pb::self_time_ns(rec.spans());
  EXPECT_DOUBLE_EQ(self.at("net"), 1000.0 - (600 - 50) - (1000 - 900));
  EXPECT_DOUBLE_EQ(self.at("backend"), 500.0 + 100.0);
  EXPECT_DOUBLE_EQ(self.at("client"), 300.0);
  EXPECT_DOUBLE_EQ(self.at("bench"), 50.0);

  pb::SpanRecorder off(false);
  off.add("x.y", 0, 1, 1, 0, 0);
  EXPECT_TRUE(off.spans().empty());
}

/// A scripted backend: answers from a canned result, counts calls.
class FakeBackend final : public drtopk::net::Backend {
 public:
  drtopk::serve::QueryResult canned;
  bool fail_next = false;
  mutable int calls = 0;
  u64 last_k = 0, last_deadline = 0;

  bool corpus_len(u32 id, u64& n) const override {
    ++calls;
    n = 1000 + id;
    return id < 2;
  }
  drtopk::serve::PlanKey shape_key(u32, u64 k, drtopk::data::Criterion,
                                   drtopk::core::FidelityPolicy) const override {
    ++calls;
    drtopk::serve::PlanKey key{};
    key.log2k = static_cast<u32>(std::bit_width(k));
    return key;
  }
  std::future<drtopk::serve::QueryResult> submit(
      u32, u64 k, drtopk::data::Criterion, bool, drtopk::core::FidelityPolicy,
      u64 deadline_us) override {
    ++calls;
    last_k = k;
    last_deadline = deadline_us;
    std::promise<drtopk::serve::QueryResult> p;
    if (fail_next)
      p.set_exception(std::make_exception_ptr(std::runtime_error("boom")));
    else
      p.set_value(canned);
    return p.get_future();
  }
  void note_service_time(const drtopk::serve::PlanKey&, u64 us) override {
    ++calls;
    last_deadline = us;
  }
  u64 service_estimate_us(const drtopk::serve::PlanKey&) const override {
    ++calls;
    return 77;
  }
  u64 queue_wait_quantile_us(double q) const override {
    ++calls;
    return static_cast<u64>(q * 100);
  }
  std::string metrics_prometheus() const override {
    ++calls;
    return "net_admitted 3\nnet_admitted{shard=\"0\"} 4\nnet_shed 1\n";
  }
  void drain() override { ++calls; }
};

TEST(TimedBackend, PassesResultsThroughUnchanged) {
  FakeBackend fake;
  fake.canned.id = 42;
  fake.canned.values = {9, 8, 7};
  fake.canned.kth = 7;
  fake.canned.latency_sim_ms = 0.125;
  fake.canned.wall_ms = 1.5;
  fake.canned.queue_us = 250;
  for (bool tracing : {false, true}) {
    pb::SpanRecorder rec(tracing);
    pb::TimedBackend tb(fake, rec);
    u64 n = 0;
    EXPECT_TRUE(tb.corpus_len(1, n));
    EXPECT_EQ(n, 1001u);
    EXPECT_FALSE(tb.corpus_len(5, n));
    EXPECT_EQ(tb.shape_key(0, 64, {}, {}).log2k, 7u);
    EXPECT_EQ(tb.service_estimate_us({}), 77u);
    EXPECT_EQ(tb.queue_wait_quantile_us(0.5), 50u);
    EXPECT_EQ(tb.metrics_prometheus(), fake.metrics_prometheus());
    tb.note_service_time({}, 999);
    EXPECT_EQ(fake.last_deadline, 999u);

    auto f = tb.submit(0, 3, {}, false, {}, 1234);
    EXPECT_EQ(fake.last_k, 3u);
    EXPECT_EQ(fake.last_deadline, 1234u);
    const drtopk::serve::QueryResult r = f.get();
    EXPECT_EQ(r.id, 42u);
    EXPECT_EQ(r.values, fake.canned.values);
    EXPECT_EQ(r.kth, 7u);
    EXPECT_EQ(r.latency_sim_ms, 0.125);
    EXPECT_EQ(r.queue_us, 250u);

    fake.fail_next = true;
    auto g = tb.submit(0, 3, {}, false, {}, 0);
    EXPECT_THROW(g.get(), std::runtime_error);  // exceptions pass through
    fake.fail_next = false;
    const int before = fake.calls;
    tb.drain();
    EXPECT_EQ(fake.calls, before + 1);

    EXPECT_EQ(tb.samples().size(), tracing ? 1u : 0u);
    if (tracing) {
      EXPECT_EQ(tb.samples()[0].queue_us, 250u);
      // submit + service spans for both calls (the failed one has no
      // service span: its wait threw).
      EXPECT_EQ(rec.spans().size(), 3u);
    }
  }
}

TEST(Prometheus, CounterSumsLabelSets) {
  const std::string text =
      "# HELP net_admitted x\nnet_admitted 3\nnet_admitted{shard=\"0\"} 4\n"
      "net_admitted_total 100\nnet_shed 1";
  EXPECT_EQ(pb::prom_counter(text, "net_admitted"), 7u);
  EXPECT_EQ(pb::prom_counter(text, "net_shed"), 1u);
  EXPECT_EQ(pb::prom_counter(text, "net_degraded"), 0u);
}

}  // namespace
