// Fault injection for the network front door: clients that die or stall
// mid-stream, connections dropped while their queries' groups are still in
// flight, a backend whose submit or result fails. The invariants under
// attack: the serving layer always drains (no orphaned group state), every
// kernel launch stays stage-attributed, orphaned responses are
// dropped-and-counted rather than misdelivered, backend failures reach
// their caller as a counted kError, and the server keeps answering the
// well-behaved.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <future>
#include <stdexcept>
#include <thread>

#include "data/distributions.hpp"
#include "net/client.hpp"
#include "net/net_server.hpp"

namespace drtopk::net {
namespace {

using data::Criterion;
using data::Distribution;

struct Fixture {
  vgpu::Device dev;  // private device: unattributed_launches isolated
  vgpu::device_vector<u32> corpus;
  serve::TopkServer srv;
  SingleBackend backend;
  NetServer net;

  explicit Fixture(serve::ServerConfig scfg = {}, NetServerConfig ncfg = {})
      : corpus(data::generate(1 << 15, Distribution::kUniform, 71)),
        srv(dev, scfg),
        backend(srv),
        net(backend, ncfg) {
    backend.add_corpus(std::span<const u32>(corpus.data(), corpus.size()));
  }

  u64 counter(const char* name) const {
    const obs::Counter* c = net.metrics().find_counter(name);
    return c ? c->value() : 0;
  }

  /// Waits until at least `opened` connections were ever accepted AND none
  /// remain. "active == 0" alone is trivially true before the loop thread
  /// even accepts — the opened floor is what makes this a real barrier
  /// (and since EOF is processed after the frames buffered ahead of it, a
  /// closed connection's requests are guaranteed admitted-or-shed).
  void await_closed(u64 opened) {
    for (int spin = 0; spin < 500; ++spin) {
      if (counter("net_connections_opened") >= opened &&
          net.active_connections() == 0)
        return;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    FAIL() << "connections stuck: opened="
           << counter("net_connections_opened") << " active="
           << net.active_connections();
  }
};

TEST(NetFaults, ClientKilledMidFrame) {
  Fixture fx;
  BlockingClient cli;
  ASSERT_TRUE(cli.connect(fx.net.port()));

  // Half a valid frame (header promises 34 payload bytes, sends 4), then
  // the client dies. The server must drop the buffered partial silently.
  TopkRequest req;
  req.k = 10;
  const auto wire = encode(req);
  ASSERT_TRUE(cli.send_raw({wire.data(), wire.size() / 2}));
  cli.close();

  fx.await_closed(1);
  fx.net.drain();
  fx.srv.drain();
  EXPECT_EQ(fx.dev.unattributed_launches(), 0u);
  EXPECT_EQ(fx.net.in_flight(), 0u);

  // A new client on a (likely reused) fd gets clean answers.
  BlockingClient next;
  ASSERT_TRUE(next.connect(fx.net.port()));
  auto resp = next.call(req);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, Status::kOk);
}

TEST(NetFaults, ClientKilledWithRequestsInFlightDropsResponsesCounted) {
  Fixture fx;
  BlockingClient cli;
  ASSERT_TRUE(cli.connect(fx.net.port()));

  // Pipeline a burst and vanish before any response lands. The admitted
  // queries still execute; their responses must be dropped-and-counted,
  // never misdelivered to whoever inherits the fd.
  constexpr int kBurst = 6;
  for (int i = 0; i < kBurst; ++i) {
    TopkRequest req;
    req.request_id = static_cast<u64>(i);
    req.k = 256;
    ASSERT_TRUE(cli.send(req));
  }
  cli.close();

  // The loop thread handles every buffered frame BEFORE it can observe the
  // EOF behind them, so "connection opened then gone" implies "burst
  // admitted" — only then does drain() have anything to wait for.
  fx.await_closed(1);
  fx.net.drain();  // every admitted request answered (somewhere)
  fx.srv.drain();
  EXPECT_EQ(fx.dev.unattributed_launches(), 0u);
  EXPECT_EQ(fx.net.in_flight(), 0u);
  // At least one admitted response found its connection gone. (Some of the
  // burst may have been answered before the close raced in; "all shed
  // pre-admission" would mean admitted == 0, which the assert rules out.)
  EXPECT_GE(fx.counter("net_admitted"), 1u);
  EXPECT_GE(fx.counter("net_responses_dropped"), 1u);

  // Immediately reconnect (likely reusing the fd): no stale response may
  // arrive — the first frame this client sees is its own pong.
  BlockingClient next;
  ASSERT_TRUE(next.connect(fx.net.port()));
  EXPECT_TRUE(next.ping());
}

TEST(NetFaults, ConnectionsDroppedWhileGroupsAreInFlight) {
  // Several admission groups are mid-flight — items parked for their
  // group's batched finalization — precisely when a dying client leaves
  // queries in the most shared state. Drops here must not wedge the
  // serving layer.
  serve::ServerConfig scfg;
  scfg.executors = 2;
  Fixture fx(scfg);

  constexpr int kClients = 4;
  BlockingClient clis[kClients];
  for (int c = 0; c < kClients; ++c) {
    ASSERT_TRUE(clis[c].connect(fx.net.port()));
    for (int i = 0; i < 3; ++i) {
      TopkRequest req;
      req.request_id = static_cast<u64>(c * 100 + i);
      req.k = 64 + static_cast<u64>(c);  // distinct shapes: several groups
      ASSERT_TRUE(clis[c].send(req));
    }
  }
  // Give the requests time to admit, then kill half the clients while
  // their groups run.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  clis[0].close();
  clis[2].close();

  fx.net.drain();
  fx.srv.drain();
  EXPECT_EQ(fx.dev.unattributed_launches(), 0u);
  EXPECT_EQ(fx.net.in_flight(), 0u);

  // The surviving clients still get every answer.
  for (int c : {1, 3}) {
    for (int i = 0; i < 3; ++i) {
      auto resp = clis[c].recv_response();
      ASSERT_TRUE(resp.has_value()) << "client " << c << " response " << i;
      EXPECT_EQ(resp->status, Status::kOk);
    }
  }
}

TEST(NetFaults, StalledClientDoesNotStallTheServer) {
  // A client that writes but never reads. Its responses pile into the
  // outbox (socket buffers full, EPOLLOUT never drains) — and a healthy
  // client on the same server must remain completely unaffected.
  Fixture fx;
  BlockingClient stalled;
  ASSERT_TRUE(stalled.connect(fx.net.port()));
  for (int i = 0; i < 16; ++i) {
    TopkRequest req;
    req.request_id = static_cast<u64>(i);
    req.k = 1024;  // chunky responses
    ASSERT_TRUE(stalled.send(req));
  }

  BlockingClient healthy;
  ASSERT_TRUE(healthy.connect(fx.net.port()));
  for (int i = 0; i < 4; ++i) {
    TopkRequest req;
    req.request_id = 1000 + static_cast<u64>(i);
    req.k = 32;
    auto resp = healthy.call(req);
    ASSERT_TRUE(resp.has_value()) << "healthy request " << i;
    EXPECT_EQ(resp->status, Status::kOk);
  }

  // Half-close the stalled reader (RST on the server's next write), then
  // confirm full teardown.
  ::shutdown(stalled.fd(), SHUT_RDWR);
  stalled.close();
  fx.net.drain();
  fx.srv.drain();
  EXPECT_EQ(fx.dev.unattributed_launches(), 0u);
  healthy.close();
  fx.await_closed(2);
}

/// Backend decorator over a SingleBackend: `submit` throws for k ==
/// throw_k and returns a future holding an exception for k == fail_k;
/// every other call forwards.
class FaultyBackend final : public Backend {
 public:
  FaultyBackend(Backend& inner, u64 throw_k, u64 fail_k)
      : inner_(inner), throw_k_(throw_k), fail_k_(fail_k) {}

  bool corpus_len(u32 id, u64& n_out) const override {
    return inner_.corpus_len(id, n_out);
  }
  serve::PlanKey shape_key(u32 id, u64 k, Criterion c,
                           core::FidelityPolicy f) const override {
    return inner_.shape_key(id, k, c, f);
  }
  std::future<serve::QueryResult> submit(u32 id, u64 k, Criterion c,
                                         bool selection_only,
                                         core::FidelityPolicy f,
                                         u64 deadline_us) override {
    if (k == throw_k_) throw std::runtime_error("submit failed");
    if (k == fail_k_) {
      std::promise<serve::QueryResult> p;
      p.set_exception(
          std::make_exception_ptr(std::runtime_error("query failed")));
      return p.get_future();
    }
    return inner_.submit(id, k, c, selection_only, f, deadline_us);
  }
  void note_service_time(const serve::PlanKey& key, u64 us) override {
    inner_.note_service_time(key, us);
  }
  u64 service_estimate_us(const serve::PlanKey& key) const override {
    return inner_.service_estimate_us(key);
  }
  u64 queue_wait_quantile_us(double q) const override {
    return inner_.queue_wait_quantile_us(q);
  }
  std::string metrics_prometheus() const override {
    return inner_.metrics_prometheus();
  }
  void drain() override { inner_.drain(); }

 private:
  Backend& inner_;
  u64 throw_k_, fail_k_;
};

TEST(NetFaults, BackendFailuresAnswerErrorAndAreCounted) {
  vgpu::Device dev;
  const auto corpus = data::generate(1 << 15, Distribution::kUniform, 73);
  const std::span<const u32> vs(corpus.data(), corpus.size());
  serve::TopkServer srv(dev, {});
  SingleBackend single(srv);
  single.add_corpus(vs);
  FaultyBackend backend(single, /*throw_k=*/7, /*fail_k=*/9);
  NetServer net(backend, {});
  BlockingClient cli;
  ASSERT_TRUE(cli.connect(net.port()));

  for (u64 k : {u64{7}, u64{9}}) {
    TopkRequest req;
    req.request_id = k;
    req.k = k;
    auto resp = cli.call(req);
    ASSERT_TRUE(resp.has_value()) << "k=" << k;
    EXPECT_EQ(resp->request_id, k);
    EXPECT_EQ(resp->status, Status::kError) << "k=" << k;
  }
  auto metrics = cli.metrics();
  ASSERT_TRUE(metrics.has_value());
  EXPECT_NE(metrics->find("\nnet_backend_submit_errors 1\n"),
            std::string::npos);
  EXPECT_NE(metrics->find("\nnet_backend_result_errors 1\n"),
            std::string::npos);

  // The server keeps answering: a normal request matches the oracle.
  TopkRequest ok;
  ok.k = 100;
  auto resp = cli.call(ok);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, Status::kOk);
  const auto expect = topk::reference_topk(vs, 100);
  EXPECT_EQ(resp->values, std::vector<u64>(expect.begin(), expect.end()));

  net.drain();
  srv.drain();
  EXPECT_EQ(net.in_flight(), 0u);
}

/// Pipelines one request per k over `cli` (request ids id0, id0 + 1, ...)
/// and checks that each gets exactly one typed reply — kOk with the
/// oracle's answer over `vs`, or kError — and that no stray reply follows
/// (the next frame is a ping's pong). Returns the number of kError replies.
u64 burst_typed(BlockingClient& cli, u64 id0, const std::vector<u64>& ks,
                std::span<const u32> vs) {
  for (size_t i = 0; i < ks.size(); ++i) {
    TopkRequest req;
    req.request_id = id0 + i;
    req.k = ks[i];
    EXPECT_TRUE(cli.send(req)) << "request " << id0 + i;
  }
  std::vector<int> replies(ks.size(), 0);
  u64 errors = 0;
  for (size_t i = 0; i < ks.size(); ++i) {
    const auto resp = cli.recv_response();
    if (!resp) {
      ADD_FAILURE() << "connection closed after " << i << " replies";
      return errors;
    }
    const u64 at = resp->request_id - id0;
    if (at >= ks.size()) {
      ADD_FAILURE() << "reply to unknown request " << resp->request_id;
      continue;
    }
    ++replies[at];
    if (resp->status == Status::kOk) {
      const auto expect = topk::reference_topk(vs, ks[at]);
      EXPECT_EQ(resp->values, std::vector<u64>(expect.begin(), expect.end()))
          << "request " << resp->request_id;
    } else {
      EXPECT_EQ(resp->status, Status::kError)
          << "request " << resp->request_id;
      EXPECT_TRUE(resp->values.empty()) << "request " << resp->request_id;
      ++errors;
    }
  }
  for (size_t i = 0; i < ks.size(); ++i)
    EXPECT_EQ(replies[i], 1) << "request " << id0 + i;
  EXPECT_TRUE(cli.ping());
  return errors;
}

/// The front door's value of counter `name`.
u64 net_counter(const NetServer& net, const char* name) {
  const obs::Counter* c = net.metrics().find_counter(name);
  return c ? c->value() : 0;
}

/// Drives launch faults on `dev` through `net`: a construct launch that
/// fails once leaves every reply kOk and oracle-exact (the group setup
/// falls back), a sticky one answers every request kError and counts each
/// in net_backend_result_errors, and once disarmed the server answers kOk
/// again.
void expect_typed_construct_faults(NetServer& net, vgpu::Device& dev,
                                   std::span<const u32> vs,
                                   const std::string& tag) {
  BlockingClient cli;
  ASSERT_TRUE(cli.connect(net.port())) << tag;
  const std::vector<u64> ks = {16, 100, 100, 333};
  EXPECT_EQ(burst_typed(cli, 100, ks, vs), 0u) << tag << " warm";

  dev.fail_next_launches("construct", 1);
  EXPECT_EQ(burst_typed(cli, 200, ks, vs), 0u) << tag << " transient";
  EXPECT_EQ(net_counter(net, "net_backend_result_errors"), 0u) << tag;

  dev.fail_next_launches("construct", 1000);
  EXPECT_EQ(burst_typed(cli, 300, ks, vs), ks.size()) << tag << " sticky";
  EXPECT_EQ(net_counter(net, "net_backend_result_errors"), ks.size())
      << tag;
  EXPECT_EQ(net_counter(net, "net_backend_submit_errors"), 0u) << tag;

  dev.fail_next_launches("construct", 0);
  EXPECT_EQ(burst_typed(cli, 400, ks, vs), 0u) << tag << " disarmed";
  EXPECT_EQ(net_counter(net, "net_backend_result_errors"), ks.size())
      << tag;
}

TEST(NetFaults, LaunchFaultsBehindEachBackendAnswerTyped) {
  const auto corpus = data::generate(1 << 16, Distribution::kUniform, 79);
  const std::span<const u32> vs(corpus.data(), corpus.size());
  {
    vgpu::Device dev;  // private fault seam
    serve::TopkServer srv(dev, {});
    SingleBackend backend(srv);
    backend.add_corpus(vs);
    NetServer net(backend, {});
    expect_typed_construct_faults(net, dev, vs, "single");
    net.drain();
    srv.drain();
    EXPECT_EQ(net.in_flight(), 0u);
  }
  serve::ShardedConfig cfg;
  cfg.num_shards = 2;
  serve::ShardedTopkServer srv(cfg);
  ShardedBackend backend(srv);
  backend.add_corpus(vs);
  ASSERT_EQ(srv.corpus_shards(0), 2u);
  NetServer net(backend, {});
  expect_typed_construct_faults(net, srv.shard_device(1), vs, "sharded");

  // A failed merge launch fails the queries of its batch: each still gets
  // one typed reply, and the errors are counted.
  BlockingClient cli;
  ASSERT_TRUE(cli.connect(net.port()));
  const std::vector<u64> ks = {64, 128, 256};
  const u64 before = net_counter(net, "net_backend_result_errors");
  srv.merge_device().fail_next_launches("merge", 1);
  const u64 transient = burst_typed(cli, 500, ks, vs);
  EXPECT_GE(transient, 1u);
  srv.merge_device().fail_next_launches("merge", 1000);
  EXPECT_EQ(burst_typed(cli, 600, ks, vs), ks.size());
  EXPECT_EQ(net_counter(net, "net_backend_result_errors"),
            before + transient + ks.size());
  srv.merge_device().fail_next_launches("merge", 0);
  EXPECT_EQ(burst_typed(cli, 700, ks, vs), 0u);
  net.drain();
  srv.drain();
  EXPECT_EQ(net.in_flight(), 0u);
}

TEST(NetFaults, ServerStopWithLiveClientsIsClean) {
  auto fx = std::make_unique<Fixture>();
  const u16 port = fx->net.port();
  BlockingClient cli;
  ASSERT_TRUE(cli.connect(port));
  TopkRequest req;
  req.k = 8;
  ASSERT_TRUE(cli.call(req).has_value());

  // stop() with a connected client: joins all threads, closes all fds.
  fx->net.stop();
  EXPECT_EQ(fx->net.active_connections(), 0u);
  EXPECT_EQ(fx->net.in_flight(), 0u);
  // The client observes EOF, not a hang.
  auto f = cli.recv_frame();
  EXPECT_FALSE(f.has_value());
  fx->srv.drain();
  EXPECT_EQ(fx->dev.unattributed_launches(), 0u);
}

}  // namespace
}  // namespace drtopk::net
