// Tests for the network front door's wire layer: framing codec
// round-trips, the protocol encoders/decoders, and — the load-bearing
// property — that malformed traffic can never crash the server or leak a
// connection slot. The fuzzers are seeded and deterministic: 10k malformed
// frames at the pure-decoder level, then the same generator replayed over
// live sockets against a running NetServer, asserting the connection table
// returns to baseline and a well-behaved client still gets answers.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <algorithm>
#include <functional>
#include <random>
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

// ---------------------------------------------------------------- framing

TEST(Framing, RoundTripSingleFrame) {
  const std::vector<u8> payload = {1, 2, 3, 4, 5};
  const auto wire = encode_frame(payload);
  ASSERT_EQ(wire.size(), kFrameHeader + payload.size());

  FrameDecoder dec;
  dec.feed(wire);
  auto f = dec.next();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(*f, payload);
  EXPECT_FALSE(dec.next().has_value());
  EXPECT_FALSE(dec.error());
}

TEST(Framing, ReassemblesByteAtATime) {
  const std::vector<u8> payload(1000, 0xAB);
  const auto wire = encode_frame(payload);

  FrameDecoder dec;
  for (size_t i = 0; i < wire.size(); ++i) {
    EXPECT_FALSE(dec.next().has_value()) << "frame completed early at " << i;
    dec.feed({&wire[i], 1});
  }
  auto f = dec.next();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(*f, payload);
}

TEST(Framing, MultipleFramesInOneFeed) {
  std::vector<u8> wire;
  for (u8 i = 0; i < 5; ++i) {
    const std::vector<u8> p(i + 1, i);
    const auto w = encode_frame(p);
    wire.insert(wire.end(), w.begin(), w.end());
  }
  FrameDecoder dec;
  dec.feed(wire);
  for (u8 i = 0; i < 5; ++i) {
    auto f = dec.next();
    ASSERT_TRUE(f.has_value()) << "frame " << int(i);
    EXPECT_EQ(*f, std::vector<u8>(i + 1, i));
  }
  EXPECT_FALSE(dec.next().has_value());
}

TEST(Framing, EmptyPayloadIsAValidFrame) {
  FrameDecoder dec;
  dec.feed(encode_frame({}));
  auto f = dec.next();
  ASSERT_TRUE(f.has_value());
  EXPECT_TRUE(f->empty());
}

TEST(Framing, BadMagicIsTerminal) {
  FrameDecoder dec;
  std::vector<u8> wire = encode_frame(std::vector<u8>{1, 2, 3});
  wire[0] ^= 0xFF;
  dec.feed(wire);
  EXPECT_TRUE(dec.error());
  EXPECT_FALSE(dec.next().has_value());
  // Terminal: even a now-valid frame is ignored.
  dec.feed(encode_frame(std::vector<u8>{9}));
  EXPECT_TRUE(dec.error());
  EXPECT_FALSE(dec.next().has_value());
}

TEST(Framing, OversizedLengthIsTerminalNotAnAllocation) {
  Writer w;
  w.u32_(kFrameMagic);
  w.u32_(kMaxFrame + 1);  // declared length over the ceiling
  FrameDecoder dec;
  dec.feed(w.payload());
  EXPECT_TRUE(dec.error());
  EXPECT_EQ(dec.pending_bytes(), 0u);  // nothing buffered, nothing allocated
}

TEST(Framing, ReaderPoisonsOnUnderrun) {
  const std::vector<u8> three = {1, 2, 3};
  Reader r(three);
  u32 v32 = 0;
  EXPECT_FALSE(r.u32_(v32));
  EXPECT_FALSE(r.ok());
  u8 v8 = 0;
  EXPECT_FALSE(r.u8_(v8));  // poisoned: even a fitting read fails
}

// --------------------------------------------------------------- protocol

TEST(Protocol, TopkRequestRoundTrip) {
  TopkRequest in;
  in.request_id = 0xDEADBEEFCAFE;
  in.corpus = 3;
  in.k = 100;
  in.criterion = 1;
  in.selection_only = 1;
  in.recall_floor_bp = 9000;
  in.deadline_us = 12345;

  const auto wire = encode(in);
  FrameDecoder dec;
  dec.feed(wire);
  auto payload = dec.next();
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(peek_type(*payload), MsgType::kTopkRequest);

  TopkRequest out;
  ASSERT_TRUE(decode(*payload, out));
  EXPECT_EQ(out.request_id, in.request_id);
  EXPECT_EQ(out.corpus, in.corpus);
  EXPECT_EQ(out.k, in.k);
  EXPECT_EQ(out.criterion, in.criterion);
  EXPECT_EQ(out.selection_only, in.selection_only);
  EXPECT_EQ(out.recall_floor_bp, in.recall_floor_bp);
  EXPECT_EQ(out.deadline_us, in.deadline_us);
}

TEST(Protocol, TopkResponseRoundTrip) {
  TopkResponse in;
  in.request_id = 77;
  in.status = Status::kDegraded;
  in.fidelity_bp = 9000;
  in.kth = 0x1122334455667788;
  in.values = {10, 9, 8, 7};
  in.server_us = 4321;

  const auto wire = encode(in);
  FrameDecoder dec;
  dec.feed(wire);
  auto payload = dec.next();
  ASSERT_TRUE(payload.has_value());

  TopkResponse out;
  ASSERT_TRUE(decode(*payload, out));
  EXPECT_EQ(out.request_id, in.request_id);
  EXPECT_EQ(out.status, in.status);
  EXPECT_EQ(out.fidelity_bp, in.fidelity_bp);
  EXPECT_EQ(out.kth, in.kth);
  EXPECT_EQ(out.values, in.values);
  EXPECT_EQ(out.server_us, in.server_us);
  // The frame-size bound the server admits by: fixed bytes plus 8 a value.
  EXPECT_EQ(wire.size(),
            kFrameHeader + kTopkResponseFixedBytes + 8 * in.values.size());
}

TEST(Protocol, RequestDecodeRejectsOutOfDomainFields) {
  TopkRequest good;
  good.k = 10;
  auto expect_reject = [](TopkRequest r) {
    const auto wire = encode(r);
    const std::span<const u8> payload{wire.data() + kFrameHeader,
                                      wire.size() - kFrameHeader};
    TopkRequest out;
    EXPECT_FALSE(decode(payload, out));
  };
  {
    TopkRequest r = good;
    r.k = 0;
    expect_reject(r);
  }
  {
    TopkRequest r = good;
    r.criterion = 2;  // data::Criterion has exactly two values
    expect_reject(r);
  }
  {
    TopkRequest r = good;
    r.selection_only = 9;
    expect_reject(r);
  }
  {
    TopkRequest r = good;
    r.recall_floor_bp = 4999;  // below the FidelityPolicy domain floor
    expect_reject(r);
  }
  {
    TopkRequest r = good;
    r.recall_floor_bp = 10001;  // above exact
    expect_reject(r);
  }
}

TEST(Protocol, RequestDecodeRejectsTruncationAndTrailingBytes) {
  TopkRequest r;
  r.k = 5;
  const auto wire = encode(r);
  const std::span<const u8> payload{wire.data() + kFrameHeader,
                                    wire.size() - kFrameHeader};
  // Every truncation point fails cleanly.
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    TopkRequest out;
    EXPECT_FALSE(decode(payload.subspan(0, cut), out)) << "cut=" << cut;
  }
  // Trailing garbage fails too.
  std::vector<u8> padded(payload.begin(), payload.end());
  padded.push_back(0);
  TopkRequest out;
  EXPECT_FALSE(decode(padded, out));
}

TEST(Protocol, MetricsRoundTrip) {
  const std::string text = "# HELP x\nx 1\n";
  const auto wire = encode_metrics_response(text);
  FrameDecoder dec;
  dec.feed(wire);
  auto payload = dec.next();
  ASSERT_TRUE(payload.has_value());
  std::string out;
  ASSERT_TRUE(decode_metrics_response(*payload, out));
  EXPECT_EQ(out, text);
}

// ------------------------------------------------------------ fuzz: codec

// Deterministic malformed-frame generator shared by the decoder-level and
// live-socket fuzzers. Mixes pure garbage, near-valid frames (right magic,
// hostile length), truncated valid frames, and well-framed but
// protocol-invalid payloads.
std::vector<u8> malformed_blob(std::mt19937_64& rng) {
  std::uniform_int_distribution<u32> pick(0, 4);
  std::uniform_int_distribution<u32> len_d(0, 64);
  std::uniform_int_distribution<u32> byte_d(0, 255);
  std::vector<u8> out;
  switch (pick(rng)) {
    case 0: {  // raw garbage, never framed
      const u32 n = 1 + len_d(rng);
      for (u32 i = 0; i < n; ++i)
        out.push_back(static_cast<u8>(byte_d(rng)));
      break;
    }
    case 1: {  // valid magic, oversized declared length
      Writer w;
      w.u32_(kFrameMagic);
      w.u32_(kMaxFrame + 1 + len_d(rng));
      out = w.payload();
      break;
    }
    case 2: {  // truncated valid frame (header promises more than sent)
      Writer w;
      w.u32_(kFrameMagic);
      w.u32_(32 + len_d(rng));
      w.u8_(static_cast<u8>(byte_d(rng)));
      out = w.payload();
      break;
    }
    case 3: {  // well-framed random payload (protocol-level garbage)
      const u32 n = len_d(rng);
      std::vector<u8> p(n);
      for (auto& b : p) b = static_cast<u8>(byte_d(rng));
      out = encode_frame(p);
      break;
    }
    default: {  // well-framed TopkRequest with corrupted fields
      TopkRequest r;
      r.request_id = rng();
      r.corpus = byte_d(rng);
      r.k = byte_d(rng);  // may be 0 => invalid
      r.criterion = static_cast<u8>(byte_d(rng));
      r.selection_only = static_cast<u8>(byte_d(rng));
      r.recall_floor_bp = rng() % 20000;
      out = encode(r);
      break;
    }
  }
  return out;
}

TEST(NetFuzz, DecoderSurvives10kMalformedFrames) {
  std::mt19937_64 rng(0xF0221);
  for (int i = 0; i < 10000; ++i) {
    FrameDecoder dec;
    dec.feed(malformed_blob(rng));
    // Drain whatever parsed; decode attempts must never crash.
    while (auto f = dec.next()) {
      TopkRequest req;
      TopkResponse resp;
      std::string text;
      (void)decode(*f, req);
      (void)decode(*f, resp);
      (void)decode_metrics_response(*f, text);
      (void)peek_type(*f);
    }
  }
}

// ---------------------------------------------------------- live server

struct LiveServer {
  vgpu::Device& dev = shared_device();
  vgpu::device_vector<u32> corpus;
  serve::TopkServer srv;
  SingleBackend backend;
  NetServer net;

  explicit LiveServer(NetServerConfig cfg = {}, u64 n = 1 << 14)
      : corpus(data::generate(n, Distribution::kUniform, 99)),
        srv(dev),
        backend(srv),
        net(backend, cfg) {
    backend.add_corpus(std::span<const u32>(corpus.data(), corpus.size()));
  }
};

TEST(NetServer, AnswersARequestEndToEnd) {
  LiveServer live;
  BlockingClient cli;
  ASSERT_TRUE(cli.connect(live.net.port()));

  TopkRequest req;
  req.request_id = 7;
  req.k = 10;
  auto resp = cli.call(req);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->request_id, 7u);
  EXPECT_EQ(resp->status, Status::kOk);
  EXPECT_EQ(resp->fidelity_bp, kExactBp);
  ASSERT_EQ(resp->values.size(), 10u);
  // Best-first ordering and kth consistency.
  for (size_t i = 1; i < resp->values.size(); ++i)
    EXPECT_GE(resp->values[i - 1], resp->values[i]);
  EXPECT_EQ(resp->kth, resp->values.back());
}

TEST(NetServer, UnknownCorpusAndBadFramesAreTyped) {
  LiveServer live;
  BlockingClient cli;
  ASSERT_TRUE(cli.connect(live.net.port()));

  TopkRequest req;
  req.request_id = 1;
  req.corpus = 42;  // unregistered
  auto resp = cli.call(req);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, Status::kBadRequest);

  // Well-framed protocol garbage: typed kBadRequest, connection survives.
  ASSERT_TRUE(cli.send_raw(encode_frame(std::vector<u8>{0xFF, 0x00})));
  auto resp2 = cli.recv_response();
  ASSERT_TRUE(resp2.has_value());
  EXPECT_EQ(resp2->status, Status::kBadRequest);

  // The same connection still answers real queries.
  req.corpus = 0;
  req.request_id = 2;
  auto resp3 = cli.call(req);
  ASSERT_TRUE(resp3.has_value());
  EXPECT_EQ(resp3->status, Status::kOk);
}

TEST(NetServer, AnswerLargerThanOneFrameIsATypedBadRequest) {
  // 34 fixed bytes + 8 per value: k = 131,067 is the largest full answer
  // one kMaxFrame response carries.
  ASSERT_EQ(kMaxResponseValues, 131067u);
  LiveServer live({}, u64{1} << 18);
  BlockingClient cli;
  ASSERT_TRUE(cli.connect(live.net.port()));
  const obs::Counter& bad = live.net.metrics().counter("net_requests_bad");

  TopkRequest req;
  req.request_id = 1;
  req.k = kMaxResponseValues;
  auto fits = cli.call(req);
  ASSERT_TRUE(fits.has_value());
  EXPECT_EQ(fits->status, Status::kOk);
  EXPECT_EQ(fits->values.size(), kMaxResponseValues);
  EXPECT_EQ(bad.value(), 0u);

  req.request_id = 2;
  req.k = kMaxResponseValues + 1;
  auto too_big = cli.call(req);
  ASSERT_TRUE(too_big.has_value()) << "connection dropped, no typed reply";
  EXPECT_EQ(too_big->request_id, 2u);
  EXPECT_EQ(too_big->status, Status::kBadRequest);
  EXPECT_EQ(bad.value(), 1u);

  // Selection-only answers carry one value, so any k <= n stays allowed.
  req.request_id = 3;
  req.selection_only = 1;
  auto kth = cli.call(req);
  ASSERT_TRUE(kth.has_value());
  EXPECT_EQ(kth->status, Status::kOk);
  EXPECT_LE(kth->values.size(), 1u);
  std::vector<u32> sorted(live.corpus.begin(), live.corpus.end());
  std::nth_element(sorted.begin(), sorted.begin() + (req.k - 1), sorted.end(),
                   std::greater<u32>());
  EXPECT_EQ(kth->kth, sorted[req.k - 1]);
  EXPECT_EQ(bad.value(), 1u);
}

TEST(NetServer, PingAndMetricsOverTheSocket) {
  LiveServer live;
  BlockingClient cli;
  ASSERT_TRUE(cli.connect(live.net.port()));
  EXPECT_TRUE(cli.ping());

  TopkRequest req;
  req.k = 5;
  ASSERT_TRUE(cli.call(req).has_value());

  auto metrics = cli.metrics();
  ASSERT_TRUE(metrics.has_value());
  // Front-door series and backend series arrive in one snapshot.
  EXPECT_NE(metrics->find("net_admitted"), std::string::npos);
  EXPECT_NE(metrics->find("net_request_us"), std::string::npos);
  EXPECT_NE(metrics->find("serve_queries_completed"), std::string::npos);
}

TEST(NetFuzz, LiveServerSurvivesMalformedTrafficWithoutLeakingSlots) {
  LiveServer live;
  const u16 port = live.net.port();

  // A control client that must keep working throughout.
  BlockingClient control;
  ASSERT_TRUE(control.connect(port));

  std::mt19937_64 rng(0xF0222);
  BlockingClient attacker;
  ASSERT_TRUE(attacker.connect(port));
  int sent_on_conn = 0;
  for (int i = 0; i < 10000; ++i) {
    if (!attacker.connected() || !attacker.send_raw(malformed_blob(rng))) {
      // Server dropped us (framing violation) — reconnect and continue.
      attacker.close();
      ASSERT_TRUE(attacker.connect(port)) << "iteration " << i;
      sent_on_conn = 0;
      continue;
    }
    ++sent_on_conn;
    // Periodically force reconnects so fd reuse and slot accounting get
    // exercised even when frames were merely protocol-invalid.
    if (sent_on_conn >= 64) {
      attacker.close();
      ASSERT_TRUE(attacker.connect(port));
      sent_on_conn = 0;
    }
  }
  attacker.close();

  // The control client still gets exact answers.
  TopkRequest req;
  req.request_id = 31337;
  req.k = 25;
  auto resp = control.call(req);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, Status::kOk);
  ASSERT_EQ(resp->values.size(), 25u);

  // No leaked connection or in-flight slots: once the attacker's fd drains
  // out of the loop, only the control connection remains. A finisher
  // releases a request's in-flight slot just after delivering its response,
  // so the control client can see its answer (and close) first: poll both
  // counters until they settle.
  control.close();
  for (int spin = 0; spin < 200; ++spin) {
    if (live.net.active_connections() == 0 && live.net.in_flight() == 0)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(live.net.active_connections(), 0u);
  EXPECT_EQ(live.net.in_flight(), 0u);
}

TEST(NetServer, ConnectionCapClosesExcessAccepts) {
  NetServerConfig cfg;
  cfg.max_connections = 2;
  LiveServer live(cfg);

  BlockingClient a, b;
  ASSERT_TRUE(a.connect(live.net.port()));
  ASSERT_TRUE(b.connect(live.net.port()));
  ASSERT_TRUE(a.ping());  // both slots live

  BlockingClient c;
  ASSERT_TRUE(c.connect(live.net.port()));  // TCP accepts...
  // ...but the server closes it on sight: the next read sees EOF.
  auto f = c.recv_frame();
  EXPECT_FALSE(f.has_value());
}

}  // namespace
}  // namespace drtopk::net
