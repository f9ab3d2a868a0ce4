// NetServer: the TCP front door over TopkServer / ShardedTopkServer.
//
//   vgpu::Device dev;  serve::TopkServer srv(dev);
//   net::SingleBackend be(srv);
//   u32 corpus = be.add_corpus(std::span<const u32>(data));
//   net::NetServer fd(be, {.port = 0});        // 0 = ephemeral
//   ... clients connect to fd.port(), speak net/protocol.hpp frames ...
//
// Threading model (one of each, by design):
//   * ONE event-loop thread owns the listener, every connection fd, the
//     epoll set and all socket reads/writes. Nonblocking end to end: the
//     only place it can block is epoll_wait. It never calls future.get().
//   * N finisher threads block on backend futures and hand finished
//     response bytes back to the loop (conn-table deposit + eventfd wake).
//     Blocking is quarantined here, sized independently of connections.
//
// A connection is (fd, generation): the generation is a process-unique
// u64, so a response completing after its connection died — and after the
// kernel reused the fd for a NEW client — can never be misdelivered; it is
// dropped and counted (net_responses_dropped).
//
// Admission (net/admission.hpp) runs on the loop thread before any query
// touches the backend; the net-level in-flight bound stays at or below the
// backend's, so backend submit() — which blocks at ITS bound — never
// stalls the loop. Framing violations drop the connection; well-framed
// garbage gets a typed kBadRequest; docs/SERVING.md is the full state
// machine.
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/admission.hpp"
#include "serve/server.hpp"
#include "serve/sharded.hpp"

namespace drtopk::net {

/// What the front door needs from a serving engine, factored so one event
/// loop drives both the single-device TopkServer and the sharded
/// deployment. Corpora are registered out of band (before clients are let
/// in); ids are dense and validated per request.
class Backend {
 public:
  virtual ~Backend() = default;
  /// Corpus length; false when the id is unregistered.
  virtual bool corpus_len(u32 id, u64& n_out) const = 0;
  /// The request's PlanCache shape key at a given fidelity — the handle
  /// admission uses for service-time estimates and feedback.
  virtual serve::PlanKey shape_key(u32 id, u64 k, data::Criterion c,
                                   core::FidelityPolicy f) const = 0;
  /// Submits one admitted request. `deadline_us` is the client's budget
  /// (0 = none); admission has already acted on it, and the in-tree engines
  /// ignore it.
  virtual std::future<serve::QueryResult> submit(u32 id, u64 k,
                                                 data::Criterion c,
                                                 bool selection_only,
                                                 core::FidelityPolicy f,
                                                 u64 deadline_us) = 0;
  /// Measured service time (wall minus queue wait) fed back into the
  /// estimator after each completion.
  virtual void note_service_time(const serve::PlanKey& key, u64 us) = 0;
  virtual u64 service_estimate_us(const serve::PlanKey& key) const = 0;
  /// Live queue-wait quantile from the serving layer's histogram.
  virtual u64 queue_wait_quantile_us(double q) const = 0;
  virtual std::string metrics_prometheus() const = 0;
  virtual void drain() = 0;
};

/// Backend over one TopkServer; owns the corpus id -> span table.
class SingleBackend final : public Backend {
 public:
  explicit SingleBackend(serve::TopkServer& srv) : srv_(srv) {}

  u32 add_corpus(std::span<const u32> v) {
    corpora_.push_back({v, {}});
    return static_cast<u32>(corpora_.size() - 1);
  }
  u32 add_corpus(std::span<const u64> v) {
    corpora_.push_back({{}, v});
    return static_cast<u32>(corpora_.size() - 1);
  }

  bool corpus_len(u32 id, u64& n_out) const override {
    if (id >= corpora_.size()) return false;
    const Corpus& c = corpora_[id];
    n_out = c.v64.empty() ? c.v32.size() : c.v64.size();
    return true;
  }

  serve::PlanKey shape_key(u32 id, u64 k, data::Criterion c,
                           core::FidelityPolicy f) const override {
    const Corpus& co = corpora_[id];
    return co.v64.empty() ? serve::PlanCache::make_key(co.v32, k, c, f)
                          : serve::PlanCache::make_key(co.v64, k, c, f);
  }

  std::future<serve::QueryResult> submit(u32 id, u64 k, data::Criterion c,
                                         bool selection_only,
                                         core::FidelityPolicy f,
                                         u64 /*deadline_us*/) override {
    const Corpus& co = corpora_[id];
    return co.v64.empty()
               ? srv_.submit(serve::Query::view(co.v32, k, c, selection_only,
                                                f))
               : srv_.submit(serve::Query::view(co.v64, k, c, selection_only,
                                                f));
  }

  void note_service_time(const serve::PlanKey& key, u64 us) override {
    srv_.plan_cache().note_service_time(key, us);
  }
  u64 service_estimate_us(const serve::PlanKey& key) const override {
    return srv_.plan_cache().service_estimate_us(key);
  }
  u64 queue_wait_quantile_us(double q) const override {
    const obs::Histogram* h =
        srv_.metrics().find_histogram("serve_queue_wait_us");
    return h ? h->percentile(q) : 0;
  }
  std::string metrics_prometheus() const override {
    return srv_.metrics_prometheus();
  }
  void drain() override { srv_.drain(); }

 private:
  struct Corpus {
    std::span<const u32> v32;
    std::span<const u64> v64;
  };
  serve::TopkServer& srv_;
  std::vector<Corpus> corpora_;  ///< append-only before clients connect
};

/// Backend over the sharded deployment. Shape keys are computed over the
/// FULL corpus span (a shard-count-independent handle for the whole
/// scatter/merge operation); the service-time EWMA lives in shard 0's
/// PlanCache — the estimate map is separate from calibrated plans, so a
/// full-span key needs no plan there.
class ShardedBackend final : public Backend {
 public:
  explicit ShardedBackend(serve::ShardedTopkServer& srv) : srv_(srv) {}

  u32 add_corpus(std::span<const u32> v) {
    const u32 id = srv_.register_corpus(v);
    corpora_.push_back({v, {}});
    (void)id;  // registration order makes net ids == sharded CorpusIds
    return static_cast<u32>(corpora_.size() - 1);
  }
  u32 add_corpus(std::span<const u64> v) {
    srv_.register_corpus(v);
    corpora_.push_back({{}, v});
    return static_cast<u32>(corpora_.size() - 1);
  }

  bool corpus_len(u32 id, u64& n_out) const override {
    if (id >= corpora_.size()) return false;
    const Corpus& c = corpora_[id];
    n_out = c.v64.empty() ? c.v32.size() : c.v64.size();
    return true;
  }

  serve::PlanKey shape_key(u32 id, u64 k, data::Criterion c,
                           core::FidelityPolicy f) const override {
    const Corpus& co = corpora_[id];
    return co.v64.empty() ? serve::PlanCache::make_key(co.v32, k, c, f)
                          : serve::PlanCache::make_key(co.v64, k, c, f);
  }

  std::future<serve::QueryResult> submit(u32 id, u64 k, data::Criterion c,
                                         bool selection_only,
                                         core::FidelityPolicy f,
                                         u64 /*deadline_us*/) override {
    return srv_.submit(id, k, c, selection_only, f);
  }

  void note_service_time(const serve::PlanKey& key, u64 us) override {
    srv_.shard(0).plan_cache().note_service_time(key, us);
  }
  u64 service_estimate_us(const serve::PlanKey& key) const override {
    return srv_.shard(0).plan_cache().service_estimate_us(key);
  }
  u64 queue_wait_quantile_us(double q) const override {
    const obs::Histogram* h =
        srv_.shard(0).metrics().find_histogram("serve_queue_wait_us");
    return h ? h->percentile(q) : 0;
  }
  std::string metrics_prometheus() const override {
    return srv_.metrics_prometheus();
  }
  void drain() override { srv_.drain(); }

 private:
  struct Corpus {
    std::span<const u32> v32;
    std::span<const u64> v64;
  };
  serve::ShardedTopkServer& srv_;
  std::vector<Corpus> corpora_;
};

/// Front-door knobs. Defaults are safe for tests (loopback, ephemeral
/// port, limits off); drtopk_serverd exposes them as flags.
struct NetServerConfig {
  u16 port = 0;           ///< 0 = ephemeral; resolved port via port()
  u32 finishers = 2;      ///< threads blocking on backend futures
  u32 max_connections = 256;  ///< beyond this, accepts are closed on sight
  double client_rate_qps = 0.0;  ///< per-connection token bucket; 0 = off
  double client_burst = 16.0;
  u32 client_quota = 0;   ///< per-connection in-flight cap; 0 = off
  AdmissionController::Config admission;
};

/// The epoll front door (see the file comment for the threading model).
class NetServer {
 public:
  /// Binds 127.0.0.1:<port>, starts the loop and finisher threads. Throws
  /// std::runtime_error when the socket plumbing fails.
  NetServer(Backend& backend, NetServerConfig cfg = {});
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// The bound (possibly ephemeral) port.
  u16 port() const { return port_; }

  /// Live connection count — the fuzz tests' slot-leak probe.
  u64 active_connections() const;

  /// Requests admitted to the backend but not yet answered.
  u64 in_flight() const { return inflight_.load(std::memory_order_relaxed); }

  /// Blocks until every admitted request has been answered (responses may
  /// still sit in dead connections' dropped counters — that is "answered").
  void drain();

  /// Stops accepting, closes every connection, joins all threads. Admitted
  /// queries are completed first (their responses are dropped). Idempotent;
  /// the destructor calls it.
  void stop();

  /// Front-door metrics (net_* series). Backend metrics stay in the
  /// backend's own registries; the kMetricsRequest response concatenates
  /// both, exactly like this accessor's consumers should.
  obs::Registry& metrics() { return reg_; }
  const obs::Registry& metrics() const { return reg_; }

 private:
  struct Conn {
    int fd = -1;
    u64 gen = 0;             ///< process-unique; the anti-misdelivery token
    FrameDecoder dec;
    std::deque<std::vector<u8>> outbox;
    size_t out_off = 0;      ///< bytes of outbox.front() already written
    TokenBucket bucket;
    u32 inflight = 0;        ///< per-client quota accounting
    bool want_write = false; ///< EPOLLOUT currently armed
  };

  /// One admitted query handed to the finisher pool.
  struct FinishJob {
    std::future<serve::QueryResult> fut;
    int fd = -1;
    u64 gen = 0;
    u64 request_id = 0;
    u32 fidelity_bp = kExactBp;
    u64 deadline_us = 0;
    u64 t_admit_us = 0;
    serve::PlanKey key;      ///< shape key at the ADMITTED fidelity
  };

  void loop();
  void finisher_loop();
  void accept_ready();
  void conn_readable(int fd);
  void conn_writable(int fd);
  void handle_frame(Conn& c, std::span<const u8> payload);
  void handle_topk(Conn& c, std::span<const u8> payload);
  /// Queues response bytes for (fd, gen) and wakes the loop; drops (and
  /// counts) when the connection is gone. Safe from any thread.
  void deliver(int fd, u64 gen, std::vector<u8> frame_bytes);
  /// Loop thread only: arm/flush/close primitives.
  void arm_writes_locked();
  void flush_conn(Conn& c);
  void close_conn(int fd);
  void wake();

  Backend& backend_;
  NetServerConfig cfg_;
  AdmissionController admission_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int event_fd_ = -1;
  u16 port_ = 0;
  std::atomic<bool> stop_{false};

  mutable std::mutex conns_mu_;
  std::unordered_map<int, std::unique_ptr<Conn>> conns_;
  u64 next_gen_ = 1;

  std::atomic<u64> inflight_{0};
  std::mutex drain_mu_;
  std::condition_variable drain_cv_;

  std::mutex jobs_mu_;
  std::condition_variable jobs_cv_;
  std::deque<FinishJob> jobs_;
  bool jobs_stop_ = false;

  obs::Registry reg_;
  obs::Counter& m_conns_opened_;
  obs::Counter& m_conns_closed_;
  obs::Counter& m_frames_bad_;
  obs::Counter& m_requests_bad_;
  obs::Counter& m_admitted_;
  obs::Counter& m_degraded_;
  obs::Counter& m_shed_;
  obs::Counter& m_shed_rate_;
  obs::Counter& m_shed_quota_;
  obs::Counter& m_shed_overload_;
  obs::Counter& m_shed_deadline_;
  obs::Counter& m_deadline_missed_;
  obs::Counter& m_responses_dropped_;
  obs::Counter& m_backend_submit_errors_;
  obs::Counter& m_backend_result_errors_;
  obs::Gauge& m_active_conns_;
  obs::Gauge& m_inflight_gauge_;
  obs::Histogram& m_request_us_;

  std::thread loop_thread_;
  std::vector<std::thread> finishers_;
};

}  // namespace drtopk::net
