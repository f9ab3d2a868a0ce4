#include "net/net_server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "obs/export.hpp"

namespace drtopk::net {

namespace {

[[noreturn]] void die(const std::string& what) {
  throw std::runtime_error("NetServer: " + what + ": " +
                           std::strerror(errno));
}

}  // namespace

NetServer::NetServer(Backend& backend, NetServerConfig cfg)
    : backend_(backend),
      cfg_(cfg),
      admission_(
          cfg.admission,
          [this](const serve::PlanKey& k) {
            return backend_.service_estimate_us(k);
          },
          [this] {
            return backend_.queue_wait_quantile_us(
                cfg_.admission.queue_quantile);
          }),
      m_conns_opened_(reg_.counter("net_connections_opened",
                                   "Client connections accepted")),
      m_conns_closed_(reg_.counter("net_connections_closed",
                                   "Client connections closed")),
      m_frames_bad_(reg_.counter(
          "net_frames_bad",
          "Framing violations (bad magic / oversized) — connection dropped")),
      m_requests_bad_(reg_.counter(
          "net_requests_bad",
          "Well-framed but undecodable or invalid requests (kBadRequest)")),
      m_admitted_(reg_.counter("net_admitted",
                               "Requests admitted to the backend")),
      m_degraded_(reg_.counter(
          "net_degraded",
          "Requests admitted at the client's recall floor (kDegraded)")),
      m_shed_(reg_.counter("net_shed", "Requests shed with a typed status")),
      m_shed_rate_(reg_.counter("net_shed_rate",
                                "Sheds: per-client token bucket empty")),
      m_shed_quota_(reg_.counter("net_shed_quota",
                                 "Sheds: per-client in-flight quota")),
      m_shed_overload_(reg_.counter("net_shed_overload",
                                    "Sheds: server-wide in-flight bound")),
      m_shed_deadline_(reg_.counter(
          "net_shed_deadline",
          "Sheds: even the degraded estimate exceeds the deadline")),
      m_deadline_missed_(reg_.counter(
          "net_deadline_missed",
          "Admitted requests whose response exceeded their deadline")),
      m_responses_dropped_(reg_.counter(
          "net_responses_dropped",
          "Responses completed after their connection died")),
      m_backend_submit_errors_(reg_.counter(
          "net_backend_submit_errors",
          "Requests answered kError because the backend's submit threw")),
      m_backend_result_errors_(reg_.counter(
          "net_backend_result_errors",
          "Admitted requests answered kError because their result failed")),
      m_active_conns_(reg_.gauge("net_active_connections",
                                 "Currently open client connections")),
      m_inflight_gauge_(reg_.gauge("net_inflight",
                                   "Admitted requests awaiting responses")),
      m_request_us_(reg_.histogram(
          "net_request_us",
          "Admission-to-response wall time per admitted request (us)")) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (listen_fd_ < 0) die("socket");
  const int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(cfg_.port);
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0)
    die("bind");
  if (listen(listen_fd_, 128) < 0) die("listen");
  socklen_t alen = sizeof(addr);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &alen) < 0)
    die("getsockname");
  port_ = ntohs(addr.sin_port);

  epoll_fd_ = epoll_create1(0);
  if (epoll_fd_ < 0) die("epoll_create1");
  event_fd_ = eventfd(0, EFD_NONBLOCK);
  if (event_fd_ < 0) die("eventfd");
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.fd = event_fd_;
  epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, event_fd_, &ev);

  const u32 nf = std::max(1u, cfg_.finishers);
  finishers_.reserve(nf);
  for (u32 i = 0; i < nf; ++i)
    finishers_.emplace_back([this] { finisher_loop(); });
  loop_thread_ = std::thread([this] { loop(); });
}

NetServer::~NetServer() { stop(); }

void NetServer::stop() {
  bool expected = false;
  if (!stop_.compare_exchange_strong(expected, true)) return;
  wake();
  if (loop_thread_.joinable()) loop_thread_.join();
  {
    std::lock_guard lk(jobs_mu_);
    jobs_stop_ = true;
  }
  jobs_cv_.notify_all();
  for (auto& t : finishers_)
    if (t.joinable()) t.join();
  {
    std::lock_guard lk(conns_mu_);
    for (auto& [fd, c] : conns_) ::close(fd);
    conns_.clear();
    m_active_conns_.set(0);
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (event_fd_ >= 0) ::close(event_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  listen_fd_ = event_fd_ = epoll_fd_ = -1;
}

u64 NetServer::active_connections() const {
  std::lock_guard lk(conns_mu_);
  return conns_.size();
}

void NetServer::drain() {
  std::unique_lock lk(drain_mu_);
  drain_cv_.wait(lk, [&] {
    return inflight_.load(std::memory_order_acquire) == 0;
  });
}

void NetServer::wake() {
  if (event_fd_ >= 0) {
    const u64 one = 1;
    [[maybe_unused]] ssize_t n = ::write(event_fd_, &one, sizeof(one));
  }
}

void NetServer::loop() {
  epoll_event evs[64];
  while (!stop_.load(std::memory_order_relaxed)) {
    const int n = epoll_wait(epoll_fd_, evs, 64, 100);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = evs[i].data.fd;
      if (fd == listen_fd_) {
        accept_ready();
      } else if (fd == event_fd_) {
        u64 v;
        while (::read(event_fd_, &v, sizeof(v)) > 0) {
        }
        arm_writes_locked();
      } else {
        if (evs[i].events & (EPOLLHUP | EPOLLERR)) {
          close_conn(fd);
          continue;
        }
        if (evs[i].events & EPOLLIN) conn_readable(fd);
        if (evs[i].events & EPOLLOUT) conn_writable(fd);
      }
    }
  }
}

void NetServer::accept_ready() {
  for (;;) {
    const int fd = accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
    if (fd < 0) return;  // EAGAIN or transient error: back to epoll
    {
      std::lock_guard lk(conns_mu_);
      if (conns_.size() >= cfg_.max_connections) {
        ::close(fd);
        continue;
      }
      const int one = 1;
      setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      auto c = std::make_unique<Conn>();
      c->fd = fd;
      c->gen = next_gen_++;
      c->bucket = TokenBucket(cfg_.client_rate_qps, cfg_.client_burst);
      conns_.emplace(fd, std::move(c));
      m_active_conns_.set(conns_.size());
    }
    m_conns_opened_.add();
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
  }
}

void NetServer::conn_readable(int fd) {
  u8 buf[64 * 1024];
  for (;;) {
    const ssize_t r = ::read(fd, buf, sizeof(buf));
    if (r > 0) {
      Conn* c = nullptr;
      {
        std::lock_guard lk(conns_mu_);
        auto it = conns_.find(fd);
        if (it == conns_.end()) return;
        c = it->second.get();
        c->dec.feed({buf, static_cast<size_t>(r)});
      }
      if (c->dec.error()) {
        // Framing violation: the stream position is unknowable — drop the
        // connection (never crash, never leak the slot).
        m_frames_bad_.add();
        close_conn(fd);
        return;
      }
      // Frames are handled outside conns_mu_ (handle_frame may take it via
      // deliver); the decoder is only touched by this thread.
      while (auto f = c->dec.next()) handle_frame(*c, *f);
      continue;
    }
    if (r == 0) {  // orderly shutdown from the peer
      close_conn(fd);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    close_conn(fd);
    return;
  }
}

void NetServer::handle_frame(Conn& c, std::span<const u8> payload) {
  const auto type = peek_type(payload);
  if (!type) {
    m_requests_bad_.add();
    TopkResponse resp;
    resp.status = Status::kBadRequest;
    deliver(c.fd, c.gen, encode(resp));
    return;
  }
  switch (*type) {
    case MsgType::kTopkRequest:
      handle_topk(c, payload);
      return;
    case MsgType::kPing:
      deliver(c.fd, c.gen, encode_pong());
      return;
    case MsgType::kMetricsRequest: {
      // Live stats over the same socket: net series first, then the
      // backend's (per-shard labeled for sharded deployments).
      m_inflight_gauge_.set(inflight_.load(std::memory_order_relaxed));
      std::string text = obs::to_prometheus(reg_);
      text += backend_.metrics_prometheus();
      deliver(c.fd, c.gen, encode_metrics_response(text));
      return;
    }
    default: {
      // Server-to-client message types arriving at the server are protocol
      // misuse, not a framing violation: typed reject, connection lives.
      m_requests_bad_.add();
      TopkResponse resp;
      resp.status = Status::kBadRequest;
      deliver(c.fd, c.gen, encode(resp));
      return;
    }
  }
}

void NetServer::handle_topk(Conn& c, std::span<const u8> payload) {
  TopkRequest req;
  if (!decode(payload, req)) {
    // Best effort at echoing the id so a pipelining client can correlate
    // the rejection (the id sits at a fixed offset right after the type).
    TopkResponse resp;
    resp.status = Status::kBadRequest;
    if (payload.size() >= 9) std::memcpy(&resp.request_id, payload.data() + 1, 8);
    m_requests_bad_.add();
    deliver(c.fd, c.gen, encode(resp));
    return;
  }
  TopkResponse reject;
  reject.request_id = req.request_id;

  // A full answer must fit one response frame; selection-only requests
  // carry just the k-th value.
  u64 n = 0;
  if (!backend_.corpus_len(req.corpus, n) || req.k > n ||
      (req.selection_only == 0 && req.k > kMaxResponseValues)) {
    reject.status = Status::kBadRequest;
    m_requests_bad_.add();
    deliver(c.fd, c.gen, encode(reject));
    return;
  }

  const auto criterion = static_cast<data::Criterion>(req.criterion);
  const u64 now = mono_us();
  const serve::PlanKey exact_key =
      backend_.shape_key(req.corpus, req.k, criterion, {});
  const core::FidelityPolicy floor_policy =
      req.recall_floor_bp < kExactBp
          ? core::FidelityPolicy::approx(
                static_cast<double>(req.recall_floor_bp) / 10000.0)
          : core::FidelityPolicy{};
  const serve::PlanKey floor_key =
      backend_.shape_key(req.corpus, req.k, criterion, floor_policy);

  const bool rate_ok = c.bucket.try_take(now);
  bool quota_ok = true;
  if (cfg_.client_quota) {
    std::lock_guard lk(conns_mu_);
    quota_ok = c.inflight < cfg_.client_quota;
  }
  const AdmissionVerdict v = admission_.decide(
      exact_key, floor_key, req.deadline_us, req.recall_floor_bp, rate_ok,
      quota_ok, inflight_.load(std::memory_order_relaxed));

  if (!v.admitted()) {
    // Typed rejection, immediately — a shed never waits behind the queue,
    // which is exactly what makes it useful under a deadline.
    m_shed_.add();
    switch (v.status) {
      case Status::kShedRate: m_shed_rate_.add(); break;
      case Status::kShedQuota: m_shed_quota_.add(); break;
      case Status::kShedOverload: m_shed_overload_.add(); break;
      case Status::kShedDeadline: m_shed_deadline_.add(); break;
      default: break;
    }
    reject.status = v.status;
    deliver(c.fd, c.gen, encode(reject));
    return;
  }

  FinishJob job;
  job.fd = c.fd;
  job.gen = c.gen;
  job.request_id = req.request_id;
  job.fidelity_bp = v.fidelity_bp;
  job.deadline_us = req.deadline_us;
  job.t_admit_us = now;
  job.key = v.status == Status::kDegraded ? floor_key : exact_key;
  try {
    job.fut = backend_.submit(req.corpus, req.k, criterion,
                              req.selection_only != 0, v.fidelity,
                              req.deadline_us);
  } catch (...) {
    m_backend_submit_errors_.add();
    reject.status = Status::kError;
    deliver(c.fd, c.gen, encode(reject));
    return;
  }
  m_admitted_.add();
  if (v.status == Status::kDegraded) m_degraded_.add();
  inflight_.fetch_add(1, std::memory_order_acq_rel);
  if (cfg_.client_quota) {
    std::lock_guard lk(conns_mu_);
    ++c.inflight;
  }
  {
    std::lock_guard lk(jobs_mu_);
    jobs_.push_back(std::move(job));
  }
  jobs_cv_.notify_one();
}

void NetServer::finisher_loop() {
  for (;;) {
    FinishJob job;
    {
      std::unique_lock lk(jobs_mu_);
      jobs_cv_.wait(lk, [&] { return jobs_stop_ || !jobs_.empty(); });
      if (jobs_.empty()) {
        if (jobs_stop_) return;
        continue;
      }
      job = std::move(jobs_.front());
      jobs_.pop_front();
    }
    TopkResponse resp;
    resp.request_id = job.request_id;
    resp.fidelity_bp = job.fidelity_bp;
    try {
      serve::QueryResult r = job.fut.get();
      resp.status =
          job.fidelity_bp == kExactBp ? Status::kOk : Status::kDegraded;
      resp.values = std::move(r.values);
      resp.kth = r.kth;
      const u64 wall_us = mono_us() - job.t_admit_us;
      resp.server_us = wall_us;
      m_request_us_.observe(wall_us);
      if (job.deadline_us && wall_us > job.deadline_us)
        m_deadline_missed_.add();
      // Feedback: wall minus MEASURED queue wait is the service component
      // — the quantity the admission estimator predicts (queue wait is
      // predicted separately from the live histogram, so folding it into
      // the EWMA would double-count congestion).
      const u64 service_us =
          wall_us > r.queue_us ? wall_us - r.queue_us : wall_us;
      backend_.note_service_time(job.key, service_us);
    } catch (...) {
      m_backend_result_errors_.add();
      resp.status = Status::kError;
    }
    deliver(job.fd, job.gen, encode(resp));
    {
      std::lock_guard lk(conns_mu_);
      auto it = conns_.find(job.fd);
      if (it != conns_.end() && it->second->gen == job.gen &&
          it->second->inflight > 0)
        --it->second->inflight;
    }
    if (inflight_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard lk(drain_mu_);
      drain_cv_.notify_all();
    }
  }
}

void NetServer::deliver(int fd, u64 gen, std::vector<u8> frame_bytes) {
  {
    std::lock_guard lk(conns_mu_);
    auto it = conns_.find(fd);
    if (it == conns_.end() || it->second->gen != gen) {
      // The connection died (or the fd was reused by a new client — the
      // generation check catches that) while the query ran: drop, count,
      // move on. The query itself completed; only delivery was impossible.
      m_responses_dropped_.add();
      return;
    }
    it->second->outbox.push_back(std::move(frame_bytes));
  }
  wake();
}

void NetServer::arm_writes_locked() {
  std::lock_guard lk(conns_mu_);
  for (auto& [fd, c] : conns_) {
    if (c->outbox.empty() || c->want_write) continue;
    c->want_write = true;
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLOUT;
    ev.data.fd = fd;
    epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev);
  }
}

void NetServer::conn_writable(int fd) {
  Conn* c = nullptr;
  {
    std::lock_guard lk(conns_mu_);
    auto it = conns_.find(fd);
    if (it == conns_.end()) return;
    c = it->second.get();
  }
  flush_conn(*c);
}

void NetServer::flush_conn(Conn& c) {
  for (;;) {
    std::vector<u8>* front = nullptr;
    {
      std::lock_guard lk(conns_mu_);
      if (c.outbox.empty()) break;
      front = &c.outbox.front();
    }
    // MSG_NOSIGNAL: a peer closing mid-response must surface as EPIPE on
    // this call, not kill the process with SIGPIPE.
    const ssize_t w = ::send(c.fd, front->data() + c.out_off,
                             front->size() - c.out_off, MSG_NOSIGNAL);
    if (w > 0) {
      c.out_off += static_cast<size_t>(w);
      if (c.out_off == front->size()) {
        std::lock_guard lk(conns_mu_);
        c.outbox.pop_front();
        c.out_off = 0;
      }
      continue;
    }
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (w < 0 && errno == EINTR) continue;
    close_conn(c.fd);  // peer vanished mid-write
    return;
  }
  // Outbox drained: stop asking for EPOLLOUT.
  std::lock_guard lk(conns_mu_);
  if (!c.want_write) return;
  c.want_write = false;
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = c.fd;
  epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c.fd, &ev);
}

void NetServer::close_conn(int fd) {
  {
    std::lock_guard lk(conns_mu_);
    auto it = conns_.find(fd);
    if (it == conns_.end()) return;
    conns_.erase(it);
    m_active_conns_.set(conns_.size());
  }
  epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  m_conns_closed_.add();
}

}  // namespace drtopk::net
