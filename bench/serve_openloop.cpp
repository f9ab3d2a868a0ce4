// Open-loop load harness for the network front door (PR 10).
//
// Closed-loop benches (bench/serve_throughput.cpp) measure how fast the
// engine can be pushed; they cannot see queueing collapse, because a
// closed-loop client slows down with the server. This bench drives the
// real TCP stack with *Poisson arrivals at a fixed rate* — the open-loop
// discipline where a slow server meets an unrelenting client — in three
// phases, all wall-clock (host) time:
//
//   phase 0  closed-loop calibration: a saturating pipelined client
//            measures capacity (QPS); a lockstep client measures the
//            no-queueing latency baseline (closed p50/p99).
//   phase 1  lambda = 0.7 x capacity, generous deadline, exact-only.
//            Acceptance: ZERO sheds and open-loop p99 <= 5x closed p99 —
//            under healthy load the front door must not amplify latency.
//   phase 2  lambda = 1.5 x capacity, deadline ~ 3x closed p99, recall
//            floor 0.90. Sustained overload: the server must stay live
//            (liveness probe + exact answer afterwards) and shed load as
//            TYPED responses (kDegraded / kShed*) — never by wedging,
//            crashing, or silently dropping requests.
//
// Every request gets exactly one response (sheds return immediately,
// admitted work later, out of order by design) — the harness asserts the
// request_id bookkeeping closes. Results land in the "serve_openloop"
// section of BENCH_PR10.json; .github/workflows/ci.yml gates the fresh
// AND the committed report.
#include "common.hpp"

#include <atomic>
#include <chrono>
#include <random>
#include <thread>

#include "net/client.hpp"
#include "net/net_server.hpp"

using namespace drtopk;

namespace {

u64 wall_us() {
  return static_cast<u64>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double percentile(std::vector<u64> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t idx = std::min(
      v.size() - 1,
      static_cast<size_t>(q * static_cast<double>(v.size() - 1) + 0.5));
  return static_cast<double>(v[idx]);
}

/// Per-phase tally: one slot per Status plus the latency samples
/// (admission-to-response as observed by the client, send to receive).
struct LoadResult {
  u64 sent = 0, answered = 0;
  u64 ok = 0, degraded = 0;
  u64 shed_overload = 0, shed_deadline = 0, shed_quota = 0, shed_rate = 0;
  u64 bad = 0, err = 0;
  std::vector<u64> latency_us;
  bool matched = true;  ///< every response echoed a live id exactly once
  double wall_s = 0;
  double lambda_effective = 0;  ///< sent / wall — detects a lagging sender

  u64 shed_total() const {
    return shed_overload + shed_deadline + shed_quota + shed_rate;
  }
  void count(net::Status s) {
    switch (s) {
      case net::Status::kOk: ++ok; break;
      case net::Status::kDegraded: ++degraded; break;
      case net::Status::kShedOverload: ++shed_overload; break;
      case net::Status::kShedDeadline: ++shed_deadline; break;
      case net::Status::kShedQuota: ++shed_quota; break;
      case net::Status::kShedRate: ++shed_rate; break;
      case net::Status::kBadRequest: ++bad; break;
      case net::Status::kError: ++err; break;
    }
  }
};

net::TopkRequest make_req(u64 id, const std::vector<u64>& ks, u32 floor_bp,
                          u64 deadline_us) {
  net::TopkRequest req;
  req.request_id = id;
  req.k = ks[id % ks.size()];
  req.recall_floor_bp = floor_bp;
  req.deadline_us = deadline_us;
  return req;
}

/// One open-loop phase: a sender thread fires `n` requests on Poisson
/// ticks (never waiting for responses); the caller's thread reads until
/// every id is answered. Latency includes sender-side queueing only via
/// the socket (sends are tiny and never block in practice).
LoadResult open_loop(u16 port, double lambda_qps, u64 n,
                     const std::vector<u64>& ks, u32 floor_bp,
                     u64 deadline_us, u64 seed) {
  LoadResult r;
  net::BlockingClient cli;
  if (!cli.connect(port)) {
    r.matched = false;
    return r;
  }
  std::vector<std::atomic<u64>> sent_at(n);
  std::atomic<u64> sent{0};

  const u64 t0 = wall_us();
  std::thread sender([&] {
    std::mt19937_64 rng(seed);
    std::exponential_distribution<double> interarrival(lambda_qps / 1e6);
    auto tick = std::chrono::steady_clock::now();
    for (u64 i = 0; i < n; ++i) {
      tick += std::chrono::microseconds(
          static_cast<u64>(std::llround(interarrival(rng))));
      std::this_thread::sleep_until(tick);
      sent_at[i].store(wall_us(), std::memory_order_release);
      if (!cli.send(make_req(i, ks, floor_bp, deadline_us))) return;
      sent.fetch_add(1, std::memory_order_relaxed);
    }
  });

  std::vector<u8> seen(n, 0);
  for (u64 got = 0; got < n; ++got) {
    auto resp = cli.recv_response();
    if (!resp) {  // EOF/error: the server dropped a well-behaved client
      r.matched = false;
      break;
    }
    const u64 id = resp->request_id;
    if (id >= n || seen[id]) {  // unknown or duplicate id
      r.matched = false;
      break;
    }
    seen[id] = 1;
    r.latency_us.push_back(wall_us() -
                           sent_at[id].load(std::memory_order_acquire));
    r.count(resp->status);
    ++r.answered;
  }
  sender.join();
  r.sent = sent.load(std::memory_order_relaxed);
  r.matched = r.matched && r.sent == n && r.answered == n;
  r.wall_s = static_cast<double>(wall_us() - t0) / 1e6;
  r.lambda_effective =
      r.wall_s > 0 ? static_cast<double>(r.sent) / r.wall_s : 0;
  return r;
}

/// Saturating closed-loop: keep `window` requests outstanding on one
/// pipelined connection until `n` complete — the classic fixed-user-count
/// closed loop. Yields the capacity estimate the open-loop lambdas scale
/// from AND the closed-loop latency distribution the phase-1 gate
/// compares against (same concurrency regime: an open-loop run at 0.7x
/// the capacity this measured must not show a worse tail than the closed
/// loop that produced it).
struct ClosedLoop {
  double qps = 0;
  std::vector<u64> latency_us;
};
ClosedLoop measure_capacity(u16 port, u64 n, u64 window,
                            const std::vector<u64>& ks) {
  ClosedLoop r;
  net::BlockingClient cli;
  if (!cli.connect(port)) return r;
  std::vector<u64> sent_at(n, 0);
  u64 next = 0, done = 0;
  const u64 t0 = wall_us();
  const auto fire = [&] {
    sent_at[next] = wall_us();
    return cli.send(make_req(next++, ks, net::kExactBp, 0));
  };
  for (u64 i = 0; i < std::min(n, window); ++i)
    if (!fire()) return r;
  while (done < n) {
    auto resp = cli.recv_response();  // executors answer out of order
    if (!resp || resp->request_id >= n) return r;
    r.latency_us.push_back(wall_us() - sent_at[resp->request_id]);
    ++done;
    if (next < n && !fire()) return r;
  }
  const double wall_s = static_cast<double>(wall_us() - t0) / 1e6;
  r.qps = wall_s > 0 ? static_cast<double>(n) / wall_s : 0;
  return r;
}

/// Lockstep closed-loop: the per-request latency baseline with no
/// self-inflicted queueing.
std::vector<u64> measure_lockstep(u16 port, u64 n,
                                  const std::vector<u64>& ks) {
  std::vector<u64> lat;
  net::BlockingClient cli;
  if (!cli.connect(port)) return lat;
  for (u64 i = 0; i < n; ++i) {
    const u64 t0 = wall_us();
    auto resp = cli.call(make_req(i, ks, net::kExactBp, 0));
    if (!resp || resp->status != net::Status::kOk) return {};
    lat.push_back(wall_us() - t0);
  }
  return lat;
}

/// Parses one counter value out of a Prometheus text snapshot (0 when the
/// series is absent — counters register lazily).
u64 prom_counter(const std::string& text, const std::string& name) {
  size_t pos = 0;
  while (pos < text.size()) {
    const size_t eol = text.find('\n', pos);
    const std::string line =
        text.substr(pos, eol == std::string::npos ? eol : eol - pos);
    if (line.rfind(name, 0) == 0 && line.size() > name.size() &&
        (line[name.size()] == ' ' || line[name.size()] == '{')) {
      const size_t sp = line.rfind(' ');
      if (sp != std::string::npos)
        return std::strtoull(line.c_str() + sp + 1, nullptr, 10);
    }
    if (eol == std::string::npos) break;
    pos = eol + 1;
  }
  return 0;
}

bench::Json phase_json(const LoadResult& r, double lambda_target) {
  bench::Json o = bench::Json::object();
  o.set("lambda_target_qps", lambda_target)
      .set("lambda_effective_qps", r.lambda_effective)
      .set("requests", r.sent)
      .set("answered", r.answered)
      .set("matched", r.matched)
      .set("wall_s", r.wall_s)
      .set("ok", r.ok)
      .set("degraded", r.degraded)
      .set("shed_overload", r.shed_overload)
      .set("shed_deadline", r.shed_deadline)
      .set("shed_quota", r.shed_quota)
      .set("shed_rate", r.shed_rate)
      .set("shed_total", r.shed_total())
      .set("bad", r.bad)
      .set("error", r.err)
      .set("p50_us", percentile(r.latency_us, 0.50))
      .set("p99_us", percentile(r.latency_us, 0.99))
      .set("p999_us", percentile(r.latency_us, 0.999));
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  auto args = bench::Args::parse(argc, argv);
  args.default_logn(16);
  if (args.json.empty()) args.json = "BENCH_PR10.json";
  bench::print_title("Open-loop serving",
                     "Poisson load + overload degradation over TCP", args,
                     "host wall-clock us");

  const u64 n = args.n();
  auto corpus = data::generate(n, data::Distribution::kUniform, args.seed);
  const std::span<const u32> span(corpus.data(), corpus.size());
  const std::vector<u64> ks = {64, 128, 256, 512};

  vgpu::Device dev(vgpu::GpuProfile::v100s());
  serve::ServerConfig scfg;
  scfg.executors = 4;
  scfg.batch_max = 16;
  scfg.max_in_flight = 320;  // above the net bound: submit() never blocks
  serve::TopkServer srv(dev, scfg);
  net::SingleBackend backend(srv);
  backend.add_corpus(span);
  net::NetServerConfig ncfg;
  ncfg.finishers = 4;
  ncfg.admission.max_in_flight = 256;
  net::NetServer front(backend, ncfg);

  // Warm every request shape: plan calibration + the service-time EWMA the
  // deadline admission estimates from. Not measured.
  {
    net::BlockingClient cli;
    if (!cli.connect(front.port())) {
      std::fprintf(stderr, "warmup connect failed\n");
      return 1;
    }
    for (int round = 0; round < 10; ++round)
      for (u64 i = 0; i < ks.size(); ++i)
        if (!cli.call(make_req(i, ks, net::kExactBp, 0))) {
          std::fprintf(stderr, "warmup call failed\n");
          return 1;
        }
  }

  // ---- phase 0: closed-loop calibration ----
  // Two closed-loop baselines: the 16-user pipelined run sets capacity and
  // the tail the phase-1 gate compares against (matched concurrency); the
  // lockstep run is the no-contention service-latency floor the overload
  // deadline is scaled from.
  const u64 n_cap = args.full ? 2048 : 768;
  const ClosedLoop cap = measure_capacity(front.port(), n_cap, 16, ks);
  const double capacity = cap.qps;
  const double closed_p50 = percentile(cap.latency_us, 0.50);
  const double closed_p99 = percentile(cap.latency_us, 0.99);
  const std::vector<u64> lockstep = measure_lockstep(front.port(), 128, ks);
  const double lockstep_p50 = percentile(lockstep, 0.50);
  const double lockstep_p99 = percentile(lockstep, 0.99);
  if (capacity <= 0 || lockstep.empty()) {
    std::fprintf(stderr, "calibration failed (capacity %.1f, %zu lockstep"
                         " samples)\n", capacity, lockstep.size());
    return 1;
  }
  std::printf("closed-loop: capacity %.0f qps, 16-user p50 %.0f p99 %.0f us"
              " | lockstep p50 %.0f p99 %.0f us\n",
              capacity, closed_p50, closed_p99, lockstep_p50, lockstep_p99);

  // ---- phase 1: healthy open-loop load (0.7 x capacity) ----
  const u64 n1 = args.full ? 2048 : 1024;
  const double lam1 = 0.7 * capacity;
  const LoadResult under = open_loop(front.port(), lam1, n1, ks,
                                     net::kExactBp,
                                     /*deadline_us=*/10'000'000,
                                     args.seed + 1);
  const double under_p99 = percentile(under.latency_us, 0.99);
  const double p99_ratio = closed_p99 > 0 ? under_p99 / closed_p99 : 1e9;
  std::printf("underload:   lambda %.0f qps (eff %.0f) | p50 %.0f p99 %.0f"
              " p999 %.0f us | ratio %.2fx | ok %llu shed %llu\n",
              lam1, under.lambda_effective,
              percentile(under.latency_us, 0.50), under_p99,
              percentile(under.latency_us, 0.999), p99_ratio,
              static_cast<unsigned long long>(under.ok),
              static_cast<unsigned long long>(under.shed_total()));

  // ---- phase 2: sustained overload (1.5 x capacity) ----
  const u64 n2 = args.full ? 1024 : 512;
  const double lam2 = 1.5 * capacity;
  // Scaled from the lockstep MEDIAN (its tail is too noisy to anchor a
  // budget): ~4x the uncontended service time is comfortably feasible when
  // degraded, infeasible behind a sustained-overload queue — the regime
  // where the degrade-then-shed ladder has to do its job.
  const u64 deadline2 =
      std::max<u64>(static_cast<u64>(4.0 * lockstep_p50), 2000);
  const LoadResult over = open_loop(front.port(), lam2, n2, ks,
                                    /*floor_bp=*/9000, deadline2,
                                    args.seed + 2);
  std::printf("overload:    lambda %.0f qps (eff %.0f), deadline %llu us |"
              " ok %llu degraded %llu shed %llu (deadline %llu overload"
              " %llu)\n",
              lam2, over.lambda_effective,
              static_cast<unsigned long long>(deadline2),
              static_cast<unsigned long long>(over.ok),
              static_cast<unsigned long long>(over.degraded),
              static_cast<unsigned long long>(over.shed_total()),
              static_cast<unsigned long long>(over.shed_deadline),
              static_cast<unsigned long long>(over.shed_overload));

  // ---- liveness after overload: ping + an exact answer + metrics ----
  bool alive = false;
  u64 net_admitted = 0, net_degraded = 0, net_shed_deadline = 0;
  u64 net_responses_dropped = 0;
  {
    net::BlockingClient cli;
    if (cli.connect(front.port()) && cli.ping()) {
      auto resp = cli.call(make_req(0, ks, net::kExactBp, 0));
      alive = resp && resp->status == net::Status::kOk &&
              resp->values.size() == ks[0];
      if (auto m = cli.metrics()) {
        net_admitted = prom_counter(*m, "net_admitted");
        net_degraded = prom_counter(*m, "net_degraded");
        net_shed_deadline = prom_counter(*m, "net_shed_deadline");
        net_responses_dropped = prom_counter(*m, "net_responses_dropped");
      }
    }
  }
  front.drain();
  srv.drain();
  const u64 unattributed = dev.unattributed_launches();
  const u64 typed_overload_responses = over.degraded + over.shed_total();

  bench::Json report = bench::Json::object();
  report.set("bench", "serve_openloop")
      .set("logn", args.logn)
      .set("seed", args.seed)
      .set("executors", 4)
      .set("ks", [&] {
        bench::Json a = bench::Json::array();
        for (u64 k : ks) {
          bench::Json j = bench::Json::object();
          j.set("k", k);
          a.push(std::move(j));
        }
        return a;
      }())
      .set("closed_loop", [&] {
        bench::Json o = bench::Json::object();
        o.set("capacity_qps", capacity)
            .set("pipelined_requests", n_cap)
            .set("pipelined_users", u64{16})
            .set("p50_us", closed_p50)
            .set("p99_us", closed_p99)
            .set("lockstep_requests", static_cast<u64>(lockstep.size()))
            .set("lockstep_p50_us", lockstep_p50)
            .set("lockstep_p99_us", lockstep_p99);
        return o;
      }())
      .set("underload", phase_json(under, lam1))
      .set("overload", phase_json(over, lam2))
      .set("underload_p99_vs_closed", p99_ratio)
      .set("overload_deadline_us", deadline2)
      .set("typed_overload_responses", typed_overload_responses)
      .set("server_alive_after_overload", alive)
      .set("net_admitted", net_admitted)
      .set("net_degraded", net_degraded)
      .set("net_shed_deadline", net_shed_deadline)
      .set("net_responses_dropped", net_responses_dropped)
      .set("unattributed_launches", unattributed);
  bench::write_json_section(args.json, "serve_openloop", report);

  std::printf("\nopen loop: Poisson senders never wait for the server — at"
              " 0.7x capacity the front\ndoor must add no sheds and bounded"
              " queueing; at 1.5x it must degrade and shed with\ntyped"
              " responses while staying live.\n");

  // Acceptance (mirrored by the CI gate on fresh + committed reports).
  std::vector<std::string> errs;
  if (!under.matched || !over.matched)
    errs.push_back("request/response bookkeeping did not close");
  if (under.shed_total() != 0)
    errs.push_back("sheds at 0.7x capacity: " +
                   std::to_string(under.shed_total()));
  if (p99_ratio > 5.0)
    errs.push_back("open-loop p99 exceeds 5x closed-loop p99");
  if (typed_overload_responses == 0)
    errs.push_back("overload produced no typed degrade/shed responses");
  if (!alive) errs.push_back("server not live after sustained overload");
  if (unattributed != 0)
    errs.push_back("unattributed kernel launches: " +
                   std::to_string(unattributed));
  if (!errs.empty()) {
    for (const auto& e : errs)
      std::fprintf(stderr, "openloop acceptance FAILED: %s\n", e.c_str());
    return 1;
  }
  return 0;
}
