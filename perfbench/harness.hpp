// Measurement primitives of the perfbench binary, kept apart from the
// workloads so the self-tests (selftest.cpp) can exercise them alone:
//
//   * the percentile rule: a tail percentile is reported only where at
//     least kMinBeyond samples lie beyond it;
//   * SLO accounting: the share of requests SENT that were answered kOk
//     within the latency limit (a failure or a lost request is a miss);
//   * open-loop pacing: requests are timed from their scheduled (due) send
//     time, so a stalled generator shows up as latency and as sender lag;
//   * bench-side spans: recorded in memory, exported as Chrome trace JSON,
//     reduced to per-layer self time;
//   * TimedBackend: a decorator over the public net::Backend interface that
//     times submit() and the wait for the backend's answer.
#pragma once

#include <time.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "net/net_server.hpp"

namespace perfbench {

using drtopk::u32;
using drtopk::u64;

/// Host wall clock in nanoseconds (steady).
inline u64 now_ns() {
  return static_cast<u64>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ---------------------------------------------------------------------------
// Percentiles
// ---------------------------------------------------------------------------

/// Fewest samples that must lie beyond a reported tail percentile.
inline constexpr u64 kMinBeyond = 10;

/// One order statistic with its provenance: the quantile actually used and
/// the sample count it was read from.
struct Quantile {
  double q = 0.0;
  double value = 0.0;
  u64 samples = 0;
};

/// Nearest-rank quantile (rank = ceil(q * n)). Empty input gives value 0.
inline Quantile quantile(std::vector<double> v, double q) {
  Quantile r{q, 0.0, v.size()};
  if (v.empty()) return r;
  const u64 n = v.size();
  u64 rank = static_cast<u64>(std::ceil(q * static_cast<double>(n) - 1e-9));
  rank = std::clamp<u64>(rank, 1, n);
  std::nth_element(v.begin(), v.begin() + static_cast<long>(rank - 1),
                   v.end());
  r.value = v[rank - 1];
  return r;
}

/// The highest whole percentile <= `want` that leaves at least kMinBeyond
/// samples beyond it (never below the median). With n = 1000 samples p99
/// is supported exactly; with 250 the rule falls back to p96.
inline double supported_quantile(u64 n, double want) {
  if (n <= 2 * kMinBeyond) return 0.5;
  const double cap =
      std::floor(100.0 * static_cast<double>(n - kMinBeyond) /
                 static_cast<double>(n) + 1e-9) / 100.0;
  return std::max(0.5, std::min(want, cap));
}

/// Tail percentile under the rule above.
inline Quantile tail_quantile(std::vector<double> v, double want = 0.99) {
  const double q = supported_quantile(v.size(), want);
  return quantile(std::move(v), q);
}

/// Median of a non-empty vector (mean of the two middle values when even).
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// A quantile read per time window, reported from the quietest window.
struct Windowed {
  Quantile per_window;  ///< q used in every window, samples = all samples
  u32 windows = 1;
};

/// Splits time-ordered samples into up to kMaxWindows contiguous windows of
/// at least `min_window` samples, reads the quantile `want` in each (a tail
/// quantile under the kMinBeyond rule of the window's size) and reports the
/// lowest window value. On a shared host the other tenants' bursts set the
/// slower windows and change from run to run; the quietest window is what
/// the program itself sets, so it is what stays steady across runs.
inline Windowed windowed_quantile(const std::vector<double>& v, double want,
                                  u64 min_window = 1000) {
  constexpr u64 kMaxWindows = 20;
  Windowed w;
  w.windows = static_cast<u32>(
      std::clamp<u64>(v.size() / std::max<u64>(1, min_window), 1, kMaxWindows));
  const u64 per = v.size() / w.windows;
  const double q = want <= 0.5 ? want : supported_quantile(per, want);
  double best = 0.0;
  for (u32 i = 0; i < w.windows; ++i) {
    const auto b = v.begin() + static_cast<long>(i * per);
    const auto e = i + 1 == w.windows ? v.end() : b + static_cast<long>(per);
    const double x = quantile(std::vector<double>(b, e), q).value;
    best = i == 0 ? x : std::min(best, x);
  }
  w.per_window = {q, best, v.size()};
  return w;
}

// ---------------------------------------------------------------------------
// SLO accounting
// ---------------------------------------------------------------------------

/// Per-run request ledger. Every request sent is counted once; only a
/// correct kOk answer within the limit counts toward attainment, so
/// failures, sheds, degrades, errors, wrong answers and requests that were
/// never answered all count as misses.
struct SloTally {
  u64 sent = 0;
  u64 ok = 0;         ///< answered kOk and correct
  u64 ok_within = 0;  ///< ... and within the latency limit
  double limit_us = 0.0;

  explicit SloTally(double limit) : limit_us(limit) {}

  void on_sent() { ++sent; }
  /// One answer: `ok` = kOk status and a correct payload.
  void on_answer(bool ok_answer, double latency_us) {
    if (!ok_answer) return;
    ++ok;
    if (latency_us <= limit_us) ++ok_within;
  }
  u64 failed() const { return sent - ok; }
  double attainment() const {
    return sent ? static_cast<double>(ok_within) / static_cast<double>(sent)
                : 0.0;
  }
  double ok_frac() const {
    return sent ? static_cast<double>(ok) / static_cast<double>(sent) : 0.0;
  }
};

// ---------------------------------------------------------------------------
// Open-loop pacing
// ---------------------------------------------------------------------------

/// Poisson arrival schedule: due offsets (ns from the start of the phase)
/// for `rate_qps` over `seconds`, generated from `seed` only.
inline std::vector<u64> poisson_schedule(u64 seed, double rate_qps,
                                         double seconds) {
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap(rate_qps / 1e9);
  std::vector<u64> due;
  due.reserve(static_cast<size_t>(rate_qps * seconds * 1.1) + 16);
  double t = 0.0;
  for (;;) {
    t += gap(rng);
    if (t >= seconds * 1e9) break;
    due.push_back(static_cast<u64>(t));
  }
  return due;
}

/// Clock seam of the paced sender, so a test can inject stalls. The real
/// clock sleeps to an absolute CLOCK_MONOTONIC deadline (the clock behind
/// steady_clock), so wake-up error never accumulates across requests.
struct PacerClock {
  std::function<u64()> now = now_ns;
  std::function<void(u64)> sleep_until = [](u64 t_ns) {
    const timespec ts{static_cast<time_t>(t_ns / 1'000'000'000),
                      static_cast<long>(t_ns % 1'000'000'000)};
    while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
           EINTR) {
    }
  };
};

/// Sends request i at t0 + due[i] (never earlier), recording the actual
/// send time in sent_at[i]. A request whose due time passed while the
/// sender was stalled goes out at once: the schedule is never shifted, so
/// the stall is charged to every request it delayed. Stops at the first
/// failed send and returns the number sent.
inline u64 run_paced(const std::vector<u64>& due, u64 t0,
                     const PacerClock& clock,
                     const std::function<bool(u64)>& send,
                     std::vector<u64>& sent_at) {
  sent_at.assign(due.size(), 0);
  for (u64 i = 0; i < due.size(); ++i) {
    clock.sleep_until(t0 + due[i]);
    sent_at[i] = clock.now();
    if (!send(i)) return i;
  }
  return due.size();
}

/// Latency of one open-loop request, from its due time (not its send).
inline double due_latency_us(u64 t0, u64 due, u64 recv_ns) {
  const u64 d = t0 + due;
  return recv_ns > d ? static_cast<double>(recv_ns - d) / 1e3 : 0.0;
}

// ---------------------------------------------------------------------------
// Bench-side spans
// ---------------------------------------------------------------------------

/// Parent sentinel for spans recorded on another thread than their request's
/// root (the backend decorator): resolved to the root span of `req`.
inline constexpr u32 kParentByRequest = ~u32{0};

/// One completed span. Its layer, the unit self time is reported in, is the
/// name's prefix up to the first '.'. Names are string literals.
struct Span {
  const char* name = "";
  u64 start_ns = 0, end_ns = 0;
  u32 id = 0;
  u32 parent = 0;  ///< 0 = root
  u64 req = 0;     ///< request id shared by the spans of one request
  u32 tid = 0;
};

/// In-memory span store. Disabled recorders cost one branch per span.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled = false) { set_enabled(enabled); }
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  /// Switches recording on or off; call only while no span is being added.
  void set_enabled(bool on) {
    if (on) {
      std::lock_guard lk(mu_);
      spans_.reserve(1 << 16);
    }
    enabled_.store(on, std::memory_order_relaxed);
  }
  u32 new_id() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  void add(const char* name, u64 start_ns, u64 end_ns, u32 id, u32 parent,
           u64 req) {
    if (!enabled()) return;
    const u32 tid = static_cast<u32>(
        std::hash<std::thread::id>{}(std::this_thread::get_id()) & 0xffff);
    std::lock_guard lk(mu_);
    spans_.push_back({name, start_ns, end_ns, id, parent, req, tid});
  }

  std::vector<Span> spans() const {
    std::lock_guard lk(mu_);
    return spans_;
  }

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<u32> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span around one call; a no-op when the recorder is disabled.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, const char* name, u32 parent, u64 req)
      : rec_(rec), name_(name), parent_(parent), req_(req) {
    if (rec_.enabled()) {
      id_ = rec_.new_id();
      t0_ = now_ns();
    }
  }
  ~ScopedSpan() {
    if (rec_.enabled()) rec_.add(name_, t0_, now_ns(), id_, parent_, req_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  u32 id() const { return id_; }

 private:
  SpanRecorder& rec_;
  const char* name_;
  u32 parent_;
  u64 req_;
  u32 id_ = 0;
  u64 t0_ = 0;
};

inline std::string layer_of(const std::string& span_name) {
  return span_name.substr(0, span_name.find('.'));
}

/// Self time per layer, in ns summed over all spans: a span's duration
/// minus the part of it that its children's (union of) intervals cover.
inline std::map<std::string, double> self_time_ns(std::vector<Span> spans) {
  std::map<u64, u32> root_of_req;
  for (const Span& s : spans)
    if (s.parent == 0) root_of_req.emplace(s.req, s.id);
  std::map<u32, std::vector<std::pair<u64, u64>>> kids;
  for (Span& s : spans) {
    if (s.parent == kParentByRequest) {
      auto it = root_of_req.find(s.req);
      s.parent = it == root_of_req.end() ? 0 : it->second;
    }
    if (s.parent != 0) kids[s.parent].push_back({s.start_ns, s.end_ns});
  }
  std::map<std::string, double> out;
  for (const Span& s : spans) {
    u64 covered = 0;
    auto it = kids.find(s.id);
    if (it != kids.end()) {
      auto iv = it->second;
      std::sort(iv.begin(), iv.end());
      u64 cur_lo = 0, cur_hi = 0;
      bool open = false;
      for (auto [lo, hi] : iv) {
        lo = std::clamp(lo, s.start_ns, s.end_ns);
        hi = std::clamp(hi, s.start_ns, s.end_ns);
        if (hi <= lo) continue;
        if (open && lo <= cur_hi) {
          cur_hi = std::max(cur_hi, hi);
        } else {
          if (open) covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
          open = true;
        }
      }
      if (open) covered += cur_hi - cur_lo;
    }
    const u64 dur = s.end_ns > s.start_ns ? s.end_ns - s.start_ns : 0;
    out[layer_of(s.name)] += static_cast<double>(dur - std::min(dur, covered));
  }
  return out;
}

/// Writes spans as Chrome trace_event JSON (complete "X" events, us).
inline bool write_chrome_trace(const std::string& path,
                               const std::vector<Span>& spans) {
  std::ofstream f(path);
  if (!f) return false;
  u64 t_min = ~u64{0};
  for (const Span& s : spans) t_min = std::min(t_min, s.start_ns);
  f << "{\"traceEvents\":[";
  bool first = true;
  for (const Span& s : spans) {
    f << (first ? "\n" : ",\n");
    first = false;
    f << "{\"name\":\"" << s.name << "\",\"cat\":\"" << layer_of(s.name)
      << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
      << ",\"ts\":" << static_cast<double>(s.start_ns - t_min) / 1e3
      << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
      << ",\"args\":{\"id\":" << s.id << ",\"parent\":"
      << (s.parent == kParentByRequest ? -1 : static_cast<long long>(s.parent))
      << ",\"req\":" << s.req << "}}";
  }
  f << "\n]}\n";
  return static_cast<bool>(f);
}

// ---------------------------------------------------------------------------
// Backend decorator
// ---------------------------------------------------------------------------

/// Wraps a net::Backend: every call forwards unchanged. While the recorder
/// is enabled, submit() is timed ("backend.submit") and its future is
/// replaced by a deferred one that times the wait for the inner answer
/// ("backend.service", submit return -> answer observed by the front
/// door's finisher) and hands the inner result (or exception) through
/// untouched. Spans carry the submit sequence number as request id — on a
/// single connection with nothing shed it equals the wire request order.
class TimedBackend final : public drtopk::net::Backend {
 public:
  struct Sample {
    u64 submit_ns = 0;   ///< duration of the inner submit() call
    u64 service_ns = 0;  ///< inner submit return -> answer observed
    u64 queue_us = 0;    ///< QueryResult::queue_us of the answer
    double wall_ms = 0;  ///< QueryResult::wall_ms of the answer
  };

  TimedBackend(drtopk::net::Backend& inner, SpanRecorder& rec)
      : inner_(inner), rec_(rec) {}

  bool corpus_len(u32 id, u64& n_out) const override {
    return inner_.corpus_len(id, n_out);
  }
  drtopk::serve::PlanKey shape_key(u32 id, u64 k, drtopk::data::Criterion c,
                                   drtopk::core::FidelityPolicy f) const
      override {
    return inner_.shape_key(id, k, c, f);
  }
  std::future<drtopk::serve::QueryResult> submit(
      u32 id, u64 k, drtopk::data::Criterion c, bool selection_only,
      drtopk::core::FidelityPolicy f, u64 deadline_us) override {
    if (!rec_.enabled())
      return inner_.submit(id, k, c, selection_only, f, deadline_us);
    const u64 seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
    const u64 t0 = now_ns();
    auto fut = inner_.submit(id, k, c, selection_only, f, deadline_us);
    const u64 t1 = now_ns();
    rec_.add("backend.submit", t0, t1, rec_.new_id(), kParentByRequest, seq);
    return std::async(
        std::launch::deferred,
        [this, seq, t0, t1, inner = std::move(fut)]() mutable {
          drtopk::serve::QueryResult r = inner.get();
          const u64 t2 = now_ns();
          rec_.add("backend.service", t1, t2, rec_.new_id(),
                   kParentByRequest, seq);
          std::lock_guard lk(mu_);
          samples_.push_back({t1 - t0, t2 - t1, r.queue_us, r.wall_ms});
          return r;
        });
  }
  void note_service_time(const drtopk::serve::PlanKey& key, u64 us) override {
    inner_.note_service_time(key, us);
  }
  u64 service_estimate_us(const drtopk::serve::PlanKey& key) const override {
    return inner_.service_estimate_us(key);
  }
  u64 queue_wait_quantile_us(double q) const override {
    return inner_.queue_wait_quantile_us(q);
  }
  std::string metrics_prometheus() const override {
    return inner_.metrics_prometheus();
  }
  void drain() override { inner_.drain(); }

  /// Restarts the submit sequence and drops the samples (phase boundary).
  void reset() {
    next_seq_.store(0, std::memory_order_relaxed);
    std::lock_guard lk(mu_);
    samples_.clear();
  }
  std::vector<Sample> samples() const {
    std::lock_guard lk(mu_);
    return samples_;
  }

 private:
  drtopk::net::Backend& inner_;
  SpanRecorder& rec_;
  std::atomic<u64> next_seq_{0};
  mutable std::mutex mu_;
  std::vector<Sample> samples_;
};

/// One counter's value in a Prometheus text snapshot, summed over every
/// label set (0 when the series is absent).
inline u64 prom_counter(const std::string& text, const std::string& name) {
  u64 total = 0;
  size_t pos = 0;
  while (pos < text.size()) {
    const size_t eol = text.find('\n', pos);
    const std::string line =
        text.substr(pos, eol == std::string::npos ? eol : eol - pos);
    if (line.rfind(name, 0) == 0 && line.size() > name.size() &&
        (line[name.size()] == ' ' || line[name.size()] == '{')) {
      const size_t sp = line.rfind(' ');
      if (sp != std::string::npos)
        total += std::strtoull(line.c_str() + sp + 1, nullptr, 10);
    }
    if (eol == std::string::npos) break;
    pos = eol + 1;
  }
  return total;
}

}  // namespace perfbench
