// perfbench — one benchmark for the whole Dr. Top-k stack, on two clocks.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --slo-us <limit> [--rate-qps <r>] [--trace-dir <dir>]
//
// Every number it prints carries a unit and a clock: `wall` is host time
// measured here, `sim` is the vgpu cost model's simulated V100S time (the
// paper's metric). Four workloads, each chosen to load a different layer:
//
//   paper-single  one caller, one exact core::dr_topk_keys at a time over
//                 resident 2^24 u32 vectors (UD, ND, CD), k cycling
//                 {2^6, 2^10, 2^14}: delegate construction over |V|
//                 dominates; serve and net are bypassed.
//   serve-exact   a TopkServer in a closed loop: one caller runs batches of
//                 64 exact queries over resident 2^20 and 2^18 corpora; ks
//                 recur, ~25% repeat inside a group, a few are
//                 selection-only. Grouping, the plan cache, batched stages
//                 2-4 and finalization do the work.
//   serve-approx  the same shapes with a recall target on every query: the
//                 approximate path (beta 1, budget alpha, no stages 3-4).
//   tcp-open      open-loop Poisson arrivals at a fixed rate over one DTK1
//                 loopback connection into a NetServer over a 2-shard
//                 ShardedBackend: framing, the epoll loop, admission,
//                 finishers and the scatter/merge set the latency.
//
// --trace 0 measures the end-to-end metrics with no span recording.
// --trace 1 measures untraced for half the time, then traced for the other
// half: per-layer metrics come from the traced half, obs.trace_overhead is
// the ratio of the two halves' throughput, and the spans are written as a
// Chrome trace into --trace-dir. Spans are recorded here, around calls into
// each layer's public API; layer counters are deltas of public stats.
//
// Every answer is checked: exact answers bit for bit against
// topk::reference_topk, approximate answers for recall >= their target. A
// wrong answer makes the command exit 1. The last stdout line is one JSON
// object {"correct", "attempted", "failed", "metrics"}.
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>

#include <cerrno>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "core/dr_topk.hpp"
#include "data/distributions.hpp"
#include "harness.hpp"
#include "net/client.hpp"
#include "net/net_server.hpp"
#include "serve/server.hpp"
#include "serve/sharded.hpp"

using namespace drtopk;
namespace pb = perfbench;

namespace {

// ---------------------------------------------------------------------------
// Options and output
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  u64 seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double slo_us = 0.0;    ///< latency limit behind slo_attainment
  double rate_qps = 0.0;  ///< open-loop arrival rate (tcp-open)
  std::string trace_dir = ".";
};

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (!v) return false;
    ++i;
    if (a == "--workload") o.workload = v;
    else if (a == "--seed") o.seed = std::strtoull(v, nullptr, 10);
    else if (a == "--seconds") o.seconds = std::atof(v);
    else if (a == "--trace") o.trace = std::atoi(v) != 0;
    else if (a == "--slo-us") o.slo_us = std::atof(v);
    else if (a == "--rate-qps") o.rate_qps = std::atof(v);
    else if (a == "--trace-dir") o.trace_dir = v;
    else return false;
  }
  return !o.workload.empty() && o.seconds > 0 && o.slo_us > 0;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string clock;  ///< wall | sim | count
  std::string note;
};

/// Everything one invocation prints.
struct Report {
  std::vector<Metric> metrics;
  std::vector<std::string> info;  ///< thread budget, parameters, ...
  u64 attempted = 0;
  u64 failed = 0;
  u64 wrong = 0;  ///< answers that were checked and found wrong
  std::vector<std::string> wrong_examples;

  void add(std::string name, double value, std::string unit,
           std::string clock, std::string note = "") {
    if (!std::isfinite(value)) value = 0.0;
    metrics.push_back({std::move(name), value, std::move(unit),
                       std::move(clock), std::move(note)});
  }
  void note_wrong(const std::string& what) {
    ++wrong;
    if (wrong_examples.size() < 5) wrong_examples.push_back(what);
  }

  void print(const Options& o) const {
    std::printf("perfbench workload=%s seed=%" PRIu64 " seconds=%g trace=%d\n",
                o.workload.c_str(), o.seed, o.seconds, o.trace ? 1 : 0);
    for (const auto& s : info) std::printf("  %s\n", s.c_str());
    for (const auto& m : metrics)
      std::printf("  %-36s %16.6f %-8s [%s]%s%s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.clock.c_str(), m.note.empty() ? "" : "  ",
                  m.note.c_str());
    for (const auto& w : wrong_examples)
      std::printf("  WRONG: %s\n", w.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                wrong == 0 ? "true" : "false", attempted, failed);
    for (size_t i = 0; i < metrics.size(); ++i)
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    std::printf("}}\n");
  }
};

u32 nproc() { return std::max(1u, std::thread::hardware_concurrency()); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

u64 mix(u64 seed, u64 tag) { return data::rand_u64(seed, tag); }

double secs_since(u64 t0) { return static_cast<double>(pb::now_ns() - t0) / 1e9; }

std::string fmt(const char* f, ...) __attribute__((format(printf, 1, 2)));
std::string fmt(const char* f, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, f);
  std::vsnprintf(buf, sizeof(buf), f, ap);
  va_end(ap);
  return buf;
}

// ---------------------------------------------------------------------------
// Correctness
// ---------------------------------------------------------------------------

/// Exact answer check: the k best values bit for bit (selection-only: the
/// k-th value alone).
bool exact_ok(const std::vector<u64>& got, u64 kth, const std::vector<u32>& oracle,
              u64 k, bool selection_only) {
  if (selection_only)
    return (got.size() == 1 && got[0] == oracle[k - 1]) ||
           (got.empty() && kth == oracle[k - 1]);
  if (got.size() != k) return false;
  for (u64 i = 0; i < k; ++i)
    if (got[i] != oracle[i]) return false;
  return true;
}

/// Recall of an approximate answer against the exact top-k: multiset
/// intersection size over k.
double recall_of(std::vector<u64> got, const std::vector<u32>& oracle, u64 k) {
  std::sort(got.begin(), got.end(), std::greater<>());
  u64 i = 0, j = 0, hit = 0;
  while (i < got.size() && j < k) {
    if (got[i] == oracle[j]) { ++hit; ++i; ++j; }
    else if (got[i] > oracle[j]) ++i;
    else ++j;
  }
  return static_cast<double>(hit) / static_cast<double>(k);
}

// ---------------------------------------------------------------------------
// Stats snapshots (public APIs only) and their deltas
// ---------------------------------------------------------------------------

struct DevSnap {
  vgpu::KernelStats total;
  double sim_ms = 0.0;
  u64 unattributed = 0;
};

DevSnap snap(const std::vector<vgpu::Device*>& devs) {
  DevSnap s;
  for (vgpu::Device* d : devs) {
    s.total += d->total_stats();
    s.sim_ms += d->total_sim_ms();
    s.unattributed += d->unattributed_launches();
  }
  return s;
}

struct DevDelta {
  u64 launches = 0, bytes = 0, atomics = 0;
  double sim_ms = 0.0;
  u64 unattributed = 0;
};

DevDelta operator-(const DevSnap& b, const DevSnap& a) {
  DevDelta d;
  d.launches = b.total.kernels_launched - a.total.kernels_launched;
  d.bytes = b.total.global_bytes() - a.total.global_bytes();
  d.atomics = b.total.atomic_ops - a.total.atomic_ops;
  d.sim_ms = b.sim_ms - a.sim_ms;
  d.unattributed = b.unattributed;  // absolute: must stay 0 for the run
  return d;
}

/// The ServerStats fields the benchmark reads, summable across shards.
struct ServeSnap {
  u64 completed = 0, groups = 0, plan_hits = 0, plan_misses = 0,
      deduped = 0, finalize_launches = 0;
  core::StageBreakdown stages;
  /// Launches per pipeline stage as the server's stage breakdown counts
  /// them (construct, first, concat, second incl. finalization).
  u64 launches[4] = {};
  void add(const serve::ServerStats& s) {
    launches[0] += s.stages.construct_stats.kernels_launched;
    launches[1] += s.stages.first_stats.kernels_launched;
    launches[2] += s.stages.concat_stats.kernels_launched;
    launches[3] += s.stages.second_stats.kernels_launched;
    completed += s.completed;
    groups += s.groups;
    plan_hits += s.plan_hits;
    plan_misses += s.plan_misses;
    deduped += s.deduped_queries;
    finalize_launches += s.finalize_launches;
    stages += s.stages;
  }
};

ServeSnap operator-(const ServeSnap& b, const ServeSnap& a) {
  ServeSnap d;
  d.completed = b.completed - a.completed;
  d.groups = b.groups - a.groups;
  d.plan_hits = b.plan_hits - a.plan_hits;
  d.plan_misses = b.plan_misses - a.plan_misses;
  d.deduped = b.deduped - a.deduped;
  d.finalize_launches = b.finalize_launches - a.finalize_launches;
  for (int i = 0; i < 4; ++i) d.launches[i] = b.launches[i] - a.launches[i];
  d.stages.construct_ms = b.stages.construct_ms - a.stages.construct_ms;
  d.stages.first_ms = b.stages.first_ms - a.stages.first_ms;
  d.stages.concat_ms = b.stages.concat_ms - a.stages.concat_ms;
  d.stages.second_ms = b.stages.second_ms - a.stages.second_ms;
  d.stages.delegate_len = b.stages.delegate_len - a.stages.delegate_len;
  d.stages.concat_len = b.stages.concat_len - a.stages.concat_len;
  d.stages.guard_trips = b.stages.guard_trips - a.stages.guard_trips;
  return d;
}

// ---------------------------------------------------------------------------
// Metric sets. Every workload prints every metric of its mode; a layer the
// workload bypasses reads 0 (and says so).
// ---------------------------------------------------------------------------

/// End-to-end inputs of one untraced measurement.
struct EndToEnd {
  double throughput_qps = 0.0;
  std::string throughput_note;
  std::vector<double> latency_us;
  std::string latency_note;
  pb::SloTally slo{0.0};
  double sim_us_per_query = 0.0;
  double recall_min = 1.0;
  double setup_s = 0.0;
  std::string setup_note;
};

void emit_end_to_end(Report& rep, const EndToEnd& e) {
  rep.add("throughput_qps", e.throughput_qps, "1/s", "wall", e.throughput_note);
  const pb::Windowed p50 = pb::windowed_quantile(e.latency_us, 0.5);
  const pb::Windowed tail = pb::windowed_quantile(e.latency_us, 0.99);
  const auto note = [&](const pb::Windowed& w) {
    return fmt("q=%.2f n=%" PRIu64 ", quietest of %u windows; %s",
               w.per_window.q, w.per_window.samples, w.windows,
               e.latency_note.c_str());
  };
  // Printed, not gated: on a shared host the open loop's latency swings
  // further from run to run than a regression bound may allow (see
  // README.md); slo_attainment carries latency instead.
  rep.info.push_back(fmt("latency_p50_us = %.3f us [wall] (%s)",
                         p50.per_window.value, note(p50).c_str()));
  rep.info.push_back(fmt("latency_p99_us = %.3f us [wall] (%s)",
                         tail.per_window.value, note(tail).c_str()));
  rep.add("slo_attainment", e.slo.attainment(), "ratio", "wall",
          fmt("ok within %.0f us / sent = %" PRIu64 "/%" PRIu64,
              e.slo.limit_us, e.slo.ok_within, e.slo.sent));
  rep.add("ok_frac", e.slo.ok_frac(), "ratio", "count",
          fmt("failed_frac = %.6f (failed %" PRIu64 " of %" PRIu64 ")",
              1.0 - e.slo.ok_frac(), e.slo.failed(), e.slo.sent));
  rep.add("sim_us_per_query", e.sim_us_per_query, "us", "sim",
          "simulated device time per answered query");
  rep.add("recall_min", e.recall_min, "ratio", "count",
          "min per-answer recall vs the oracle");
  rep.add("setup_s", e.setup_s, "s", "wall", e.setup_note);
  rep.add("peak_rss_mb", peak_rss_mb(), "MB", "wall", "getrusage ru_maxrss");
}

/// Per-layer inputs of one traced measurement.
struct Layers {
  double queries = 0;  ///< answered queries the per-query figures divide by
  core::StageBreakdown stages;  ///< stage sums over the phase
  double elems = 0;             ///< summed |V| of those queries
  DevDelta dev;
  bool serve = false;  ///< a TopkServer was in the path
  ServeSnap srv;
  std::vector<double> queue_us, service_us;
  double ws_growths = 0, recall_mean = 0;
  bool sharded = false;
  serve::ShardedStats shd;  ///< delta
  bool net = false;
  std::vector<double> rtt_us, server_us, wire_us, submit_us, bservice_us,
      lag_us;
  double admitted = 0, degraded = 0, shed = 0;
  double trace_overhead = 0;
  std::map<std::string, double> self_ns;
};

void emit_layers(Report& rep, const Layers& L) {
  const double q = std::max(1.0, L.queries);
  const auto per_q = [&](double v) { return v / q; };
  const auto p = [](const std::vector<double>& v, double qq) {
    return pb::quantile(v, qq).value;
  };
  const std::string bypass = "layer bypassed by this workload";
  // core
  rep.add("core.construct_sim_us", per_q(L.stages.construct_ms * 1e3), "us", "sim");
  rep.add("core.first_sim_us", per_q(L.stages.first_ms * 1e3), "us", "sim");
  rep.add("core.concat_sim_us", per_q(L.stages.concat_ms * 1e3), "us", "sim");
  rep.add("core.second_sim_us", per_q(L.stages.second_ms * 1e3), "us", "sim");
  rep.add("core.delegate_len", per_q(static_cast<double>(L.stages.delegate_len)),
          "count", "count", "per query");
  rep.add("core.candidates", per_q(static_cast<double>(L.stages.concat_len)),
          "count", "count", "per query");
  rep.add("core.filter_ratio",
          L.elems > 0 ? static_cast<double>(L.stages.concat_len) / L.elems : 0,
          "ratio", "count", "candidates / |V|");
  rep.add("core.guard_trips", per_q(static_cast<double>(L.stages.guard_trips)),
          "1/query", "count");
  // vgpu
  rep.add("vgpu.launches_per_query", per_q(static_cast<double>(L.dev.launches)),
          "1/query", "count");
  rep.add("vgpu.global_bytes_per_query", per_q(static_cast<double>(L.dev.bytes)),
          "B/query", "count");
  rep.add("vgpu.atomics_per_query", per_q(static_cast<double>(L.dev.atomics)),
          "1/query", "count");
  rep.add("vgpu.unattributed_launches", static_cast<double>(L.dev.unattributed),
          "count", "count", "must be 0");
  // serve
  const std::string sn = L.serve ? "" : bypass;
  rep.add("serve.queue_wait_us.p50", p(L.queue_us, 0.5), "us", "wall", sn);
  rep.add("serve.queue_wait_us.p99", pb::tail_quantile(L.queue_us).value, "us",
          "wall", L.serve ? fmt("q=%.2f", pb::supported_quantile(
                                              L.queue_us.size(), 0.99))
                          : sn);
  rep.add("serve.service_us.p50", p(L.service_us, 0.5), "us", "wall", sn);
  rep.add("serve.group_size",
          L.srv.groups ? static_cast<double>(L.srv.completed) /
                             static_cast<double>(L.srv.groups)
                       : 0,
          "count", "count", sn);
  // From the server's stage breakdown, not the device's stage ledger: the
  // ledger charges group-setup concat launches to "first" (their scope is
  // nested inside the batched-kappa scope).
  const auto lpq = [&](int st) {
    return L.serve ? per_q(static_cast<double>(L.srv.launches[st])) : 0.0;
  };
  const double fin = L.serve ? per_q(static_cast<double>(L.srv.finalize_launches)) : 0;
  rep.add("serve.launches_per_query.construct", lpq(0), "1/query", "count", sn);
  rep.add("serve.launches_per_query.first", lpq(1), "1/query", "count", sn);
  rep.add("serve.launches_per_query.concat", lpq(2), "1/query", "count", sn);
  rep.add("serve.launches_per_query.second", std::max(0.0, lpq(3) - fin),
          "1/query", "count",
          L.serve ? "second-stage launches outside finalization" : sn);
  rep.add("serve.launches_per_query.finalize", fin, "1/query", "count", sn);
  const u64 lookups = L.srv.plan_hits + L.srv.plan_misses;
  rep.add("serve.plan_hit_rate",
          lookups ? static_cast<double>(L.srv.plan_hits) /
                        static_cast<double>(lookups)
                  : 0,
          "ratio", "count", sn);
  rep.add("serve.dedup_share",
          L.srv.completed ? static_cast<double>(L.srv.deduped) /
                                static_cast<double>(L.srv.completed)
                          : 0,
          "ratio", "count", sn);
  rep.add("serve.ws_growths", L.ws_growths, "count", "count",
          L.serve ? "arena growths during the measured phase" : sn);
  rep.add("serve.recall_mean", L.recall_mean, "ratio", "count", sn);
  // sharded
  const std::string shn = L.sharded ? "" : bypass;
  const double merged = std::max<double>(1.0, static_cast<double>(L.shd.merged_queries));
  rep.add("sharded.merge_launches_per_query",
          L.sharded ? static_cast<double>(L.shd.merge_launches) / merged : 0,
          "1/query", "count", shn);
  rep.add("sharded.merge_sim_us_per_query",
          L.sharded ? L.shd.merge_sim_ms * 1e3 / merged : 0, "us", "sim", shn);
  rep.add("sharded.merge_batch_size",
          L.shd.merge_batches ? static_cast<double>(L.shd.merged_queries) /
                                    static_cast<double>(L.shd.merge_batches)
                              : 0,
          "count", "count", shn);
  rep.add("sharded.shard_queue_wait_us", L.sharded ? p(L.queue_us, 0.5) : 0,
          "us", "wall", L.sharded ? "p50, slowest shard" : shn);
  // net
  const std::string nn = L.net ? "p50" : bypass;
  rep.add("net.rtt_us", p(L.rtt_us, 0.5), "us", "wall", nn);
  rep.add("net.server_us", p(L.server_us, 0.5), "us", "wall", nn);
  rep.add("net.wire_us", p(L.wire_us, 0.5), "us", "wall", nn);
  rep.add("net.backend_submit_us", p(L.submit_us, 0.5), "us", "wall", nn);
  rep.add("net.backend_service_us", p(L.bservice_us, 0.5), "us", "wall", nn);
  rep.add("net.admitted", L.admitted, "count", "count", L.net ? "" : bypass);
  rep.add("net.degraded", L.degraded, "count", "count", L.net ? "" : bypass);
  rep.add("net.shed", L.shed, "count", "count", L.net ? "" : bypass);
  // load generator and tracing
  const pb::Quantile lag = pb::tail_quantile(L.lag_us);
  rep.add("load.sender_lag_us", lag.value, "us", "wall",
          L.net ? fmt("q=%.2f n=%" PRIu64, lag.q, lag.samples) : bypass);
  rep.add("obs.trace_overhead", L.trace_overhead, "ratio", "wall",
          "untraced / traced throughput_qps");
  for (const char* layer :
       {"bench", "core", "serve", "net", "load", "client", "backend"}) {
    auto it = L.self_ns.find(layer);
    rep.add(std::string("trace.self_us.") + layer,
            it == L.self_ns.end() ? 0.0 : per_q(it->second / 1e3), "us", "wall",
            "span self time per query");
  }
}

/// Runs `setup` `reps` times (each result replacing the last, so only one
/// is alive at a time); returns the last and the median set-up time. Each
/// workload sets up as many times as fit in about 1-3 s, so the median of a
/// cheap set-up is not one noisy sample.
template <class State, class F>
std::unique_ptr<State> repeat_setup(u32 reps, F&& setup, EndToEnd& e) {
  std::unique_ptr<State> st;
  std::vector<double> t;
  for (u32 r = 0; r < reps; ++r) {
    st.reset();
    const u64 t0 = pb::now_ns();
    st = setup();
    t.push_back(secs_since(t0));
  }
  e.setup_s = pb::median(t);
  e.setup_note = fmt("median of %u set-ups", reps);
  return st;
}

void write_trace(const Options& o, const pb::SpanRecorder& rec, Report& rep) {
  const std::string path = fmt("%s/%s-seed%" PRIu64 ".trace.json",
                               o.trace_dir.c_str(), o.workload.c_str(), o.seed);
  const auto spans = rec.spans();
  if (pb::write_chrome_trace(path, spans))
    rep.info.push_back(fmt("trace: %zu spans -> %s", spans.size(), path.c_str()));
  else
    rep.info.push_back("trace: could not write " + path);
}

// ---------------------------------------------------------------------------
// paper-single
// ---------------------------------------------------------------------------

constexpr u64 kPaperLogN = 24;
constexpr data::Distribution kPaperDists[] = {data::Distribution::kUniform,
                                              data::Distribution::kNormal,
                                              data::Distribution::kCustomized};
constexpr u64 kPaperKs[] = {u64{1} << 6, u64{1} << 10, u64{1} << 14};

struct PaperState {
  std::vector<vgpu::device_vector<u32>> corpora;
  std::unique_ptr<vgpu::Device> dev;
  std::unique_ptr<vgpu::Workspace> ws;
};

struct PaperPhase {
  std::vector<double> latency_us, round_s;
  u64 queries = 0;
  core::StageBreakdown stages;
  DevDelta dev;
};

PaperPhase paper_phase(PaperState& st,
                       const std::vector<std::vector<u32>>& oracle,
                       double seconds, pb::SpanRecorder& rec, Report& rep,
                       pb::SloTally& slo) {
  PaperPhase ph;
  const DevSnap d0 = snap({st.dev.get()});
  const u64 t_start = pb::now_ns();
  u64 req = 0;
  do {
    const u64 r0 = pb::now_ns();
    for (size_t d = 0; d < std::size(kPaperDists); ++d) {
      const std::span<const u32> v(st.corpora[d].data(), st.corpora[d].size());
      for (const u64 k : kPaperKs) {
        pb::ScopedSpan root(rec, "bench.query", 0, ++req);
        core::StageBreakdown bd;
        const u64 q0 = pb::now_ns();
        topk::TopkResult<u32> r;
        {
          pb::ScopedSpan s(rec, "core.dr_topk_keys", root.id(), req);
          r = core::dr_topk_keys<u32>(*st.dev, v, k, {}, &bd, *st.ws);
        }
        const double lat = static_cast<double>(pb::now_ns() - q0) / 1e3;
        std::vector<u64> got(r.keys.begin(), r.keys.end());
        const bool ok = exact_ok(got, r.kth, oracle[d], k, false);
        ++rep.attempted;
        slo.on_sent();
        slo.on_answer(ok, lat);
        if (!ok) {
          ++rep.failed;
          rep.note_wrong(fmt("paper-single %s k=%" PRIu64,
                             data::to_string(kPaperDists[d]).c_str(), k));
        }
        ph.latency_us.push_back(lat);
        ph.stages += bd;
        ++ph.queries;
      }
    }
    ph.round_s.push_back(secs_since(r0));
  } while (secs_since(t_start) < seconds);
  ph.dev = snap({st.dev.get()}) - d0;
  return ph;
}

int run_paper_single(const Options& o, Report& rep) {
  const u64 n = u64{1} << kPaperLogN;
  const u32 host_threads = nproc();
  EndToEnd e;
  auto st = repeat_setup<PaperState>(3, [&] {
    auto s = std::make_unique<PaperState>();
    for (size_t d = 0; d < std::size(kPaperDists); ++d)
      s->corpora.push_back(data::generate(n, kPaperDists[d], mix(o.seed, d)));
    s->dev = std::make_unique<vgpu::Device>(vgpu::GpuProfile::v100s(),
                                            host_threads);
    s->ws = std::make_unique<vgpu::Workspace>();
    // Warm up until a full pass over every (distribution, k) grows nothing.
    for (int pass = 0; pass < 8; ++pass) {
      const u64 g0 = s->ws->growths();
      for (auto& c : s->corpora)
        for (const u64 k : kPaperKs)
          core::dr_topk_keys<u32>(*s->dev,
                                  std::span<const u32>(c.data(), c.size()), k,
                                  {}, nullptr, *s->ws);
      if (pass > 0 && s->ws->growths() == g0) break;
    }
    return s;
  }, e);
  rep.info.push_back(fmt("threads: nproc=%u device_host=%u callers=1 "
                         "(set-up only: data generation pool=%u)",
                         nproc(), host_threads, nproc()));
  rep.info.push_back(fmt("inputs: |V|=2^%" PRIu64 " u32 x {UD,ND,CD}, k in "
                         "{64,1024,16384}, closed loop, 1 caller",
                         kPaperLogN));

  std::vector<std::vector<u32>> oracle;
  for (auto& c : st->corpora)
    oracle.push_back(topk::reference_topk(
        std::span<const u32>(c.data(), c.size()), kPaperKs[2]));

  const auto thr = [](const PaperPhase& ph) {
    return static_cast<double>(std::size(kPaperDists) * std::size(kPaperKs)) /
           pb::median(ph.round_s);
  };
  pb::SpanRecorder off(false);
  if (!o.trace) {
    e.slo = pb::SloTally(o.slo_us);
    const PaperPhase ph = paper_phase(*st, oracle, o.seconds, off, rep, e.slo);
    e.throughput_qps = thr(ph);
    e.throughput_note = fmt("9 queries / median round time, %zu rounds",
                            ph.round_s.size());
    e.latency_us = ph.latency_us;
    e.latency_note = "per dr_topk_keys call";
    e.sim_us_per_query = ph.dev.sim_ms * 1e3 / static_cast<double>(ph.queries);
    emit_end_to_end(rep, e);
    return 0;
  }
  pb::SloTally slo(o.slo_us);
  const PaperPhase plain = paper_phase(*st, oracle, o.seconds / 2, off, rep, slo);
  pb::SpanRecorder rec(true);
  const PaperPhase ph = paper_phase(*st, oracle, o.seconds / 2, rec, rep, slo);
  Layers L;
  L.queries = static_cast<double>(ph.queries);
  L.stages = ph.stages;
  L.elems = static_cast<double>(ph.queries) * static_cast<double>(n);
  L.dev = ph.dev;
  L.trace_overhead = thr(plain) / thr(ph);
  L.self_ns = pb::self_time_ns(rec.spans());
  emit_layers(rep, L);
  write_trace(o, rec, rep);
  return 0;
}

// ---------------------------------------------------------------------------
// serve-exact / serve-approx
// ---------------------------------------------------------------------------

constexpr u64 kServeLogN[] = {20, 18};
constexpr u32 kBatch = 64;         ///< queries per run_batch call
constexpr u32 kGroup = 16;         ///< ServerConfig::batch_max
constexpr u32 kTemplates = 8;      ///< distinct batches, cycled
constexpr u32 kRecurringKs = 12;   ///< recurring k set per corpus
constexpr u64 kServeKMin = 256, kServeKMax = 4096;

struct QInfo {
  u32 corpus = 0;
  u64 k = 1;
  bool selection_only = false;
  double rho = 1.0;
};

struct ServeState {
  std::vector<vgpu::device_vector<u32>> corpora;
  std::unique_ptr<vgpu::Device> dev;
  std::unique_ptr<serve::TopkServer> srv;
  std::vector<std::vector<serve::Query>> batches;
  std::vector<std::vector<QInfo>> info;
};

/// The recall target of an approximate query. The approximate path promises
/// E[recall] >= rho, with the expected misses (about k^2 / 2S for S
/// subranges) at most half the allowance k(1 - rho) — not recall >= rho on
/// every answer, and every answer here is checked. rho = 0.99 is therefore
/// given only where the misses have room to scatter: on the 2^20 corpus
/// with k >= 3000 the budget leaves S = 2^19 subranges, ~11-16 expected
/// misses against an allowance of 33-41. Every other query asks for 0.9,
/// whose allowance is 3x the expected misses or more at k >= 256.
double approx_rho(u32 corpus, u64 k) {
  return corpus == 0 && k >= 3000 ? 0.99 : 0.9;
}

/// The recurring k set: kRecurringKs values spaced evenly in log2 between
/// kServeKMin and kServeKMax. Fixed, so the seed changes the data and the
/// order of the queries but not the work they ask for.
std::vector<u64> recurring_ks() {
  std::vector<u64> ks;
  const double lo = std::log2(static_cast<double>(kServeKMin));
  const double hi = std::log2(static_cast<double>(kServeKMax));
  for (u32 i = 0; i < kRecurringKs; ++i)
    ks.push_back(static_cast<u64>(std::llround(
        std::exp2(lo + (hi - lo) * i / (kRecurringKs - 1)))));
  return ks;
}

/// Builds the cycled batches: per corpus, two admission groups of 16 per
/// batch. A group holds every k of the recurring set once plus 4 repeats
/// (25%); one exact query per group is selection-only. The query mix and
/// order come from a fixed generator, not from the seed: a group's plan
/// follows its first query, so a seeded order would make the seed pick the
/// plans and the work. The seed generates the corpora.
void build_batches(ServeState& s, bool approx) {
  std::mt19937_64 rng(0x5e7e);
  const std::vector<u64> kset = recurring_ks();
  for (u32 t = 0; t < kTemplates; ++t) {
    std::vector<serve::Query> qs;
    std::vector<QInfo> info;
    for (u32 c = 0; c < s.corpora.size(); ++c) {
      const std::span<const u32> v(s.corpora[c].data(), s.corpora[c].size());
      for (u32 g = 0; g < kBatch / kGroup / s.corpora.size(); ++g) {
        std::vector<u64> ks = kset;
        while (ks.size() < kGroup) ks.push_back(kset[rng() % kset.size()]);
        std::shuffle(ks.begin(), ks.end(), rng);
        const u32 sel = static_cast<u32>(rng() % kGroup);
        for (u32 j = 0; j < kGroup; ++j) {
          QInfo qi{c, ks[j], !approx && j == sel, 1.0};
          serve::Query q = serve::Query::view(v, qi.k, data::Criterion::kLargest,
                                              qi.selection_only);
          if (approx) {
            qi.rho = approx_rho(c, qi.k);
            q = std::move(q).with_recall(qi.rho);
          }
          qs.push_back(std::move(q));
          info.push_back(qi);
        }
      }
    }
    s.batches.push_back(std::move(qs));
    s.info.push_back(std::move(info));
  }
}

struct ServePhase {
  std::vector<double> latency_us, cycle_s, queue_us, service_us;
  u64 queries = 0;
  double recall_min = 1.0, recall_sum = 0.0;
  u64 recall_n = 0;
  DevDelta dev;
  ServeSnap srv;
  u64 ws_growths = 0;
};

ServePhase serve_phase(ServeState& st,
                       const std::vector<std::vector<u32>>& oracle,
                       double seconds, pb::SpanRecorder& rec, Report& rep,
                       pb::SloTally& slo) {
  ServePhase ph;
  const DevSnap d0 = snap({st.dev.get()});
  ServeSnap s0;
  s0.add(st.srv->stats());
  const u64 g0 = st.srv->workspace_growths();
  const u64 t_start = pb::now_ns();
  u64 req = 0;
  do {
    const u64 c0 = pb::now_ns();
    for (size_t t = 0; t < st.batches.size(); ++t) {
      pb::ScopedSpan root(rec, "bench.batch", 0, ++req);
      std::vector<serve::QueryResult> res;
      bool threw = false;
      try {
        pb::ScopedSpan s(rec, "serve.run_batch", root.id(), req);
        res = st.srv->run_batch(st.batches[t]);
      } catch (const std::exception& ex) {
        threw = true;
        rep.note_wrong(fmt("run_batch threw: %s", ex.what()));
      }
      for (size_t i = 0; i < st.info[t].size(); ++i) {
        const QInfo& qi = st.info[t][i];
        ++rep.attempted;
        slo.on_sent();
        if (threw) {
          ++rep.failed;
          continue;
        }
        const serve::QueryResult& r = res[i];
        bool ok;
        if (qi.rho >= 1.0) {
          ok = exact_ok(r.values, r.kth, oracle[qi.corpus], qi.k,
                        qi.selection_only);
          if (!ok) rep.note_wrong(fmt("exact corpus=%u k=%" PRIu64 " sel=%d",
                                      qi.corpus, qi.k, qi.selection_only));
        } else {
          const double rc = recall_of(r.values, oracle[qi.corpus], qi.k);
          ph.recall_min = std::min(ph.recall_min, rc);
          ph.recall_sum += rc;
          ++ph.recall_n;
          ok = r.values.size() == qi.k && rc >= qi.rho;
          if (!ok) rep.note_wrong(fmt("approx corpus=%u k=%" PRIu64
                                      " rho=%.2f recall=%.4f",
                                      qi.corpus, qi.k, qi.rho, rc));
        }
        const double lat = r.wall_ms * 1e3;
        slo.on_answer(ok, lat);
        if (!ok) ++rep.failed;
        ph.latency_us.push_back(lat);
        ph.queue_us.push_back(static_cast<double>(r.queue_us));
        ph.service_us.push_back(std::max(0.0, lat - static_cast<double>(r.queue_us)));
        ++ph.queries;
      }
    }
    ph.cycle_s.push_back(secs_since(c0));
  } while (secs_since(t_start) < seconds);
  ph.dev = snap({st.dev.get()}) - d0;
  ServeSnap s1;
  s1.add(st.srv->stats());
  ph.srv = s1 - s0;
  ph.ws_growths = st.srv->workspace_growths() - g0;
  return ph;
}

int run_serve(const Options& o, Report& rep, bool approx) {
  serve::ServerConfig cfg;
  cfg.executors = 2;
  cfg.batch_max = kGroup;
  cfg.max_in_flight = kBatch;
  // Two busy threads: the executors run their kernels' CTAs themselves (a
  // device pool of 1 is the calling thread). Host speed on shared machines
  // swings several-fold; keeping half of nproc free makes the wall clock
  // steadier than filling every core.
  const u32 host_threads = 1;
  EndToEnd e;
  auto st = repeat_setup<ServeState>(5, [&] {
    auto s = std::make_unique<ServeState>();
    for (size_t c = 0; c < std::size(kServeLogN); ++c)
      s->corpora.push_back(data::generate(u64{1} << kServeLogN[c],
                                          data::Distribution::kUniform,
                                          mix(o.seed, 100 + c)));
    s->dev = std::make_unique<vgpu::Device>(vgpu::GpuProfile::v100s(),
                                            host_threads);
    s->srv = std::make_unique<serve::TopkServer>(*s->dev, cfg);
    build_batches(*s, approx);
    // Warm up until two full cycles of batches in a row grow no arena.
    for (int pass = 0, still = 0; pass < 16 && still < 2; ++pass) {
      const u64 g0 = s->srv->workspace_growths();
      for (const auto& b : s->batches) s->srv->run_batch(b);
      still = pass > 0 && s->srv->workspace_growths() == g0 ? still + 1 : 0;
    }
    return s;
  }, e);
  rep.info.push_back(fmt("threads: nproc=%u device_host=%u executors=%u "
                         "callers=1 (set-up only: data generation pool=%u)",
                         nproc(), host_threads, cfg.executors, nproc()));
  rep.info.push_back(fmt("inputs: corpora 2^20,2^18 u32 UD; %u batches of %u "
                         "cycled; batch_max=%u; ks in [%" PRIu64 ",%" PRIu64
                         "]; %s", kTemplates, kBatch, kGroup, kServeKMin,
                         kServeKMax,
                         approx ? "rho 0.99 (2^20, k>=3000) else 0.9"
                                : "exact, ~1/16 selection-only"));

  std::vector<std::vector<u32>> oracle;
  for (auto& c : st->corpora)
    oracle.push_back(topk::reference_topk(
        std::span<const u32>(c.data(), c.size()), kServeKMax));

  const auto thr = [](const ServePhase& ph) {
    return static_cast<double>(kTemplates * kBatch) / pb::median(ph.cycle_s);
  };
  pb::SpanRecorder off(false);
  if (!o.trace) {
    e.slo = pb::SloTally(o.slo_us);
    const ServePhase ph = serve_phase(*st, oracle, o.seconds, off, rep, e.slo);
    e.throughput_qps = thr(ph);
    e.throughput_note = fmt("%u queries / median cycle time, %zu cycles",
                            kTemplates * kBatch, ph.cycle_s.size());
    e.latency_us = ph.latency_us;
    e.latency_note = "admission to answer (QueryResult::wall_ms)";
    e.sim_us_per_query = ph.dev.sim_ms * 1e3 / static_cast<double>(ph.queries);
    e.recall_min = ph.recall_min;
    emit_end_to_end(rep, e);
    return 0;
  }
  pb::SloTally slo(o.slo_us);
  const ServePhase plain = serve_phase(*st, oracle, o.seconds / 2, off, rep, slo);
  pb::SpanRecorder rec(true);
  const ServePhase ph = serve_phase(*st, oracle, o.seconds / 2, rec, rep, slo);
  Layers L;
  L.queries = static_cast<double>(ph.queries);
  L.stages = ph.srv.stages;
  for (const auto& info : st->info)
    for (const QInfo& qi : info)
      L.elems += static_cast<double>(u64{1} << kServeLogN[qi.corpus]);
  L.elems *= L.queries / static_cast<double>(kTemplates * kBatch);
  L.dev = ph.dev;
  L.serve = true;
  L.srv = ph.srv;
  L.queue_us = ph.queue_us;
  L.service_us = ph.service_us;
  L.ws_growths = static_cast<double>(ph.ws_growths);
  L.recall_mean = ph.recall_n ? ph.recall_sum / static_cast<double>(ph.recall_n) : 1.0;
  L.trace_overhead = thr(plain) / thr(ph);
  L.self_ns = pb::self_time_ns(rec.spans());
  emit_layers(rep, L);
  write_trace(o, rec, rep);
  return 0;
}

// ---------------------------------------------------------------------------
// tcp-open
// ---------------------------------------------------------------------------

constexpr u64 kTcpLogN = 16;
constexpr u64 kTcpKs[] = {64, 128, 256, 512};

struct TcpState {
  vgpu::device_vector<u32> corpus;
  pb::SpanRecorder rec;
  std::unique_ptr<serve::ShardedTopkServer> srv;
  std::unique_ptr<net::ShardedBackend> backend;
  std::unique_ptr<pb::TimedBackend> timed;
  std::unique_ptr<net::NetServer> front;
  net::BlockingClient cli;
  u64 next_id = 1;

  std::vector<vgpu::Device*> devices() {
    std::vector<vgpu::Device*> d;
    for (u32 i = 0; i < srv->num_shards(); ++i) d.push_back(&srv->shard_device(i));
    d.push_back(&srv->merge_device());
    return d;
  }
  ServeSnap serve_snap() const {
    ServeSnap s;
    for (u32 i = 0; i < srv->num_shards(); ++i) s.add(srv->shard(i).stats());
    return s;
  }
};

net::TopkRequest tcp_request(u64 id, u64 k) {
  net::TopkRequest req;
  req.request_id = id;
  req.corpus = 0;
  req.k = k;
  return req;
}

struct TcpPhase {
  std::vector<double> latency_us, rtt_us, server_us, wire_us, lag_us;
  u64 sent = 0, answered = 0;
  double span_s = 0.0;
  DevDelta dev;
  ServeSnap srv;
  serve::ShardedStats shd;
  u64 ws_growths = 0;
  u64 admitted = 0, degraded = 0, shed = 0;
  std::vector<pb::TimedBackend::Sample> backend;
};

TcpPhase tcp_phase(TcpState& st, const std::vector<u32>& oracle,
                   const Options& o, double seconds, u64 phase_tag,
                   Report& rep, pb::SloTally& slo) {
  TcpPhase ph;
  const std::vector<u64> due =
      pb::poisson_schedule(mix(o.seed, 0x70c0 + phase_tag), o.rate_qps, seconds);
  const u64 n = due.size();
  std::vector<u64> ks(n);
  std::mt19937_64 rng(mix(o.seed, 0x70c8 + phase_tag));
  for (u64& k : ks) k = kTcpKs[rng() % std::size(kTcpKs)];
  const u64 id0 = st.next_id;
  st.next_id += n;

  const std::string m0 = st.cli.metrics().value_or("");
  st.timed->reset();
  const DevSnap d0 = snap(st.devices());
  const ServeSnap s0 = st.serve_snap();
  const serve::ShardedStats h0 = st.srv->stats();
  const u64 g0 = st.srv->workspace_growths();

  std::vector<u64> sent_at, recv_at(n, 0);
  std::vector<u8> got(n, 0);
  std::vector<net::TopkResponse> resp(n);
  const u64 t0 = pb::now_ns() + 2'000'000;  // first due time 2 ms out
  std::atomic<u64> sent{0};
  std::thread sender([&] {
    prctl(PR_SET_TIMERSLACK, 1UL);  // wake at the due time, not 50 us late
    pb::PacerClock clock;
    const u64 s = pb::run_paced(due, t0, clock, [&](u64 i) {
      const u64 a = pb::now_ns();
      const bool okk = st.cli.send(tcp_request(id0 + i, ks[i]));
      if (st.rec.enabled()) {
        st.rec.add("load.lag", t0 + due[i], a, st.rec.new_id(),
                   pb::kParentByRequest, i);
        st.rec.add("client.send", a, pb::now_ns(), st.rec.new_id(),
                   pb::kParentByRequest, i);
      }
      return okk;
    }, sent_at);
    sent.store(s, std::memory_order_release);
  });
  // Reader: this thread. A receive timeout bounds how long a lost answer
  // can stall the phase.
  timeval tv{0, 200'000};
  setsockopt(st.cli.fd(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  const u64 give_up = t0 + static_cast<u64>((seconds + 20.0) * 1e9);
  u64 answered = 0;
  while (answered < n && pb::now_ns() < give_up) {
    errno = 0;
    auto r = st.cli.recv_response();
    if (!r) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) continue;  // timeout
      rep.note_wrong("connection to the front door lost");
      break;
    }
    const u64 t = pb::now_ns();
    if (r->request_id < id0 || r->request_id >= id0 + n || got[r->request_id - id0]) {
      rep.note_wrong(fmt("unexpected response id %" PRIu64, r->request_id));
      continue;
    }
    const u64 i = r->request_id - id0;
    got[i] = 1;
    recv_at[i] = t;
    resp[i] = std::move(*r);
    ++answered;
  }
  sender.join();
  timeval none{0, 0};
  setsockopt(st.cli.fd(), SOL_SOCKET, SO_RCVTIMEO, &none, sizeof(none));

  ph.sent = sent.load(std::memory_order_acquire);
  ph.answered = answered;
  u64 t_last = t0;
  for (u64 i = 0; i < n; ++i) {
    if (i < ph.sent) {
      ++rep.attempted;
      slo.on_sent();
    }
    if (!got[i]) {
      if (i < ph.sent) ++rep.failed;
      continue;
    }
    const net::TopkResponse& r = resp[i];
    bool ok = r.status == net::Status::kOk;
    if (ok && !exact_ok(r.values, r.kth, oracle, ks[i], false)) {
      ok = false;
      rep.note_wrong(fmt("tcp-open k=%" PRIu64 " id=%" PRIu64, ks[i], r.request_id));
    }
    if (!ok) ++rep.failed;
    const double lat = pb::due_latency_us(t0, due[i], recv_at[i]);
    slo.on_answer(ok, lat);
    ph.latency_us.push_back(lat);
    ph.lag_us.push_back(static_cast<double>(sent_at[i] - std::min(sent_at[i], t0 + due[i])) / 1e3);
    const double rtt = static_cast<double>(recv_at[i] - sent_at[i]) / 1e3;
    ph.rtt_us.push_back(rtt);
    ph.server_us.push_back(static_cast<double>(r.server_us));
    ph.wire_us.push_back(std::max(0.0, rtt - static_cast<double>(r.server_us)));
    t_last = std::max(t_last, recv_at[i]);
    if (st.rec.enabled())
      st.rec.add("net.request", t0 + due[i], recv_at[i], st.rec.new_id(), 0, i);
  }
  ph.span_s = static_cast<double>(t_last - t0) / 1e9;
  u64 by_status[8] = {};
  for (u64 i = 0; i < n; ++i)
    if (got[i]) ++by_status[static_cast<u8>(resp[i].status) & 7];
  rep.info.push_back(fmt(
      "phase %" PRIu64 ": sent %" PRIu64 " answered %" PRIu64 " | ok %" PRIu64
      " degraded %" PRIu64 " shed overload/deadline/quota/rate %" PRIu64
      "/%" PRIu64 "/%" PRIu64 "/%" PRIu64 " bad %" PRIu64 " error %" PRIu64
      " | lost %" PRIu64,
      phase_tag, ph.sent, answered, by_status[0], by_status[1], by_status[2],
      by_status[3], by_status[4], by_status[5], by_status[6], by_status[7],
      ph.sent - std::min(ph.sent, answered)));

  st.srv->drain();
  ph.dev = snap(st.devices()) - d0;
  ph.srv = st.serve_snap() - s0;
  const serve::ShardedStats h1 = st.srv->stats();
  ph.shd.merged_queries = h1.merged_queries - h0.merged_queries;
  ph.shd.merge_batches = h1.merge_batches - h0.merge_batches;
  ph.shd.merge_launches = h1.merge_launches - h0.merge_launches;
  ph.shd.merge_sim_ms = h1.merge_sim_ms - h0.merge_sim_ms;
  ph.ws_growths = st.srv->workspace_growths() - g0;
  const std::string m1 = st.cli.metrics().value_or("");
  const auto delta = [&](const char* name) {
    return pb::prom_counter(m1, name) - pb::prom_counter(m0, name);
  };
  ph.admitted = delta("net_admitted");
  ph.degraded = delta("net_degraded");
  ph.shed = delta("net_shed");
  ph.backend = st.timed->samples();
  return ph;
}

int run_tcp_open(const Options& o, Report& rep) {
  if (o.rate_qps <= 0) {
    std::fprintf(stderr, "tcp-open needs --rate-qps\n");
    return 2;
  }
  serve::ShardedConfig scfg;
  scfg.num_shards = 2;
  // One executor per shard running its kernels itself: two busy threads,
  // half of nproc free for the front door, the merge thread and the load
  // generator.
  scfg.host_threads_per_shard = 1;
  scfg.shard.executors = 1;
  scfg.shard.batch_max = 16;
  scfg.shard.max_in_flight = 320;  // above the front door's bound
  net::NetServerConfig ncfg;
  ncfg.finishers = 2;
  // In-flight bounds high enough that a burst of host interference queues
  // instead of shedding: every shed is a failure here.
  ncfg.admission.max_in_flight = 256;
  ncfg.admission.safety = 1.5;
  const u64 n = u64{1} << kTcpLogN;
  EndToEnd e;
  auto st = repeat_setup<TcpState>(15, [&] {
    auto s = std::make_unique<TcpState>();
    s->corpus = data::generate(n, data::Distribution::kUniform, mix(o.seed, 200));
    s->srv = std::make_unique<serve::ShardedTopkServer>(scfg);
    s->backend = std::make_unique<net::ShardedBackend>(*s->srv);
    s->backend->add_corpus(std::span<const u32>(s->corpus.data(), s->corpus.size()));
    s->timed = std::make_unique<pb::TimedBackend>(*s->backend, s->rec);
    s->front = std::make_unique<net::NetServer>(*s->timed, ncfg);
    if (!s->cli.connect(s->front->port()))
      throw std::runtime_error("cannot connect to the front door");
    // Warm up (lockstep) until a full round over every k grows no arena.
    for (int pass = 0; pass < 40; ++pass) {
      const u64 g0 = s->srv->workspace_growths();
      for (int rep_k = 0; rep_k < 8; ++rep_k)
        for (const u64 k : kTcpKs)
          if (!s->cli.call(tcp_request(s->next_id++, k)))
            throw std::runtime_error("warm-up call failed");
      s->srv->drain();
      if (pass > 0 && s->srv->workspace_growths() == g0) break;
    }
    return s;
  }, e);
  rep.info.push_back(fmt(
      "threads: nproc=%u shards=%u shard_executors=%u shard_device_host=%u "
      "shard_batch_max=%u "
      "merge_device_host=1 merge_thread=1 net_loop=1 net_finishers=%u "
      "loadgen=2 (sender+reader) connections=1 (set-up only: data "
      "generation pool=%u)",
      nproc(), scfg.num_shards, scfg.shard.executors,
      scfg.host_threads_per_shard, scfg.shard.batch_max, ncfg.finishers,
      nproc()));
  rep.info.push_back(fmt("inputs: corpus 2^%" PRIu64 " u32 UD over 2 shards; "
                         "Poisson %.0f qps open loop; exact; k in "
                         "{64,128,256,512}; no deadline; SLO %.0f us",
                         kTcpLogN, o.rate_qps, o.slo_us));

  const std::vector<u32> oracle = topk::reference_topk(
      std::span<const u32>(st->corpus.data(), st->corpus.size()), kTcpKs[3]);

  if (!o.trace) {
    e.slo = pb::SloTally(o.slo_us);
    const TcpPhase ph = tcp_phase(*st, oracle, o, o.seconds, 0, rep, e.slo);
    e.throughput_qps = static_cast<double>(e.slo.ok) / ph.span_s;
    e.throughput_note = fmt("answered kOk / phase span, offered %.0f/s",
                            o.rate_qps);
    e.latency_us = ph.latency_us;
    e.latency_note = "due time to answer";
    e.sim_us_per_query = ph.dev.sim_ms * 1e3 / static_cast<double>(std::max<u64>(1, ph.answered));
    emit_end_to_end(rep, e);
    return 0;
  }
  pb::SloTally slo(o.slo_us);
  const TcpPhase plain = tcp_phase(*st, oracle, o, o.seconds / 2, 1, rep, slo);
  const double plain_ok = static_cast<double>(slo.ok);
  st->rec.set_enabled(true);
  const TcpPhase ph = tcp_phase(*st, oracle, o, o.seconds / 2, 2, rep, slo);
  st->rec.set_enabled(false);
  Layers L;
  L.queries = static_cast<double>(ph.answered);
  L.stages = ph.srv.stages;
  L.elems = L.queries * static_cast<double>(n);
  L.dev = ph.dev;
  L.serve = L.sharded = L.net = true;
  L.srv = ph.srv;
  for (const auto& s : ph.backend) {
    L.queue_us.push_back(static_cast<double>(s.queue_us));
    L.submit_us.push_back(static_cast<double>(s.submit_ns) / 1e3);
    L.bservice_us.push_back(static_cast<double>(s.service_ns) / 1e3);
    L.service_us.push_back(std::max(0.0, s.wall_ms * 1e3 - static_cast<double>(s.queue_us)));
  }
  L.ws_growths = static_cast<double>(ph.ws_growths);
  L.recall_mean = 1.0;
  L.shd = ph.shd;
  L.rtt_us = ph.rtt_us;
  L.server_us = ph.server_us;
  L.wire_us = ph.wire_us;
  L.lag_us = ph.lag_us;
  L.admitted = static_cast<double>(ph.admitted);
  L.degraded = static_cast<double>(ph.degraded);
  L.shed = static_cast<double>(ph.shed);
  const double traced_ok = static_cast<double>(slo.ok) - plain_ok;
  L.trace_overhead = (plain_ok / plain.span_s) / (traced_ok / ph.span_s);
  L.self_ns = pb::self_time_ns(st->rec.spans());
  emit_layers(rep, L);
  write_trace(o, st->rec, rep);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!parse(argc, argv, o)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload W --seed N --seconds S --trace "
                 "0|1 --slo-us L [--rate-qps R] [--trace-dir D]\n");
    return 2;
  }
  Report rep;
  int rc = 2;
  try {
    if (o.workload == "paper-single") rc = run_paper_single(o, rep);
    else if (o.workload == "serve-exact") rc = run_serve(o, rep, false);
    else if (o.workload == "serve-approx") rc = run_serve(o, rep, true);
    else if (o.workload == "tcp-open") rc = run_tcp_open(o, rep);
    else std::fprintf(stderr, "unknown workload '%s'\n", o.workload.c_str());
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "perfbench: %s\n", ex.what());
    return 1;
  }
  if (rc != 0) return rc;
  rep.print(o);
  std::fflush(stdout);
  return rep.wrong == 0 ? 0 : 1;
}
