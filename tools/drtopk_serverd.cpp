// drtopk_serverd — the network serving daemon.
//
// Binds the NetServer front door (src/net/) over a TopkServer (or, with
// --shards N, a ShardedTopkServer), loads synthetic corpora at startup and
// serves the docs/SERVING.md protocol until SIGINT/SIGTERM. Corpus ids are
// the 0-based order of the --corpus list — registration is out of band by
// design (the daemon owns the data plane; clients only reference ids).
//
//   $ drtopk_serverd --port 7411 --corpus 1048576,4194304 --shards 2
//                    --rate-qps 200 --max-in-flight 48
//
// Every knob maps 1:1 onto NetServerConfig / AdmissionController::Config /
// ServerConfig; run with --help for the list.
#include <charconv>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "data/distributions.hpp"
#include "net/net_server.hpp"

using namespace drtopk;

namespace {

volatile std::sig_atomic_t g_stop = 0;
void on_signal(int) { g_stop = 1; }

struct Options {
  u16 port = 7411;
  std::vector<u64> corpus_sizes = {u64{1} << 20};
  u32 shards = 0;  // 0 = single TopkServer
  u32 executors = 2;
  u32 batch_max = 16;
  u32 finishers = 2;
  u32 max_connections = 256;
  double rate_qps = 0.0;
  double burst = 16.0;
  u32 quota = 0;
  u64 max_in_flight = 48;
  double safety = 1.5;
  u64 seed = 7;
};

/// Ceiling on --shards, --executors and --finishers: each builds that many
/// devices or threads at startup.
constexpr u64 kMaxThreadsFlag = 256;

void usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --port P             TCP port on 127.0.0.1 (default 7411; 0 = "
      "ephemeral)\n"
      "  --corpus N[,N...]    corpus sizes to generate and register; the\n"
      "                       list order defines wire corpus ids (default "
      "1048576)\n"
      "  --shards N           shard across N simulated devices (default 0 = "
      "single)\n"
      "  --executors N        executor threads per server (default 2)\n"
      "  --batch-max N        max queries per admission group (default 16)\n"
      "  --finishers N        response finisher threads (default 2)\n"
      "  --max-connections N  concurrent client cap (default 256)\n"
      "  --rate-qps R         per-client token-bucket rate, 0 = off\n"
      "  --burst B            token-bucket burst (default 16)\n"
      "  --quota N            per-client in-flight quota, 0 = off\n"
      "  --max-in-flight N    server-wide admission bound (default 48)\n"
      "  --safety F           admission estimate safety factor (default 1.5)\n"
      "  --seed S             corpus generator seed (default 7)\n",
      argv0);
}

/// Whole-string decimal parse of an unsigned flag value: rejects an empty,
/// signed, non-numeric or trailing-junk value and one above `max`.
template <class T>
bool parse_uint(std::string_view s, T& out,
                u64 max = std::numeric_limits<T>::max()) {
  u64 v = 0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || end != s.data() + s.size() || v > max) return false;
  out = static_cast<T>(v);
  return true;
}

/// Whole-string parse of a finite, non-negative floating-point flag value.
bool parse_double(std::string_view s, double& out) {
  double v = 0.0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || end != s.data() + s.size() || !std::isfinite(v) ||
      v < 0.0)
    return false;
  out = v;
  return true;
}

/// Comma-separated list of positive corpus sizes.
bool parse_sizes(std::string_view s, std::vector<u64>& out) {
  out.clear();
  for (;;) {
    const size_t comma = s.find(',');
    u64 v = 0;
    if (!parse_uint(s.substr(0, comma), v) || v == 0) return false;
    out.push_back(v);
    if (comma == std::string_view::npos) return true;
    s.remove_prefix(comma + 1);
  }
}

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    // Both "--flag value" and "--flag=value" are accepted (the benches use
    // the = form, so the examples in the docs do too).
    std::string inline_v;
    bool has_inline = false;
    if (const auto eq = a.find('='); eq != std::string::npos && a.rfind("--", 0) == 0) {
      inline_v = a.substr(eq + 1);
      a.resize(eq);
      has_inline = true;
    }
    auto next = [&]() -> const char* {
      if (has_inline) return inline_v.c_str();
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    bool ok = false;
    if (a == "--help" || a == "-h") return false;
    else if (a == "--port" && (v = next())) ok = parse_uint(v, o.port);
    else if (a == "--corpus" && (v = next())) ok = parse_sizes(v, o.corpus_sizes);
    else if (a == "--shards" && (v = next()))
      ok = parse_uint(v, o.shards, kMaxThreadsFlag);
    else if (a == "--executors" && (v = next()))
      ok = parse_uint(v, o.executors, kMaxThreadsFlag);
    else if (a == "--batch-max" && (v = next())) ok = parse_uint(v, o.batch_max);
    else if (a == "--finishers" && (v = next()))
      ok = parse_uint(v, o.finishers, kMaxThreadsFlag);
    else if (a == "--max-connections" && (v = next()))
      ok = parse_uint(v, o.max_connections);
    else if (a == "--rate-qps" && (v = next())) ok = parse_double(v, o.rate_qps);
    else if (a == "--burst" && (v = next())) ok = parse_double(v, o.burst);
    else if (a == "--quota" && (v = next())) ok = parse_uint(v, o.quota);
    else if (a == "--max-in-flight" && (v = next()))
      // The serving layer's bound is this plus 8, and must fit its u32.
      ok = parse_uint(v, o.max_in_flight,
                      std::numeric_limits<u32>::max() - u64{8});
    else if (a == "--safety" && (v = next())) ok = parse_double(v, o.safety);
    else if (a == "--seed" && (v = next())) ok = parse_uint(v, o.seed);
    if (!ok) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) {
    usage(argv[0]);
    return 2;
  }

  // Corpora live for the process lifetime; backends hold views.
  std::vector<vgpu::device_vector<u32>> corpora;
  corpora.reserve(opt.corpus_sizes.size());
  for (size_t i = 0; i < opt.corpus_sizes.size(); ++i)
    corpora.push_back(data::generate(opt.corpus_sizes[i],
                                     data::Distribution::kUniform,
                                     opt.seed + i));

  serve::ServerConfig scfg;
  scfg.executors = opt.executors;
  scfg.batch_max = opt.batch_max;
  // The net layer sheds (typed) at its own bound; the serving layer's
  // blocking bound sits above it so submit() never stalls the event loop.
  scfg.max_in_flight = static_cast<u32>(opt.max_in_flight + 8);

  // The daemon owns whichever engine was asked for; `backend` is the
  // NetServer-facing view of it.
  std::unique_ptr<vgpu::Device> dev;
  std::unique_ptr<serve::TopkServer> single;
  std::unique_ptr<serve::ShardedTopkServer> sharded;
  std::unique_ptr<net::Backend> backend;

  if (opt.shards == 0) {
    dev = std::make_unique<vgpu::Device>();
    single = std::make_unique<serve::TopkServer>(*dev, scfg);
    auto be = std::make_unique<net::SingleBackend>(*single);
    for (const auto& c : corpora)
      be->add_corpus(std::span<const u32>(c.data(), c.size()));
    backend = std::move(be);
  } else {
    serve::ShardedConfig shcfg;
    shcfg.num_shards = opt.shards;
    shcfg.shard = scfg;
    sharded = std::make_unique<serve::ShardedTopkServer>(shcfg);
    auto be = std::make_unique<net::ShardedBackend>(*sharded);
    for (const auto& c : corpora)
      be->add_corpus(std::span<const u32>(c.data(), c.size()));
    backend = std::move(be);
  }

  net::NetServerConfig ncfg;
  ncfg.port = opt.port;
  ncfg.finishers = opt.finishers;
  ncfg.max_connections = opt.max_connections;
  ncfg.client_rate_qps = opt.rate_qps;
  ncfg.client_burst = opt.burst;
  ncfg.client_quota = opt.quota;
  ncfg.admission.max_in_flight = opt.max_in_flight;
  ncfg.admission.safety = opt.safety;

  std::unique_ptr<net::NetServer> fd;
  try {
    fd = std::make_unique<net::NetServer>(*backend, ncfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "drtopk_serverd: %s\n", e.what());
    return 1;
  }

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  std::printf("drtopk_serverd listening on 127.0.0.1:%u (%s", fd->port(),
              opt.shards == 0 ? "single device"
                              : "sharded");
  if (opt.shards != 0) std::printf(" x%u", opt.shards);
  std::printf(")\n");
  for (size_t i = 0; i < corpora.size(); ++i)
    std::printf("  corpus %zu: n=%zu u32 uniform (seed %llu)\n", i,
                corpora[i].size(),
                static_cast<unsigned long long>(opt.seed + i));
  std::fflush(stdout);

  while (!g_stop) {
    struct timespec ts = {0, 200 * 1000 * 1000};
    nanosleep(&ts, nullptr);
  }

  std::printf("drtopk_serverd: draining...\n");
  fd->drain();
  fd->stop();
  backend->drain();
  std::printf("drtopk_serverd: bye\n");
  return 0;
}
