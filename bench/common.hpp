// Shared harness for the per-figure/table benchmark binaries.
//
// Every binary reproduces one table or figure of the paper: same series,
// same parameter sweeps, scaled sizes (the simulator runs ~10-20x slower
// than native CUDA, so defaults use |V| = 2^22 instead of 2^30; pass
// --logn=N to change, --full for denser sweeps). Times printed are
// *simulated V100S milliseconds* from the roofline cost model — shapes are
// comparable to the paper, absolute values are a model (see EXPERIMENTS.md).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/dr_topk.hpp"
#include "data/datasets.hpp"
#include "data/distributions.hpp"
#include "topk/topk.hpp"

namespace drtopk::bench {

struct Args {
  u64 logn = 22;       ///< log2 |V| (paper: 30)
  bool logn_set = false;  ///< true when --logn was given explicitly
  u64 seed = 42;
  bool full = false;   ///< denser sweeps (paper granularity)
  int kmin = 0;
  int kmax = -1;       ///< default: logn - 6
  int kstep = 4;       ///< log-step between k values (1 when --full)
  std::string json;    ///< machine-readable report path ("" = bench default)

  static Args parse(int argc, char** argv) {
    Args a;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto val = [&](const char* prefix) -> const char* {
        const size_t len = std::strlen(prefix);
        return arg.rfind(prefix, 0) == 0 ? arg.c_str() + len : nullptr;
      };
      if (const char* v = val("--logn=")) {
        a.logn = std::strtoull(v, nullptr, 10);
        a.logn_set = true;
      }
      else if (const char* v2 = val("--seed=")) a.seed = std::strtoull(v2, nullptr, 10);
      else if (arg == "--full") a.full = true;
      else if (const char* v3 = val("--kmin=")) a.kmin = std::atoi(v3);
      else if (const char* v4 = val("--kmax=")) a.kmax = std::atoi(v4);
      else if (const char* v5 = val("--kstep=")) a.kstep = std::atoi(v5);
      else if (const char* v6 = val("--json=")) a.json = v6;
      else if (arg == "--help" || arg == "-h") {
        std::printf("usage: [--logn=N] [--seed=S] [--full] [--kmin=A]"
                    " [--kmax=B] [--kstep=C] [--json=PATH]\n");
        std::exit(0);
      }
    }
    if (a.full) a.kstep = 1;
    return a;
  }

  /// Applies a bench-specific default size (ignored if --logn was given),
  /// then finalizes the k sweep bounds.
  void default_logn(u64 logn_default) {
    if (!logn_set) logn = logn_default;
    if (kmax < 0) kmax = static_cast<int>(logn) - 6;
  }

  u64 n() const { return u64{1} << logn; }

  /// k = 2^kmin, 2^(kmin+kstep), ..., 2^kmax (capped at n/4 so delegation
  /// stays feasible, as in the paper's sweeps).
  std::vector<u64> k_sweep() const {
    std::vector<u64> ks;
    for (int e = kmin; e <= kmax; e += kstep) {
      const u64 k = u64{1} << e;
      if (k * 4 <= n()) ks.push_back(k);
    }
    return ks;
  }
};

// ---------------------------------------------------------------------------
// Machine-readable reports: a minimal JSON value builder plus a section
// writer, so the perf trajectory is tracked in a file (BENCH_PR2.json)
// instead of scrollback. Several benches share one report file — each owns
// a top-level section and write_json_section() read-modify-writes only its
// own, preserving what the other binaries recorded.
// ---------------------------------------------------------------------------

class Json {
 public:
  static Json object() { return Json(Kind::kObject); }
  static Json array() { return Json(Kind::kArray); }

  Json& set(const std::string& key, Json v) {
    members_.emplace_back(key, std::move(v));
    return *this;
  }
  Json& set(const std::string& key, double v) {
    Json j(Kind::kNumber);
    j.num_ = v;
    return set(key, std::move(j));
  }
  Json& set(const std::string& key, u64 v) {
    Json j(Kind::kInteger);
    j.int_ = v;
    return set(key, std::move(j));
  }
  Json& set(const std::string& key, i64 v) {
    Json j(Kind::kSigned);
    j.sint_ = v;
    return set(key, std::move(j));
  }
  Json& set(const std::string& key, int v) {
    return set(key, static_cast<i64>(v));
  }
  Json& set(const std::string& key, bool v) {
    Json j(Kind::kBool);
    j.bool_ = v;
    return set(key, std::move(j));
  }
  Json& set(const std::string& key, const char* v) {
    return set(key, std::string(v));
  }
  Json& set(const std::string& key, const std::string& v) {
    Json j(Kind::kString);
    j.str_ = v;
    return set(key, std::move(j));
  }
  Json& push(Json v) {
    items_.push_back(std::move(v));
    return *this;
  }

  static std::string escape_string(const std::string& s) { return escape(s); }

  std::string dump(int level = 0) const {
    std::ostringstream os;
    const std::string pad(2 * static_cast<size_t>(level), ' ');
    const std::string inner(2 * static_cast<size_t>(level + 1), ' ');
    switch (kind_) {
      case Kind::kObject: {
        if (members_.empty()) return "{}";
        os << "{\n";
        for (size_t i = 0; i < members_.size(); ++i) {
          os << inner << '"' << escape(members_[i].first)
             << "\": " << members_[i].second.dump(level + 1);
          if (i + 1 < members_.size()) os << ',';
          os << '\n';
        }
        os << pad << '}';
        break;
      }
      case Kind::kArray: {
        if (items_.empty()) return "[]";
        os << "[\n";
        for (size_t i = 0; i < items_.size(); ++i) {
          os << inner << items_[i].dump(level + 1);
          if (i + 1 < items_.size()) os << ',';
          os << '\n';
        }
        os << pad << ']';
        break;
      }
      case Kind::kNumber: {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.6g", num_);
        os << buf;
        break;
      }
      case Kind::kInteger:
        os << int_;
        break;
      case Kind::kSigned:
        os << sint_;
        break;
      case Kind::kString:
        os << '"' << escape(str_) << '"';
        break;
      case Kind::kBool:
        os << (bool_ ? "true" : "false");
        break;
    }
    return os.str();
  }

 private:
  enum class Kind { kObject, kArray, kNumber, kInteger, kSigned, kString,
                    kBool };
  explicit Json(Kind k) : kind_(k) {}

  static std::string escape(const std::string& s) {
    std::string out;
    for (char c : s) {
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        case '\r': out += "\\r"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x",
                          static_cast<unsigned>(static_cast<unsigned char>(c)));
            out += buf;
          } else {
            out.push_back(c);
          }
      }
    }
    return out;
  }

  Kind kind_;
  std::vector<std::pair<std::string, Json>> members_;
  std::vector<Json> items_;
  double num_ = 0.0;
  u64 int_ = 0;
  i64 sint_ = 0;
  std::string str_;
  bool bool_ = false;
};

/// Splits the top level of a JSON object file into (key, raw-body) pairs.
/// Tolerant scanner: bracket/brace matching that respects strings; a file
/// that does not parse yields an empty list (the writer starts fresh).
inline std::vector<std::pair<std::string, std::string>> json_top_sections(
    const std::string& text) {
  std::vector<std::pair<std::string, std::string>> out;
  size_t i = text.find('{');
  if (i == std::string::npos) return out;
  ++i;
  const auto skip_ws = [&] {
    while (i < text.size() &&
           (text[i] == ' ' || text[i] == '\n' || text[i] == '\t' ||
            text[i] == '\r' || text[i] == ','))
      ++i;
  };
  for (;;) {
    skip_ws();
    if (i >= text.size() || text[i] == '}') return out;
    if (text[i] != '"') return {};
    ++i;
    // Keys are captured RAW (escapes preserved verbatim) so the rewrite
    // emits them unchanged; lookups by plain ASCII section names are
    // unaffected.
    std::string key;
    while (i < text.size() && text[i] != '"') {
      if (text[i] == '\\' && i + 1 < text.size()) key.push_back(text[i++]);
      key.push_back(text[i++]);
    }
    if (i >= text.size()) return {};
    ++i;  // closing quote
    skip_ws();
    if (i >= text.size() || text[i] != ':') return {};
    ++i;
    skip_ws();
    // Capture the value by depth matching.
    const size_t start = i;
    int depth = 0;
    bool in_str = false;
    for (; i < text.size(); ++i) {
      const char c = text[i];
      if (in_str) {
        if (c == '\\') ++i;
        else if (c == '"') in_str = false;
        continue;
      }
      if (c == '"') in_str = true;
      else if (c == '{' || c == '[') ++depth;
      else if (c == '}' || c == ']') {
        if (depth == 0) break;  // object's closing brace
        --depth;
      } else if (c == ',' && depth == 0) {
        break;
      }
    }
    out.emplace_back(key, text.substr(start, i - start));
  }
}

/// Read-modify-writes one top-level section of a shared JSON report file.
inline void write_json_section(const std::string& path,
                               const std::string& section,
                               const Json& value) {
  std::string existing;
  {
    std::ifstream in(path);
    if (in) {
      std::ostringstream ss;
      ss << in.rdbuf();
      existing = ss.str();
    }
  }
  auto sections = json_top_sections(existing);
  const std::string body = value.dump(1);
  bool replaced = false;
  for (auto& [key, raw] : sections) {
    if (key == section) {
      raw = body;
      replaced = true;
    }
  }
  if (!replaced) sections.emplace_back(Json::escape_string(section), body);

  std::ofstream out(path, std::ios::trunc);
  out << "{\n";
  for (size_t i = 0; i < sections.size(); ++i) {
    out << "  \"" << sections[i].first << "\": " << sections[i].second;
    if (i + 1 < sections.size()) out << ',';
    out << '\n';
  }
  out << "}\n";
  std::printf("[json] wrote section \"%s\" to %s\n", section.c_str(),
              path.c_str());
}

/// Per-stage kernel-launch breakdown of a measured serving run, as a JSON
/// object: raw launch counts plus launches/query per stage, so an lpq
/// regression in a report is attributable to the stage that caused it
/// (ROADMAP item 1) instead of hiding in one aggregate number.
inline Json launch_breakdown(u64 queries, u64 construct, u64 first,
                             u64 concat, u64 second, u64 finalize) {
  const auto per_query = [&](u64 c) {
    return queries ? static_cast<double>(c) / static_cast<double>(queries)
                   : 0.0;
  };
  Json o = Json::object();
  o.set("queries", queries);
  o.set("construct_launches", construct);
  o.set("first_launches", first);
  o.set("concat_launches", concat);
  o.set("second_launches", second);
  o.set("finalize_launches", finalize);
  o.set("construct_lpq", per_query(construct));
  o.set("first_lpq", per_query(first));
  o.set("concat_lpq", per_query(concat));
  o.set("second_lpq", per_query(second));
  return o;
}

/// Banner naming the figure, |V|, the seed and the clock its times are on.
inline void print_title(const char* id, const char* what, const Args& a,
                        const char* clock = "simulated V100S ms") {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", id, what);
  std::printf("|V| = 2^%llu, seed = %llu, times = %s\n",
              static_cast<unsigned long long>(a.logn),
              static_cast<unsigned long long>(a.seed), clock);
  std::printf("==============================================================\n");
}

/// Stage-breakdown table shared by the Figure 6/7/10/15 binaries. The
/// optional per-row hook receives each k's breakdown and result, letting a
/// bench collect machine-readable rows from the same sweep it prints.
inline void print_breakdown(
    vgpu::Device& dev, std::span<const u32> v,
    const core::DrTopkConfig& base, const std::vector<u64>& ks,
    const std::function<void(u64, const core::StageBreakdown&,
                             const topk::TopkResult<u32>&)>& per_row = {}) {
  std::printf("%-10s %5s %10s %10s %10s %10s %10s %12s %12s\n", "k", "alpha",
              "construct", "first", "concat", "second", "total", "|D|",
              "|concat|");
  for (u64 k : ks) {
    core::StageBreakdown bd;
    auto r = core::dr_topk_keys<u32>(dev, v, k, base, &bd);
    std::printf("2^%-8d %5d %10.3f %10.3f %10.3f %10.3f %10.3f %12llu %12llu\n",
                static_cast<int>(std::bit_width(k)) - 1, bd.alpha,
                bd.construct_ms, bd.first_ms, bd.concat_ms, bd.second_ms,
                bd.total_ms(),
                static_cast<unsigned long long>(bd.delegate_len),
                static_cast<unsigned long long>(bd.concat_len));
    if (per_row) per_row(k, bd, r);
  }
}

/// Simulated time of a baseline engine (input copied internally where the
/// engine is destructive).
inline double baseline_ms(vgpu::Device& dev, std::span<const u32> v, u64 k,
                          topk::Algo algo) {
  return topk::run_topk_keys<u32>(dev, v, k, algo).sim_ms;
}

/// Dr. Top-k assisted variant of a baseline: the first/second top-k run the
/// baseline's algorithm family, as in Figures 17-19.
inline core::DrTopkConfig assisted_config(topk::Algo family) {
  core::DrTopkConfig cfg;
  switch (family) {
    case topk::Algo::kRadixGgksOop:
    case topk::Algo::kRadixGgksInplace:
    case topk::Algo::kRadixFlag:
      // "they prefer in-place designs" (Section 5.1): the optimized
      // flag-based in-place radix is Dr. Top-k's default.
      cfg.first_algo = topk::Algo::kRadixFlag;
      cfg.second_algo = topk::Algo::kRadixFlag;
      break;
    case topk::Algo::kBucketInplace:
    case topk::Algo::kBucketOop:
    case topk::Algo::kBucketGgksInplace:
      cfg.first_algo = topk::Algo::kBucketInplace;
      cfg.second_algo = topk::Algo::kBucketInplace;
      break;
    case topk::Algo::kBitonic:
      cfg.first_algo = topk::Algo::kRadixFlag;  // first top-k needs (key,sid)
      cfg.second_algo = topk::Algo::kBitonic;
      break;
    case topk::Algo::kSortAndChoose:
      cfg.second_algo = topk::Algo::kSortAndChoose;
      break;
    case topk::Algo::kHeap:
      break;  // a host-side baseline: no device engine family to borrow
  }
  return cfg;
}

}  // namespace drtopk::bench
