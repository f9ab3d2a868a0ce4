// Typed query/result objects for the top-k serving engine.
//
// A Query either *views* server-resident data (the common serving shape:
// many queries against one corpus — these are what admission batching can
// fuse into a single delegate-construction pass) or *owns* its payload
// (ad-hoc data shipped with the request).
//
// Sharing contract: a viewed buffer must stay unchanged while any query
// over it is in flight. Admission fuses queries by buffer identity, and
// one setup builds the delegate vector and the candidate set that every
// member of a group and of its siblings answers from — possibly from a
// snapshot taken before a later member was even submitted — so a write to
// the buffer in between would hand those members answers over stale
// data. Key widths u32/u64 are supported;
// the criterion and selection-only flag mirror DrTopkConfig's semantics.
//
// Fidelity: every query carries a core::FidelityPolicy. The default is
// exact; Query::approx-constructed policies request the recall-target mode
// and flow through the whole path (group signature, PlanKey,
// core config) — see core/fidelity.hpp for the execution model.
#pragma once

#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "core/dr_topk.hpp"
#include "data/key_traits.hpp"

namespace drtopk::serve {

/// Key width of a query's payload; part of the admission-group signature.
enum class KeyWidth : u8 { k32, k64 };

/// One top-k request: k, criterion, selection-only flag, fidelity policy
/// and a payload that either views server-resident data or owns a shipped
/// buffer (see the file comment). Cheaply copyable; construct via the
/// factories.
struct Query {
  u64 k = 1;
  data::Criterion criterion = data::Criterion::kLargest;
  bool selection_only = false;  ///< k-selection: only the k-th value needed
  core::FidelityPolicy fidelity;  ///< exact (default) or recall target

  // Exactly one payload is set (enforced by the factories below). Owned
  // buffers sit behind shared_ptr so Query stays cheaply copyable.
  std::span<const u32> view32;
  std::span<const u64> view64;
  std::shared_ptr<const std::vector<u32>> own32;
  std::shared_ptr<const std::vector<u64>> own64;

  /// One factory per (payload kind × key width), expressed once: K selects
  /// the width, the payload type selects view (span) vs owned (vector). A
  /// viewed buffer stays unchanged while any query over it is in flight
  /// (see the file comment).
  template <class K>
  static Query view(std::span<const K> v, u64 k,
                    data::Criterion c = data::Criterion::kLargest,
                    bool selection_only = false,
                    core::FidelityPolicy fidelity = {}) {
    static_assert(std::is_same_v<K, u32> || std::is_same_v<K, u64>);
    Query q = common(k, c, selection_only, fidelity);
    if constexpr (std::is_same_v<K, u32>) q.view32 = v;
    else q.view64 = v;
    return q;
  }
  template <class K>
  static Query owned(std::vector<K> v, u64 k,
                     data::Criterion c = data::Criterion::kLargest,
                     bool selection_only = false,
                     core::FidelityPolicy fidelity = {}) {
    static_assert(std::is_same_v<K, u32> || std::is_same_v<K, u64>);
    Query q = common(k, c, selection_only, fidelity);
    auto owned = std::make_shared<const std::vector<K>>(std::move(v));
    if constexpr (std::is_same_v<K, u32>) q.own32 = std::move(owned);
    else q.own64 = std::move(owned);
    return q;
  }

  /// Fluent fidelity override: `Query::view(v, k).with_recall(0.9)`.
  Query with_recall(double rho) && {
    fidelity = core::FidelityPolicy::approx(rho);
    return std::move(*this);
  }

  KeyWidth width() const {
    return (own64 || !view64.empty()) ? KeyWidth::k64 : KeyWidth::k32;
  }
  std::span<const u32> data32() const {
    return own32 ? std::span<const u32>(own32->data(), own32->size())
                 : view32;
  }
  std::span<const u64> data64() const {
    return own64 ? std::span<const u64>(own64->data(), own64->size())
                 : view64;
  }
  u64 n() const {
    return width() == KeyWidth::k64 ? data64().size() : data32().size();
  }
  /// Identity of the underlying buffer — the admission scheduler fuses
  /// queries whose data_id/n/width/criterion/fidelity all match into one
  /// group that shares a single delegate-construction pass.
  const void* data_id() const {
    return width() == KeyWidth::k64
               ? static_cast<const void*>(data64().data())
               : static_cast<const void*>(data32().data());
  }

 private:
  static Query common(u64 k, data::Criterion c, bool selection_only,
                      core::FidelityPolicy fidelity) {
    Query q;
    q.k = k;
    q.criterion = c;
    q.selection_only = selection_only;
    q.fidelity = fidelity;
    return q;
  }
};

/// The answer to one Query: top-k values (widened to u64; exact fidelity
/// guarantees the true multiset, a recall target guarantees it in
/// expectation), the k-th value, and per-query accounting (simulated
/// latency including amortized shares of group-shared work, stage
/// breakdown, cache/fusion flags).
struct QueryResult {
  u64 id = 0;                ///< server-assigned, monotonically increasing
  std::vector<u64> values;   ///< top-k, best-first, widened to u64
                             ///< (selection-only: just the k-th value)
  u64 kth = 0;               ///< the k-selection answer
  double latency_sim_ms = 0; ///< modeled GPU latency of this query: its
                             ///< stages 2-4 plus an amortized share of the
                             ///< group's shared construction pass
  double wall_ms = 0;        ///< host wall-clock from admission to finish
  u64 queue_us = 0;          ///< wall-clock microseconds spent queued before
                             ///< an executor claimed the query — wall_ms
                             ///< minus this is the service component, the
                             ///< quantity deadline admission estimates from
  core::StageBreakdown breakdown;
  bool plan_cache_hit = false;
  bool fused = false;        ///< delegate construction was shared with
                             ///< other queries of its admission group
};

}  // namespace drtopk::serve
