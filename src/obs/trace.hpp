// Per-query tracing: spans covering the full life of a served query —
// enqueue, queue wait, group formation, phase-A (shared delegate
// construction), deferred park, batched finalize, fan-out —
// recorded into lock-cheap per-lane ring buffers and
// exportable as Chrome `trace_event` JSON (load the file at
// chrome://tracing or https://ui.perfetto.dev).
//
// Each executor owns one lane (one extra lane serves the submit path), so
// the per-lane mutex is effectively uncontended; a record is a clock read
// plus a ring store. Rings are pre-reserved at construction — steady-state
// tracing allocates nothing, which the CI allocation gate relies on. When
// a ring wraps, the oldest spans are overwritten and counted as dropped.
#pragma once

#include <chrono>
#include <deque>
#include <fstream>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "vgpu/types.hpp"

namespace drtopk::obs {

/// One trace event. `name` must point at a string with static storage
/// duration (span names are a fixed taxonomy, see docs/OBSERVABILITY.md).
/// A span with `instant == true` is a point event (`dur_us` ignored).
struct Span {
  const char* name = "";
  u64 query = 0;   ///< query id (0 when the span is not query-scoped)
  u64 group = 0;   ///< admission-group sequence number (0 when n/a)
  u64 ts_us = 0;   ///< start, microseconds since tracer epoch
  u64 dur_us = 0;  ///< duration in microseconds (complete spans only)
  bool instant = false;
  std::string detail;  ///< free text (e.g. a caught exception's message);
                       ///< empty on every steady-state span
};

/// Ring-buffered trace recorder. Disabled tracers make every record call a
/// single branch; enabled tracers write into per-lane rings sized at
/// construction. Lane 0 is reserved for the submit/admission path; lane
/// `1 + executor_id` belongs to that executor.
class Tracer {
 public:
  /// `lanes` = executor count + 1 (submit lane). `capacity` is spans per
  /// lane; 0 capacity or 0 lanes leaves the tracer disabled.
  Tracer(bool enabled, u32 lanes, u64 capacity_per_lane)
      : enabled_(enabled && lanes > 0 && capacity_per_lane > 0),
        capacity_(capacity_per_lane),
        epoch_(std::chrono::steady_clock::now()) {
    if (!enabled_) return;
    for (u32 i = 0; i < lanes; ++i) {
      lanes_.emplace_back();
      lanes_.back().ring.reserve(capacity_);
    }
  }

  bool enabled() const { return enabled_; }
  u32 lane_count() const { return static_cast<u32>(lanes_.size()); }

  /// Microseconds since tracer construction (the trace timebase).
  u64 now_us() const {
    return static_cast<u64>(std::chrono::duration_cast<std::chrono::microseconds>(
                                std::chrono::steady_clock::now() - epoch_)
                                .count());
  }

  /// Records a complete span [start_us, end_us) on `lane`.
  void complete(u32 lane, const char* name, u64 query, u64 group, u64 start_us,
                u64 end_us) {
    if (!enabled_) return;
    Span s;
    s.name = name;
    s.query = query;
    s.group = group;
    s.ts_us = start_us;
    s.dur_us = end_us >= start_us ? end_us - start_us : 0;
    push(lane, s);
  }

  /// Records an instant (point) event on `lane` stamped with now(),
  /// optionally carrying free-text `detail` (exported as args.detail).
  void instant(u32 lane, const char* name, u64 query, u64 group,
               std::string detail = {}) {
    if (!enabled_) return;
    Span s;
    s.name = name;
    s.query = query;
    s.group = group;
    s.ts_us = now_us();
    s.instant = true;
    s.detail = std::move(detail);
    push(lane, s);
  }

  /// Spans recorded so far, in (lane, recording) order with each lane's
  /// ring unrolled oldest-first. Safe to call while recording continues.
  std::vector<std::pair<u32, Span>> snapshot() const {
    std::vector<std::pair<u32, Span>> out;
    for (u32 li = 0; li < lanes_.size(); ++li) {
      const Lane& lane = lanes_[li];
      std::lock_guard lk(lane.mu);
      const u64 n = lane.ring.size();
      // When the ring wrapped, `head` points at the oldest entry.
      const u64 start = n < capacity_ ? 0 : lane.head;
      for (u64 i = 0; i < n; ++i)
        out.emplace_back(li, lane.ring[(start + i) % n]);
    }
    return out;
  }

  /// Total spans overwritten by ring wrap-around across all lanes.
  u64 dropped() const {
    u64 d = 0;
    for (const Lane& lane : lanes_) {
      std::lock_guard lk(lane.mu);
      d += lane.dropped;
    }
    return d;
  }

  /// Writes this tracer's lanes as Chrome `trace_event` events (no JSON
  /// envelope) under `pid`, prefixed with thread_name metadata. `lead`
  /// suppresses the comma before the first event; returns false when at
  /// least one event was written (i.e. the next writer must lead with a
  /// comma). Building block for export_chrome / export_chrome_multi.
  bool export_chrome_events(std::ostream& os, u32 pid, bool lead) const {
    auto sep = [&]() {
      if (!lead) os << ",";
      lead = false;
    };
    for (u32 li = 0; li < lanes_.size(); ++li) {
      sep();
      os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << pid
         << ",\"tid\":" << li << ",\"args\":{\"name\":\""
         << (li == 0 ? "submit" : "executor-" + std::to_string(li - 1))
         << "\"}}";
    }
    for (const auto& [lane, s] : snapshot()) {
      sep();
      os << "{\"name\":\"" << s.name << "\",\"cat\":\"serve\",\"ph\":\""
         << (s.instant ? "i" : "X") << "\",\"ts\":" << s.ts_us;
      if (!s.instant) os << ",\"dur\":" << s.dur_us;
      os << ",\"pid\":" << pid << ",\"tid\":" << lane;
      if (s.instant) os << ",\"s\":\"t\"";
      os << ",\"args\":{\"query\":" << s.query << ",\"group\":" << s.group;
      if (!s.detail.empty()) {
        os << ",\"detail\":\"";
        for (const char c : s.detail) {
          if (c == '"' || c == '\\') os << '\\' << c;
          else if (static_cast<unsigned char>(c) >= 0x20) os << c;
        }
        os << '"';
      }
      os << "}}";
    }
    return lead;
  }

  /// Writes the whole trace as Chrome `trace_event` JSON. `pid` is fixed;
  /// `tid` is the lane (0 = submit path, 1 + e = executor e). Complete
  /// spans become "ph":"X" events, instants "ph":"i" with thread scope.
  void export_chrome(std::ostream& os) const {
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    export_chrome_events(os, 1, /*lead=*/true);
    os << "]}\n";
  }

  /// export_chrome() to a file; returns false when the file can't open.
  bool export_chrome_file(const std::string& path) const {
    std::ofstream f(path);
    if (!f) return false;
    export_chrome(f);
    return true;
  }

 private:
  struct Lane {
    mutable std::mutex mu;
    std::vector<Span> ring;  ///< reserve()d once; grows to capacity, no more
    u64 head = 0;            ///< next write slot once the ring is full
    u64 dropped = 0;
  };

  void push(u32 lane_idx, const Span& s) {
    if (lane_idx >= lanes_.size()) lane_idx = 0;
    Lane& lane = lanes_[lane_idx];
    std::lock_guard lk(lane.mu);
    if (lane.ring.size() < capacity_) {
      lane.ring.push_back(s);
    } else {
      lane.ring[lane.head] = s;
      lane.head = (lane.head + 1) % capacity_;
      ++lane.dropped;
    }
  }

  bool enabled_;
  u64 capacity_;
  std::chrono::steady_clock::time_point epoch_;
  std::deque<Lane> lanes_;  ///< deque: Lane holds a mutex, addresses stable
};

/// Merges several tracers into ONE Chrome trace: each (label, tracer) pair
/// becomes its own process (pid = index + 1, named via process_name
/// metadata) with its lanes as that process's threads. This is how a
/// sharded server exports a unified timeline — one process row per shard,
/// executors nested under it — without the tracers ever sharing state.
inline void export_chrome_multi(
    std::ostream& os,
    const std::vector<std::pair<std::string, const Tracer*>>& tracers) {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool lead = true;
  for (u32 i = 0; i < tracers.size(); ++i) {
    const u32 pid = i + 1;
    if (!lead) os << ",";
    lead = false;
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
       << ",\"tid\":0,\"args\":{\"name\":\"" << tracers[i].first << "\"}}";
    if (tracers[i].second)
      tracers[i].second->export_chrome_events(os, pid, /*lead=*/false);
  }
  os << "]}\n";
}

}  // namespace drtopk::obs
