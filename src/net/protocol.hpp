// Message types for the drtopk serving protocol (docs/SERVING.md).
//
// Every frame payload begins with one MsgType byte. Requests carry the
// client's latency budget (deadline_us) and its *fidelity floor*
// (recall_floor_bp): the server runs exact when the budget allows, degrades
// down to — never past — the floor when it does not, and sheds with a typed
// Status otherwise. Responses echo the request_id (responses to pipelined
// requests may arrive out of order: admission-shed rejections return
// immediately while admitted work completes later) and report the fidelity
// the answer was actually computed at, so a degraded client always knows
// what it got.
//
// Encoding is the little-endian Reader/Writer of net/framing.hpp; decode_*
// return false on any truncation, trailing garbage, or out-of-range enum —
// the caller answers kBadRequest without crashing (the fuzz tests in
// tests/test_net.cpp hammer exactly this contract).
#pragma once

#include <string>

#include "net/framing.hpp"

namespace drtopk::net {

/// First payload byte of every message.
enum class MsgType : u8 {
  kTopkRequest = 1,
  kTopkResponse = 2,
  kMetricsRequest = 3,   ///< ask for a Prometheus-text metrics snapshot
  kMetricsResponse = 4,
  kPing = 5,
  kPong = 6,
};

/// Response disposition. kOk/kDegraded carry an answer; the kShed* family
/// and kBadRequest/kError are typed rejections with no values.
enum class Status : u8 {
  kOk = 0,            ///< exact answer (or the client asked for nothing less)
  kDegraded = 1,      ///< answered at a reduced recall target >= the
                      ///< client's floor; see TopkResponse::fidelity_bp
  kShedOverload = 2,  ///< server-wide in-flight bound reached
  kShedDeadline = 3,  ///< even the degraded estimate exceeds the deadline
  kShedQuota = 4,     ///< per-client in-flight quota exceeded
  kShedRate = 5,      ///< per-client token bucket empty
  kBadRequest = 6,    ///< well-framed but undecodable/invalid request
  kError = 7,         ///< execution failed server-side
};

/// Exact fidelity in basis points — the sentinel for "no degradation
/// allowed" in TopkRequest::recall_floor_bp.
inline constexpr u32 kExactBp = 10000;

/// One top-k query over a server-registered corpus.
struct TopkRequest {
  u64 request_id = 0;   ///< echoed verbatim in the response
  u32 corpus = 0;       ///< server-side corpus id (registration is out of
                        ///< band: drtopk_serverd loads corpora at startup)
  u64 k = 1;
  u8 criterion = 0;     ///< data::Criterion, validated on decode
  u8 selection_only = 0;
  /// Fidelity floor in basis points: kExactBp (10000) = exact only;
  /// 5000..9999 = the server may degrade to FidelityPolicy::approx(bp/1e4)
  /// under deadline pressure. Values below the FidelityPolicy domain floor
  /// (0.5) are invalid.
  u32 recall_floor_bp = kExactBp;
  u64 deadline_us = 0;  ///< wall-clock latency budget; 0 = none
};

/// The answer (or typed rejection) to one TopkRequest.
struct TopkResponse {
  u64 request_id = 0;
  Status status = Status::kOk;
  /// Fidelity the answer was computed at, in basis points (kExactBp for
  /// exact). Honest reporting is load-bearing: a degraded client uses this
  /// to decide whether to re-query at leisure. Meaningless for sheds.
  u32 fidelity_bp = kExactBp;
  u64 kth = 0;               ///< the k-selection answer
  std::vector<u64> values;   ///< top-k best-first (empty for sheds and
                             ///< selection-only requests' value lists)
  u64 server_us = 0;         ///< admission-to-response wall time observed
                             ///< by the server (0 for pre-admission sheds)
};

/// Payload bytes of a TopkResponse ahead of its values: type, request id,
/// status, fidelity, kth, server_us and the value count.
inline constexpr u64 kTopkResponseFixedBytes = 34;

/// Most values one TopkResponse frame can carry (131,067): a request whose
/// answer lists more cannot be answered in one frame, so the server rejects
/// it with kBadRequest instead of sending a frame the client must drop.
inline constexpr u64 kMaxResponseValues =
    (kMaxFrame - kTopkResponseFixedBytes) / sizeof(u64);

/// Serializes a TopkRequest as one wire frame.
inline std::vector<u8> encode(const TopkRequest& r) {
  Writer w;
  w.u8_(static_cast<u8>(MsgType::kTopkRequest));
  w.u64_(r.request_id);
  w.u32_(r.corpus);
  w.u64_(r.k);
  w.u8_(r.criterion);
  w.u8_(r.selection_only);
  w.u32_(r.recall_floor_bp);
  w.u64_(r.deadline_us);
  return w.frame();
}

/// Serializes a TopkResponse (status, fidelity, kth, values) as one
/// wire frame.
inline std::vector<u8> encode(const TopkResponse& r) {
  Writer w;
  w.u8_(static_cast<u8>(MsgType::kTopkResponse));
  w.u64_(r.request_id);
  w.u8_(static_cast<u8>(r.status));
  w.u32_(r.fidelity_bp);
  w.u64_(r.kth);
  w.u64_(r.server_us);
  w.u32_(static_cast<u32>(r.values.size()));
  for (const u64 v : r.values) w.u64_(v);
  return w.frame();
}

/// The one-byte metrics-snapshot request.
inline std::vector<u8> encode_metrics_request() {
  Writer w;
  w.u8_(static_cast<u8>(MsgType::kMetricsRequest));
  return w.frame();
}

/// Wraps a Prometheus text snapshot as a kMetricsResponse frame.
inline std::vector<u8> encode_metrics_response(const std::string& text) {
  Writer w;
  w.u8_(static_cast<u8>(MsgType::kMetricsResponse));
  w.u32_(static_cast<u32>(text.size()));
  w.bytes({reinterpret_cast<const u8*>(text.data()), text.size()});
  return w.frame();
}

/// Liveness probe; the server answers encode_pong().
inline std::vector<u8> encode_ping() {
  Writer w;
  w.u8_(static_cast<u8>(MsgType::kPing));
  return w.frame();
}

/// The ping answer.
inline std::vector<u8> encode_pong() {
  Writer w;
  w.u8_(static_cast<u8>(MsgType::kPong));
  return w.frame();
}

/// Message type of a payload, without consuming it. nullopt on empty.
inline std::optional<MsgType> peek_type(std::span<const u8> payload) {
  if (payload.empty()) return std::nullopt;
  const u8 t = payload[0];
  if (t < static_cast<u8>(MsgType::kTopkRequest) ||
      t > static_cast<u8>(MsgType::kPong))
    return std::nullopt;
  return static_cast<MsgType>(t);
}

/// Decodes a TopkRequest payload. False on truncation, trailing bytes, or
/// any out-of-domain field — the transport answers kBadRequest. Semantic
/// validation against the actual corpus (does it exist, k <= n) is the
/// server's job; this is pure wire-format hygiene.
inline bool decode(std::span<const u8> payload, TopkRequest& out) {
  Reader r(payload);
  u8 type = 0;
  if (!r.u8_(type) || type != static_cast<u8>(MsgType::kTopkRequest))
    return false;
  if (!r.u64_(out.request_id) || !r.u32_(out.corpus) || !r.u64_(out.k) ||
      !r.u8_(out.criterion) || !r.u8_(out.selection_only) ||
      !r.u32_(out.recall_floor_bp) || !r.u64_(out.deadline_us))
    return false;
  if (r.remaining() != 0) return false;
  if (out.k == 0) return false;
  if (out.criterion > 1) return false;  // data::Criterion: kLargest/kSmallest
  if (out.selection_only > 1) return false;
  // The floor is either "exact only" or inside FidelityPolicy's domain.
  if (out.recall_floor_bp != kExactBp &&
      (out.recall_floor_bp < 5000 || out.recall_floor_bp >= kExactBp))
    return false;
  return true;
}

/// Decodes a TopkResponse payload; false on truncation, a bad status
/// byte, or a value count that disagrees with the payload length.
inline bool decode(std::span<const u8> payload, TopkResponse& out) {
  Reader r(payload);
  u8 type = 0, status = 0;
  u32 count = 0;
  if (!r.u8_(type) || type != static_cast<u8>(MsgType::kTopkResponse))
    return false;
  if (!r.u64_(out.request_id) || !r.u8_(status) || !r.u32_(out.fidelity_bp) ||
      !r.u64_(out.kth) || !r.u64_(out.server_us) || !r.u32_(count))
    return false;
  if (status > static_cast<u8>(Status::kError)) return false;
  out.status = static_cast<Status>(status);
  if (r.remaining() != static_cast<size_t>(count) * 8) return false;
  out.values.resize(count);
  for (u32 i = 0; i < count; ++i)
    if (!r.u64_(out.values[i])) return false;
  return true;
}

/// Decodes a kMetricsResponse payload into its Prometheus text.
inline bool decode_metrics_response(std::span<const u8> payload,
                                    std::string& out) {
  Reader r(payload);
  u8 type = 0;
  u32 len = 0;
  if (!r.u8_(type) || type != static_cast<u8>(MsgType::kMetricsResponse))
    return false;
  if (!r.u32_(len) || r.remaining() != len) return false;
  out.resize(len);
  return r.bytes({reinterpret_cast<u8*>(out.data()), out.size()});
}

}  // namespace drtopk::net
