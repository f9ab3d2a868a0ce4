// Reduction-topology helpers for the distributed pipeline.
//
// `dist::multi_gpu_topk` (Section 5.4's multi-GPU reduction) reduces
// per-participant winner lists at a primary, optionally through a
// node-leader pre-merge: participants are packed `group_size` per node,
// the first rank of each node merges its members' lists, and only leaders
// talk to the primary. Keeping the rank arithmetic here — instead of
// inlined at each call site — lets tests assert the topology in one place.
#pragma once

#include <algorithm>

#include "vgpu/types.hpp"

namespace drtopk::dist {

/// The leader of `rank`'s group: ranks are packed `group_size` per group
/// and the group's first rank pre-merges its members' winner lists.
/// group_size == 0 degenerates to one global group led by rank 0.
inline u32 group_leader(u32 rank, u32 group_size) {
  return group_size == 0 ? 0u : (rank / group_size) * group_size;
}

/// True when `rank` pre-merges for its group.
inline bool is_group_leader(u32 rank, u32 group_size) {
  return group_leader(rank, group_size) == rank;
}

/// One past the last member rank of the group led by `leader` (clamped to
/// the participant count — the last group may be ragged).
inline u32 group_end(u32 leader, u32 group_size, u32 count) {
  if (group_size == 0) return count;
  return std::min(leader + group_size, count);
}

/// Number of leader groups over `count` participants (the primary's fan-in
/// under a hierarchical reduction).
inline u32 group_count(u32 count, u32 group_size) {
  if (count == 0) return 0;
  if (group_size == 0) return 1;
  return (count + group_size - 1) / group_size;
}

/// The pre-merge only pays for itself past one group: with
/// count <= group_size the "pre-merge" would BE the whole reduction.
inline bool hierarchy_engages(u32 count, u32 group_size) {
  return group_size > 0 && count > group_size;
}

/// Messages the primary receives in the final reduction: #participants - 1
/// flat, #groups - 1 once the hierarchy engages. This is the quantity the
/// topology tests pin (`MultiGpuResult::primary_messages`).
inline u64 primary_messages(u32 count, u32 group_size, bool hierarchical) {
  if (count == 0) return 0;
  if (hierarchical && hierarchy_engages(count, group_size))
    return group_count(count, group_size) - 1;
  return count - 1;
}

}  // namespace drtopk::dist
