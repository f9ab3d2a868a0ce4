#include "core/dr_topk.hpp"

namespace drtopk::core {

// The pipeline itself is header-only (templates over the key type). This
// translation unit anchors the library and provides explicit instantiations
// for the common key widths so client code links fast.
template topk::TopkResult<u32> dr_topk_keys<u32>(vgpu::Device&,
                                                 std::span<const u32>, u64,
                                                 const DrTopkConfig&,
                                                 StageBreakdown*,
                                                 vgpu::Workspace&);
template topk::TopkResult<u64> dr_topk_keys<u64>(vgpu::Device&,
                                                 std::span<const u64>, u64,
                                                 const DrTopkConfig&,
                                                 StageBreakdown*,
                                                 vgpu::Workspace&);
template topk::TopkResult<u32> dr_topk_from_delegates<u32>(
    vgpu::Device&, std::span<const u32>, u64, const DelegateVector<u32>&,
    const DrTopkConfig&, StageBreakdown*, vgpu::Workspace&);
template topk::TopkResult<u64> dr_topk_from_delegates<u64>(
    vgpu::Device&, std::span<const u64>, u64, const DelegateVector<u64>&,
    const DrTopkConfig&, StageBreakdown*, vgpu::Workspace&);

}  // namespace drtopk::core
