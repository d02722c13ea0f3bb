// Axis-aligned spatial shard partitioning (src/shard/ support).
//
// The simulation volume is split into S disjoint axis-aligned boxes of
// equal volume by recursive midpoint bisection, S a power of two. The split
// axis cycles x -> y -> z in the Morton bit-interleave order
// (spatial/morton.h), so the resulting shard sequence is the first log2(S)
// levels of the Z-order octree walk the agent-sorting path already uses --
// shard locality and in-shard Morton locality compose.
//
// Ownership is half-open: a shard owns positions with lower <= p < upper on
// every axis; the globally-last slab on each axis additionally owns its
// closed upper face, so every point of the global box has exactly one owner.
#ifndef BDM_SPATIAL_SHARD_PARTITION_H_
#define BDM_SPATIAL_SHARD_PARTITION_H_

#include <vector>

#include "math/real3.h"

namespace bdm::spatial {

struct ShardExtent {
  Real3 lower;
  Real3 upper;
};

/// Splits [lower, upper] into `num_shards` (a power of two, >= 1) boxes of
/// equal volume by recursive midpoint bisection.
std::vector<ShardExtent> UniformShardExtents(const Real3& lower,
                                             const Real3& upper,
                                             int num_shards);

/// Index of the shard owning `position` under the half-open ownership rule,
/// after clamping the position into the global box (agents may drift
/// slightly outside it; the nearest shard adopts them). Extents must tile a
/// box, as UniformShardExtents produces.
int LocateShard(const std::vector<ShardExtent>& extents,
                const Real3& position);

/// Distance from `position` to the box `extent` (0 when inside). The halo
/// scan uses this to find every shard whose boundary an agent is within one
/// interaction radius of -- face, edge, and corner neighbors fall out of the
/// same test.
real_t DistanceToExtent(const ShardExtent& extent, const Real3& position);

}  // namespace bdm::spatial

#endif  // BDM_SPATIAL_SHARD_PARTITION_H_
