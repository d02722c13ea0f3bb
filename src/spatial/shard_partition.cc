#include "spatial/shard_partition.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace bdm::spatial {

namespace {

int SplitAxis(int depth) { return depth % 3; }  // Morton interleave order

real_t Component(const Real3& v, int axis) {
  return axis == 0 ? v.x : axis == 1 ? v.y : v.z;
}

void SetComponent(Real3* v, int axis, real_t value) {
  (axis == 0 ? v->x : axis == 1 ? v->y : v->z) = value;
}

void BisectUniform(const ShardExtent& node, int levels, int depth,
                   std::vector<ShardExtent>* out) {
  if (levels == 0) {
    out->push_back(node);
    return;
  }
  const int axis = SplitAxis(depth);
  const real_t mid =
      (Component(node.lower, axis) + Component(node.upper, axis)) / 2;
  ShardExtent left = node;
  ShardExtent right = node;
  SetComponent(&left.upper, axis, mid);
  SetComponent(&right.lower, axis, mid);
  BisectUniform(left, levels - 1, depth + 1, out);
  BisectUniform(right, levels - 1, depth + 1, out);
}

int Levels(int num_shards) {
  if (num_shards < 1 || (num_shards & (num_shards - 1)) != 0) {
    throw std::invalid_argument("num_shards must be a power of two >= 1");
  }
  int levels = 0;
  for (int s = num_shards; s > 1; s >>= 1) {
    ++levels;
  }
  return levels;
}

}  // namespace

std::vector<ShardExtent> UniformShardExtents(const Real3& lower,
                                             const Real3& upper,
                                             int num_shards) {
  std::vector<ShardExtent> extents;
  extents.reserve(num_shards);
  BisectUniform({lower, upper}, Levels(num_shards), 0, &extents);
  return extents;
}

int LocateShard(const std::vector<ShardExtent>& extents,
                const Real3& position) {
  // Clamp strictly inside the global box so the half-open ownership test
  // below assigns boundary-exiting agents to the nearest shard.
  Real3 global_lower = extents.front().lower;
  Real3 global_upper = extents.front().upper;
  for (const ShardExtent& e : extents) {
    global_lower.x = std::min(global_lower.x, e.lower.x);
    global_lower.y = std::min(global_lower.y, e.lower.y);
    global_lower.z = std::min(global_lower.z, e.lower.z);
    global_upper.x = std::max(global_upper.x, e.upper.x);
    global_upper.y = std::max(global_upper.y, e.upper.y);
    global_upper.z = std::max(global_upper.z, e.upper.z);
  }
  Real3 p = position;
  p.x = std::clamp(p.x, global_lower.x, global_upper.x);
  p.y = std::clamp(p.y, global_lower.y, global_upper.y);
  p.z = std::clamp(p.z, global_lower.z, global_upper.z);
  int fallback = -1;
  for (size_t i = 0; i < extents.size(); ++i) {
    const ShardExtent& e = extents[i];
    const bool above_lower =
        p.x >= e.lower.x && p.y >= e.lower.y && p.z >= e.lower.z;
    const bool below_upper =
        p.x < e.upper.x && p.y < e.upper.y && p.z < e.upper.z;
    if (above_lower && below_upper) {
      return static_cast<int>(i);
    }
    // Closed-upper-face fallback for points on the global upper boundary.
    if (above_lower && p.x <= e.upper.x && p.y <= e.upper.y &&
        p.z <= e.upper.z) {
      fallback = static_cast<int>(i);
    }
  }
  if (fallback < 0) {
    throw std::logic_error("LocateShard: extents do not tile the volume");
  }
  return fallback;
}

real_t DistanceToExtent(const ShardExtent& extent, const Real3& position) {
  const real_t dx =
      std::max({extent.lower.x - position.x, position.x - extent.upper.x,
                real_t{0}});
  const real_t dy =
      std::max({extent.lower.y - position.y, position.y - extent.upper.y,
                real_t{0}});
  const real_t dz =
      std::max({extent.lower.z - position.z, position.z - extent.upper.z,
                real_t{0}});
  return std::sqrt(dx * dx + dy * dy + dz * dz);
}

}  // namespace bdm::spatial
