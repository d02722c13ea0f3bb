#include "env/octree.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "core/agent.h"
#include "core/resource_manager.h"

namespace bdm {

void OctreeEnvironment::Update(const ResourceManager& rm, NumaThreadPool* pool) {
  (void)pool;  // serial build, like the UniBN reference implementation
  BeginUpdate(rm);
  const uint64_t total = rm.GetNumAgents();
  points_.clear();
  diameters_.clear();
  agents_.clear();
  nodes_.clear();
  points_.reserve(total);
  diameters_.reserve(total);
  agents_.reserve(total);
  root_ = -1;
  lower_ = Real3{std::numeric_limits<real_t>::max(),
                 std::numeric_limits<real_t>::max(),
                 std::numeric_limits<real_t>::max()};
  upper_ = Real3{std::numeric_limits<real_t>::lowest(),
                 std::numeric_limits<real_t>::lowest(),
                 std::numeric_limits<real_t>::lowest()};
  largest_diameter_ = 0;
  rm.ForEachAgent([&](Agent* agent, AgentHandle) {
    const Real3& pos = agent->GetPosition();
    points_.push_back(pos);
    diameters_.push_back(agent->GetDiameter());
    agents_.push_back(agent);
    for (int c = 0; c < 3; ++c) {
      lower_[c] = std::min(lower_[c], pos[c]);
      upper_[c] = std::max(upper_[c], pos[c]);
    }
    largest_diameter_ = std::max(largest_diameter_, diameters_.back());
  });
  if (total == 0) {
    return;
  }
  const Real3 center = (lower_ + upper_) * real_t{0.5};
  real_t extent = 0;
  for (int c = 0; c < 3; ++c) {
    extent = std::max(extent, (upper_[c] - lower_[c]) * real_t{0.5});
  }
  extent = std::max<real_t>(extent * real_t{1.001}, 1e-6);  // strict containment
  root_ = Build(0, static_cast<int32_t>(total), center, extent);
  MapRowsToDense(rm);
}

int32_t OctreeEnvironment::Build(int32_t begin, int32_t end, const Real3& center,
                                 real_t extent) {
  const int32_t id = static_cast<int32_t>(nodes_.size());
  nodes_.push_back({});
  nodes_[id].center = center;
  nodes_[id].extent = extent;
  nodes_[id].begin = begin;
  nodes_[id].end = end;
  if (end - begin <= param_->octree_bucket_size || extent < 1e-6) {
    return id;
  }
  // Bucket the range into the eight octants (stable counting sort).
  auto octant = [&](const Real3& p) {
    return (p.x >= center.x ? 1 : 0) | (p.y >= center.y ? 2 : 0) |
           (p.z >= center.z ? 4 : 0);
  };
  std::array<int32_t, 9> bucket_begin{};
  for (int32_t i = begin; i < end; ++i) {
    ++bucket_begin[octant(points_[i]) + 1];
  }
  for (int o = 0; o < 8; ++o) {
    bucket_begin[o + 1] += bucket_begin[o];
  }
  std::vector<Real3> tmp_points(points_.begin() + begin, points_.begin() + end);
  std::vector<real_t> tmp_diameters(diameters_.begin() + begin,
                                    diameters_.begin() + end);
  std::vector<Agent*> tmp_agents(agents_.begin() + begin, agents_.begin() + end);
  std::array<int32_t, 8> cursor;
  std::copy_n(bucket_begin.begin(), 8, cursor.begin());
  for (int32_t i = 0; i < end - begin; ++i) {
    const int o = octant(tmp_points[i]);
    points_[begin + cursor[o]] = tmp_points[i];
    diameters_[begin + cursor[o]] = tmp_diameters[i];
    agents_[begin + cursor[o]] = tmp_agents[i];
    ++cursor[o];
  }
  nodes_[id].is_leaf = false;
  const real_t child_extent = extent * real_t{0.5};
  for (int o = 0; o < 8; ++o) {
    const int32_t lo = begin + bucket_begin[o];
    const int32_t hi = begin + bucket_begin[o + 1];
    if (lo == hi) {
      continue;
    }
    const Real3 child_center = {
        center.x + ((o & 1) ? child_extent : -child_extent),
        center.y + ((o & 2) ? child_extent : -child_extent),
        center.z + ((o & 4) ? child_extent : -child_extent)};
    const int32_t child = Build(lo, hi, child_center, child_extent);
    nodes_[id].children[o] = child;
  }
  return id;
}

void OctreeEnvironment::ReportAll(const Node& node, const Real3& position,
                                  const Agent* exclude, NeighborFn fn) const {
  for (int32_t i = node.begin; i < node.end; ++i) {
    if (agents_[i] != exclude) {
      fn({agents_[i], static_cast<uint32_t>(i), points_[i], diameters_[i],
          points_[i].SquaredDistance(position)});
    }
  }
}

void OctreeEnvironment::Search(const Real3& position, real_t squared_radius,
                               const Agent* exclude, NeighborFn fn) const {
  if (root_ < 0) {
    return;
  }
  const real_t radius = std::sqrt(squared_radius);
  // Explicit stack; depth is bounded by the minimum-extent cutoff.
  std::vector<int32_t> stack;
  stack.reserve(64);
  stack.push_back(root_);
  while (!stack.empty()) {
    const Node& node = nodes_[stack.back()];
    stack.pop_back();
    // Sphere/cube overlap tests (Behley et al., Sec. III-B).
    Real3 delta = position - node.center;
    for (int c = 0; c < 3; ++c) {
      delta[c] = std::fabs(delta[c]);
    }
    // Contains: cube entirely inside the sphere?
    const Real3 corner = {delta.x + node.extent, delta.y + node.extent,
                          delta.z + node.extent};
    if (corner.SquaredNorm() <= squared_radius) {
      ReportAll(node, position, exclude, fn);
      continue;
    }
    // Overlaps: sphere intersects the cube?
    const real_t max_dist = radius + node.extent;
    if (delta.x > max_dist || delta.y > max_dist || delta.z > max_dist) {
      continue;  // completely outside
    }
    Real3 clamped = delta;
    for (int c = 0; c < 3; ++c) {
      clamped[c] = std::max<real_t>(delta[c] - node.extent, 0);
    }
    if (clamped.SquaredNorm() > squared_radius) {
      continue;
    }
    if (node.is_leaf) {
      for (int32_t i = node.begin; i < node.end; ++i) {
        if (agents_[i] == exclude) {
          continue;
        }
        const real_t d2 = points_[i].SquaredDistance(position);
        if (d2 <= squared_radius) {
          fn({agents_[i], static_cast<uint32_t>(i), points_[i], diameters_[i],
              d2});
        }
      }
      continue;
    }
    for (int o = 0; o < 8; ++o) {
      if (node.children[o] >= 0) {
        stack.push_back(node.children[o]);
      }
    }
  }
}

size_t OctreeEnvironment::MemoryFootprint() const {
  // Complete over the persistent index arrays (snapshot, agents, nodes); the
  // counting-sort scratch in Build is freed before Update returns.
  return points_.capacity() * sizeof(Real3) +
         diameters_.capacity() * sizeof(real_t) +
         agents_.capacity() * sizeof(Agent*) + nodes_.capacity() * sizeof(Node);
}

}  // namespace bdm
