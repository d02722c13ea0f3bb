#include "env/kd_tree.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/agent.h"
#include "core/resource_manager.h"

namespace bdm {

namespace {

// Rewrites v[begin, begin + order.size()) as v[order[0]], v[order[1]], ...
template <typename T>
void Permute(std::vector<T>* v, int32_t begin,
             const std::vector<int32_t>& order) {
  std::vector<T> tmp(order.size());
  for (size_t i = 0; i < order.size(); ++i) {
    tmp[i] = (*v)[order[i]];
  }
  std::copy(tmp.begin(), tmp.end(), v->begin() + begin);
}

}  // namespace

void KdTreeEnvironment::Update(const ResourceManager& rm, NumaThreadPool* pool) {
  (void)pool;  // the kd-tree build is serial by design (see header)
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
  if (total > 0) {
    nodes_.reserve(2 * total / std::max(param_->kd_tree_max_leaf, 1) + 2);
    root_ = Build(0, static_cast<int32_t>(total));
    MapRowsToDense(rm);
  }
}

int32_t KdTreeEnvironment::Build(int32_t begin, int32_t end) {
  const int32_t id = static_cast<int32_t>(nodes_.size());
  nodes_.push_back({});
  if (end - begin <= param_->kd_tree_max_leaf) {
    nodes_[id].begin = begin;
    nodes_[id].end = end;
    return id;
  }
  // Split along the axis with the largest extent of this subset.
  Real3 lo = points_[begin], hi = points_[begin];
  for (int32_t i = begin + 1; i < end; ++i) {
    for (int c = 0; c < 3; ++c) {
      lo[c] = std::min(lo[c], points_[i][c]);
      hi[c] = std::max(hi[c], points_[i][c]);
    }
  }
  int axis = 0;
  for (int c = 1; c < 3; ++c) {
    if (hi[c] - lo[c] > hi[axis] - lo[axis]) {
      axis = c;
    }
  }
  const int32_t mid = begin + (end - begin) / 2;
  // Keep the snapshot arrays in lockstep while partitioning.
  std::vector<int32_t> order(end - begin);
  for (int32_t i = 0; i < end - begin; ++i) {
    order[i] = begin + i;
  }
  std::nth_element(order.begin(), order.begin() + (mid - begin), order.end(),
                   [&](int32_t a, int32_t b) {
                     return points_[a][axis] < points_[b][axis];
                   });
  Permute(&points_, begin, order);
  Permute(&diameters_, begin, order);
  Permute(&agents_, begin, order);

  const real_t split = points_[mid][axis];
  const int32_t left = Build(begin, mid);
  const int32_t right = Build(mid, end);
  nodes_[id].axis = axis;
  nodes_[id].split = split;
  nodes_[id].left = left;
  nodes_[id].right = right;
  return id;
}

void KdTreeEnvironment::Search(const Real3& position, real_t squared_radius,
                               const Agent* exclude, NeighborFn fn) const {
  if (root_ < 0) {
    return;
  }
  int32_t stack[64];
  int top = 0;
  stack[top++] = root_;
  while (top > 0) {
    const Node& node = nodes_[stack[--top]];
    if (node.axis < 0) {
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
    const real_t delta = position[node.axis] - node.split;
    const int32_t near = delta < 0 ? node.left : node.right;
    const int32_t far = delta < 0 ? node.right : node.left;
    if (delta * delta <= squared_radius) {
      stack[top++] = far;
    }
    stack[top++] = near;
  }
}

size_t KdTreeEnvironment::MemoryFootprint() const {
  // Complete over the persistent index arrays (snapshot, agents, nodes); the
  // per-split scratch vectors in Build are freed before Update returns.
  return points_.capacity() * sizeof(Real3) +
         diameters_.capacity() * sizeof(real_t) +
         agents_.capacity() * sizeof(Agent*) + nodes_.capacity() * sizeof(Node);
}

}  // namespace bdm
