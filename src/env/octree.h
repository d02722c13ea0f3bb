// Octree environment following Behley et al. [8].
//
// A from-scratch replacement for the UniBN octree the paper benchmarks: the
// tree covers the agents' bounding cube, nodes subdivide until at most
// `octree_bucket_size` points remain (the paper's validated bucket
// parameter), and the radius search applies Behley's inside-sphere shortcut:
// when a node's cube lies completely inside the query sphere, all its points
// are reported without per-point distance tests.
#ifndef BDM_ENV_OCTREE_H_
#define BDM_ENV_OCTREE_H_

#include <cstdint>
#include <vector>

#include "core/param.h"
#include "env/environment.h"

namespace bdm {

class OctreeEnvironment : public Environment {
 public:
  explicit OctreeEnvironment(const Param& param) : param_(&param) {}

  void Update(const ResourceManager& rm, NumaThreadPool* pool) override;

  real_t GetInteractionRadius() const override { return largest_diameter_; }
  Real3 GetLowerBound() const override { return lower_; }
  Real3 GetUpperBound() const override { return upper_; }
  size_t MemoryFootprint() const override;
  std::string GetName() const override { return "octree"; }

  // Build order of agents_ is the dense index: the generic base
  // ForEachNeighborPair runs on top of it. It is not the row order, so
  // Update maps rows to dense indices for the count columns.
  Agent* const* DenseAgents() const override { return agents_.data(); }
  uint64_t DenseAgentCount() const override { return agents_.size(); }
  NeighborData DenseSnapshot(uint32_t i) const override {
    return {agents_[i], i, points_[i], diameters_[i], 0};
  }

 protected:
  void Search(const Real3& position, real_t squared_radius,
              const Agent* exclude, NeighborFn fn) const override;

 private:
  struct Node {
    Real3 center;
    real_t extent = 0;  // half edge length
    int32_t children[8] = {-1, -1, -1, -1, -1, -1, -1, -1};
    int32_t begin = 0, end = 0;  // point range (leaves only)
    bool is_leaf = true;
  };

  int32_t Build(int32_t begin, int32_t end, const Real3& center, real_t extent);
  void ReportAll(const Node& node, const Real3& position, const Agent* exclude,
                 NeighborFn fn) const;

  const Param* param_;

  // Update-time snapshot, reordered by the build in lockstep.
  std::vector<Real3> points_;
  std::vector<real_t> diameters_;
  std::vector<Agent*> agents_;
  std::vector<Node> nodes_;
  int32_t root_ = -1;

  Real3 lower_, upper_;
  real_t largest_diameter_ = 0;
};

}  // namespace bdm

#endif  // BDM_ENV_OCTREE_H_
