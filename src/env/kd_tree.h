// kd-tree environment (nanoflann substitute).
//
// The paper uses nanoflann [9] as its kd-tree environment; nanoflann is not
// available offline, so this is a from-scratch equivalent: median-split
// build over the largest-extent axis, bucketed leaves (max_leaf mirrors
// nanoflann's leaf size parameter), and an iterative radius search. The
// build is intentionally serial -- the paper attributes the standard
// implementation's poor scaling to exactly this property (Section 6.8).
#ifndef BDM_ENV_KD_TREE_H_
#define BDM_ENV_KD_TREE_H_

#include <cstdint>
#include <vector>

#include "core/param.h"
#include "env/environment.h"

namespace bdm {

class KdTreeEnvironment : public Environment {
 public:
  explicit KdTreeEnvironment(const Param& param) : param_(&param) {}

  void Update(const ResourceManager& rm, NumaThreadPool* pool) override;

  real_t GetInteractionRadius() const override { return largest_diameter_; }
  Real3 GetLowerBound() const override { return lower_; }
  Real3 GetUpperBound() const override { return upper_; }
  size_t MemoryFootprint() const override;
  std::string GetName() const override { return "kd_tree"; }

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
    real_t split = 0;
    int32_t axis = -1;          // -1 marks a leaf
    int32_t left = -1, right = -1;
    int32_t begin = 0, end = 0;  // leaf point range
  };

  int32_t Build(int32_t begin, int32_t end);

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

#endif  // BDM_ENV_KD_TREE_H_
