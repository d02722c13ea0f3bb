// The pair-symmetric mechanics engine (paper Section 5, O6).
//
// The collision force is pairwise, radial and exactly antisymmetric, so the
// engine computes every pair force ONCE and scatters +F/-F into per-slot
// force shards (SoaStore::force_shards(), indexed by the environment's dense
// agent index), then folds the shards and integrates in a second pass:
//
//   Stage A (scatter). Two variants fill the same shards:
//   * Fast path -- uniform grid over the live SoaStore, base
//     InteractionForce. One pool->RunSlots fuses shard zeroing with the
//     grid's half-stencil traversal of the worker's dense-index slab,
//     evaluating the branch-free sphere kernel (physics/force_kernel.h)
//     straight off the store arrays: no Agent access, no virtual call.
//   * Generic path -- every other environment (kd-tree, octree, the grid's
//     legacy mirror when soa_primary is off) and subclassed forces (type-
//     dependent AdhesionScale): zero the shards, then walk
//     Environment::ForEachNeighborPair calling the virtual
//     InteractionForce::Calculate.
//   Stage B (one RunSlabs over the same slab partition): fold the shards,
//   then the O6 ladder -- ghost skip, static skip, wake on >1 non-zero
//   force, force threshold, displacement clamp -- and move the agent. The
//   two Stage A variants differ here only in where staticness is read and
//   where the new position goes: the store arrays plus CommitEnginePosition
//   and the store write-back on the fast path (the next grid build needs no
//   refresh pass), Agent::IsStatic and ApplyDisplacement otherwise.
//
// While any agent carries custom mechanics (Agent::HasCustomMechanics:
// neurite springs and kin exclusions are not sums of symmetric pair forces),
// the whole iteration runs the per-agent step (RunPerAgentMechanics)
// instead.
//
// Bitwise contract: both Stage A variants scatter the same IEEE operation
// sequence for the same pair order (the kernel header documents every
// grouping), so with a single worker the fast path and the generic path
// over the grid's legacy mirror integrate bitwise identical trajectories.
// With several workers the grid build's CAS insert order makes pair order,
// and thus shard summation order, timing-dependent, so equality there holds
// only up to FP associativity.
#ifndef BDM_PHYSICS_MECHANICS_FUSED_OP_H_
#define BDM_PHYSICS_MECHANICS_FUSED_OP_H_

#include "core/operation.h"

namespace bdm {

class MechanicsFusedOp : public StandaloneOperation {
 public:
  /// Shares the per-agent engine's op name so pipeline surgery such as
  /// RemoveOp("mechanical_forces") works against either engine.
  MechanicsFusedOp() : StandaloneOperation("mechanical_forces", 1) {
    DeclareResources(kResGrid | kResAgentsGeometry,
                     kResAgentsGeometry | kResForces);
  }
  void Run(Simulation* sim) override;
};

}  // namespace bdm

#endif  // BDM_PHYSICS_MECHANICS_FUSED_OP_H_
