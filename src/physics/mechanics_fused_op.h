// The pair-symmetric mechanics engine (paper Section 5, O6).
//
// The collision force is pairwise, radial and exactly antisymmetric, so the
// engine computes every pair force ONCE and scatters +F/-F into the store's
// force accumulator (SoaStore::forces(): one row per agent, indexed by the
// environment's dense agent index), then integrates in a second pass. Both
// passes run over the pool's logical slabs of the dense range
// (NumaThreadPool::NumLogicalSlabs, fixed per pool), whatever the calling
// team:
//
//   Stage A (scatter). Each slab zeroes its own rows, then adds every force
//   its pairs produce: straight into a row the slab owns, or as an entry of
//   the log to the owning slab (SoaStore::ForceAccumulator). Two variants:
//   * Fast path -- uniform grid over the live SoaStore, base
//     InteractionForce. One RunLogicalSlabs fuses row zeroing with the
//     grid's half-stencil traversal of the slab, evaluating the branch-free
//     sphere kernel (physics/force_kernel.h) straight off the store arrays:
//     no Agent access, no virtual call.
//   * Generic path -- every other environment (kd-tree, octree, the grid's
//     legacy mirror when soa_primary is off) and subclassed forces (type-
//     dependent AdhesionScale): zero the rows, then walk
//     Environment::ForEachNeighborPair, whose slab argument is the same
//     logical slab, calling the virtual InteractionForce::Calculate.
//   Stage B (one RunLogicalSlabs): each slab adds the log entries aimed at
//   its rows, in (source slab, append order), then runs the O6 ladder --
//   ghost skip, static skip, wake on >1 non-zero force, force threshold,
//   displacement clamp -- and moves the agent. The two Stage A variants
//   differ here only in where staticness is read and where the new position
//   goes: the store arrays plus CommitEnginePosition and the store write-back
//   on the fast path (the next grid build needs no refresh pass),
//   Agent::IsStatic and ApplyDisplacement otherwise.
//
// While any agent carries custom mechanics (Agent::HasCustomMechanics:
// neurite springs and kin exclusions are not sums of symmetric pair forces),
// the whole iteration runs the per-agent step (RunPerAgentMechanics)
// instead.
//
// Sum-order contract: a row's total is its slab's in-slab contributions in
// walk order, then the log entries in (source slab, append order). Both
// Stage A variants scatter the same IEEE operation sequence for the same
// pair order (the kernel header documents every grouping), and neither the
// slabs nor the logs depend on the team, so for one pair order the force
// totals are bitwise the same on every pool that cuts the same slabs (1, 2,
// 4, 8 or 16 workers all cut 16), and the fast path and
// the generic path over the grid's legacy mirror integrate bitwise identical
// trajectories. The pair order itself follows the grid's box chains, which
// several workers link in a timing-dependent order.
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
