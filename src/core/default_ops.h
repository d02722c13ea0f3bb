// The engine's default operation pipeline.
//
// Pre-standalone: agent sorting/balancing (Section 4.2), environment update
// (Section 3.1), staticness propagation (Section 5). Agent operations:
// behaviors, then mechanical forces. Post-standalone: diffusion and the
// commit of buffered additions/removals (Section 3.2).
#ifndef BDM_CORE_DEFAULT_OPS_H_
#define BDM_CORE_DEFAULT_OPS_H_

#include "core/operation.h"

namespace bdm {

/// Rebuilds the environment index (paper Algorithm 1, pre-standalone) and
/// fills the neighbor-count columns behaviors have asked for.
class UpdateEnvironmentOp : public StandaloneOperation {
 public:
  UpdateEnvironmentOp() : StandaloneOperation("environment_update", 1) {
    // Reads geometry/population to rebuild the index; with the SoA-primary
    // store it also refreshes the store arrays (a geometry write).
    DeclareResources(kResAgentsGeometry | kResPopulation,
                     kResGrid | kResAgentsGeometry);
  }
  void Run(Simulation* sim) override;
};

/// Propagates staticness resets to neighbors and promotes the
/// next-iteration flags (Section 5). Only scheduled when
/// param.detect_static_agents is set.
class StaticnessOp : public StandaloneOperation {
 public:
  StaticnessOp() : StandaloneOperation("staticness", 1) {
    DeclareResources(kResGrid | kResAgentsGeometry, kResAgentsGeometry);
  }
  void Run(Simulation* sim) override;
};

/// Executes every behavior of the agent, with the agent's handle on the
/// execution context.
class BehaviorOp : public AgentOperation {
 public:
  BehaviorOp() : AgentOperation("behaviors", 1) {
    // Behaviors may move/resize agents, create/remove agents (population
    // buffers), and secrete into or sample the diffusion grids.
    DeclareResources(kResGrid | kResAgentsGeometry | kResDiffusion,
                     kResAgentsGeometry | kResPopulation | kResDiffusion);
  }
  void Run(Agent* agent, AgentHandle handle, int tid, Simulation* sim) override;
};

/// Computes pairwise collision forces and applies the resulting
/// displacement; honors the static-agent shortcut (Section 5). This is the
/// per-agent reference path: every pair force is computed twice, once from
/// each endpoint. Scheduled when param.pair_symmetric_forces is off; with it
/// on, the pair-symmetric engine (physics/mechanics_fused_op.h) runs instead.
class MechanicalForcesOp : public AgentOperation {
 public:
  MechanicalForcesOp() : AgentOperation("mechanical_forces", 1) {
    DeclareResources(kResGrid | kResAgentsGeometry,
                     kResAgentsGeometry | kResForces);
  }
  void Run(Agent* agent, AgentHandle handle, int tid, Simulation* sim) override;
};

/// One agent's per-agent mechanics step: ghost skip, static skip (O6),
/// CalculateDisplacement, wake on >1 non-zero force, ApplyDisplacement.
/// MechanicalForcesOp runs it for every agent; so does MechanicsFusedOp
/// while custom-mechanics agents (neurites) are alive.
void RunPerAgentMechanics(Agent* agent, Simulation* sim);

/// Advances all registered diffusion grids by param.dt.
class DiffusionOp : public StandaloneOperation {
 public:
  DiffusionOp() : StandaloneOperation("diffusion", 1) {
    // Touches only the continuum fields: in the op DAG
    // (Scheduler::GetIterationDag) diffusion has no edge to mechanics.
    DeclareResources(kResDiffusion, kResDiffusion);
  }
  void Run(Simulation* sim) override;
};

/// Commits the thread-local addition/removal buffers to the
/// ResourceManager (paper Section 3.2; "setup and tear down" in Figure 5).
class CommitOp : public StandaloneOperation {
 public:
  CommitOp() : StandaloneOperation("commit", 1) {
    // Reads every context's add/remove buffers and rewrites the population:
    // the DAG's sink barrier by construction (conflicts with everything).
    DeclareResources(kResAll, kResAll);
  }
  void Run(Simulation* sim) override;
};

}  // namespace bdm

#endif  // BDM_CORE_DEFAULT_OPS_H_
