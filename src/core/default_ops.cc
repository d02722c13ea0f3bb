#include "core/default_ops.h"

#include "continuum/diffusion_grid.h"
#include "core/agent.h"
#include "core/resource_manager.h"
#include "core/simulation.h"
#include "env/environment.h"
#include "obs/metrics.h"

namespace bdm {

namespace {

struct ForceMetrics {
  int static_skips =
      MetricsRegistry::Get().RegisterCounter("forces.static_agent_skips");
};

const ForceMetrics& Metrics() {
  static const ForceMetrics metrics;
  return metrics;
}

}  // namespace

void UpdateEnvironmentOp::Run(Simulation* sim) {
  Environment* env = sim->GetEnvironment();
  env->Update(*sim->GetResourceManager(), sim->GetThreadPool());
  env->FillNeighborCounts(sim->GetThreadPool());
}

void StaticnessOp::Run(Simulation* sim) {
  auto* rm = sim->GetResourceManager();
  auto* env = sim->GetEnvironment();
  const real_t radius = env->GetInteractionRadius();
  const real_t squared_radius = radius * radius;
  // Pass 1: agents whose change can increase forces on their neighbors wake
  // every agent within the interaction radius (conditions i-iii of
  // Section 5 from the neighbors' point of view). Neighbors are found at
  // their Update-time positions, like every environment query.
  rm->ForEachAgentParallel([&](Agent* agent, AgentHandle, int) {
    if (!agent->PropagatesStaticness()) {
      return;
    }
    env->ForEachNeighbor(*agent, squared_radius,
                         [](const Environment::NeighborData& nb) {
                           nb.agent->WakeUp();
                         });
  });
  // Pass 2: promote next-iteration flags. Separate pass: pass 1 must have
  // observed all propagate flags before any of them is cleared.
  // UpdateStaticness is the ONLY writer of Agent::is_static_, so syncing
  // the SoA store's copy here keeps it exact for the whole iteration (the
  // fused mechanics op reads staticness from the store arrays).
  SoaStore& store = rm->GetSoaStore();
  const bool sync_store = store.IsLive() && !store.IsStructureDirty();
  rm->ForEachAgentParallel([&](Agent* agent, AgentHandle handle, int) {
    agent->UpdateStaticness();
    if (sync_store) {
      store.SetStatic(store.DenseIndex(handle), agent->IsStatic());
    }
  });
}

void BehaviorOp::Run(Agent* agent, AgentHandle handle, int tid,
                     Simulation* sim) {
  ExecutionContext* ctx = sim->GetExecutionContext(tid);
  ctx->set_agent_handle(handle);
  agent->RunBehaviors(ctx);
  ctx->set_agent_handle({});
}

void RunPerAgentMechanics(Agent* agent, Simulation* sim) {
  const Param& param = sim->GetParam();
  if (agent->IsGhost()) {
    // Halo copy owned by another shard: its owner integrates its
    // displacement; here it only serves as a force source for neighbors.
    return;
  }
  if (param.detect_static_agents && agent->IsStatic()) {
    // The expensive pairwise force loop is provably redundant. The counter
    // quantifies how much work O6 saves (paper Section 5's win).
    if (MetricsRegistry::Enabled()) {
      MetricsRegistry::Get().Add(Metrics().static_skips, 1);
    }
    return;
  }
  int non_zero_forces = 0;
  const Real3 displacement = agent->CalculateDisplacement(
      sim->GetInteractionForce(), sim->GetEnvironment(), param, &non_zero_forces);
  // Condition iv of Section 5: with two or more non-zero neighbor forces,
  // cancellation is possible and shrinking/removal of one neighbor could
  // unbalance it -- such an agent must not become static.
  if (non_zero_forces > 1) {
    agent->WakeUp();
  }
  if (displacement.SquaredNorm() > 0) {
    agent->ApplyDisplacement(displacement, param);
  }
}

void MechanicalForcesOp::Run(Agent* agent, AgentHandle, int, Simulation* sim) {
  RunPerAgentMechanics(agent, sim);
}

void DiffusionOp::Run(Simulation* sim) {
  for (DiffusionGrid* grid : sim->GetAllDiffusionGrids()) {
    // Each substance is timed separately (sub-bucket of the scheduler's
    // "diffusion" entry) so multi-substance models show which field is hot.
    ScopedTimer timer(sim->GetTiming(), "diffusion/" + grid->GetName());
    grid->Step(sim->GetParam().dt, sim->GetThreadPool());
  }
}

void CommitOp::Run(Simulation* sim) {
  sim->GetResourceManager()->Commit(sim->GetAllExecutionContexts());
}

}  // namespace bdm
