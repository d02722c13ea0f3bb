#include "physics/mechanics_fused_op.h"

#include <algorithm>
#include <cstring>
#include <typeinfo>

#include "core/agent.h"
#include "core/default_ops.h"
#include "core/resource_manager.h"
#include "core/scheduler.h"
#include "core/simulation.h"
#include "core/soa_store.h"
#include "core/timing.h"
#include "env/uniform_grid.h"
#include "obs/metrics.h"
#include "physics/force_kernel.h"
#include "physics/interaction_force.h"
#include "sched/numa_thread_pool.h"

namespace bdm {

namespace {

struct FusedMetrics {
  // Same names as the per-agent engine (MetricsRegistry dedupes by name):
  // either engine feeds the same counters, so A/B runs compare directly.
  int static_pair_skips =
      MetricsRegistry::Get().RegisterCounter("forces.static_pair_skips");
  int static_agent_skips =
      MetricsRegistry::Get().RegisterCounter("forces.static_agent_skips");
  /// Width of the widest traversal slab of the last pass: how much
  /// contiguous dense-index work one worker owns (load-balance telemetry).
  int slab_span = MetricsRegistry::Get().RegisterGauge("fused/slab_span");
};

const FusedMetrics& Metrics() {
  static const FusedMetrics metrics;
  return metrics;
}

void ZeroShard(SoaStore::ForceShard& shard, uint64_t total) {
  std::memset(shard.fx.data(), 0, total * sizeof(real_t));
  std::memset(shard.fy.data(), 0, total * sizeof(real_t));
  std::memset(shard.fz.data(), 0, total * sizeof(real_t));
  std::memset(shard.non_zero.data(), 0, total * sizeof(uint32_t));
}

// Generic Stage A: the environment's pair traversal with the virtual force.
// Every slot's shard is cleared first -- the traversal scatters into the
// shard of the pair's slab index, which under a partial team (a shard lane)
// is not necessarily an executing worker's id.
void ScatterGeneric(const Environment& env, const InteractionForce& force,
                    real_t squared_radius, bool skip_static,
                    NumaThreadPool* pool, SoaStore::ForceShards& shards,
                    uint64_t total) {
  pool->RunSlots(pool->NumThreads(),
                 [&](int slot) { ZeroShard(shards.shard(slot), total); });
  env.ForEachNeighborPair(
      squared_radius, pool,
      [&](const Environment::NeighborPair& pair, int slab) {
        if (skip_static && pair.a->IsStatic() && pair.b->IsStatic()) {
          // Both endpoints provably static (O6). Self-resolving Add: slab
          // is not necessarily the executing thread.
          if (MetricsRegistry::Enabled()) {
            MetricsRegistry::Get().Add(Metrics().static_pair_skips, 1);
          }
          return;
        }
        const Real3 f =
            force.Calculate(pair.a, pair.a_position, pair.a_diameter, pair.b,
                            pair.b_position, pair.b_diameter);
        if (f.SquaredNorm() == 0) {
          return;
        }
        SoaStore::ForceShard& shard = shards.shard(slab);
        shard.fx[pair.a_index] += f.x;
        shard.fy[pair.a_index] += f.y;
        shard.fz[pair.a_index] += f.z;
        ++shard.non_zero[pair.a_index];
        shard.fx[pair.b_index] -= f.x;
        shard.fy[pair.b_index] -= f.y;
        shard.fz[pair.b_index] -= f.z;
        ++shard.non_zero[pair.b_index];
      });
}

// Stage B, shared by both scatter variants: fold the shards, then the O6
// ladder (static skip -> wake -> threshold -> clamp) and `move`. The
// variants differ only in `is_static(i, agent)` and `move(i, agent, d)`.
template <typename IsStaticFn, typename MoveFn>
void FoldAndIntegrate(NumaThreadPool* pool,
                      const NumaThreadPool::SlabPartition& slabs,
                      const SoaStore::ForceShards& shards, Agent* const* agents,
                      const Param& param, IsStaticFn is_static, MoveFn move) {
  const int num_shards = shards.num_shards();
  const bool skip_static = param.detect_static_agents;
  const real_t dt_over_viscosity = param.dt / param.viscosity;
  pool->RunSlabs(slabs, [&](int64_t lo, int64_t hi, int) {
    uint64_t agent_skips = 0;
    for (int64_t i = lo; i < hi; ++i) {
      Real3 sum{};
      uint32_t non_zero = 0;
      for (int t = 0; t < num_shards; ++t) {
        const SoaStore::ForceShard& shard = shards.shard(t);
        sum.x += shard.fx[i];
        sum.y += shard.fy[i];
        sum.z += shard.fz[i];
        non_zero += shard.non_zero[i];
      }
      if (non_zero == 0) {
        continue;  // untouched agent: no force, no wake condition
      }
      Agent* agent = agents[i];
      if (agent->IsGhost()) {
        // Halo copy owned by another shard: it exerted forces on local
        // agents above, but only its owner integrates its displacement.
        continue;
      }
      if (skip_static && is_static(i, agent)) {
        // Same skip as the per-agent path: a static agent is neither woken
        // nor displaced. (Its pairs with awake partners were still computed
        // in Stage A -- the awake side needs the force.)
        ++agent_skips;
        continue;
      }
      if (non_zero > 1) {
        agent->WakeUp();
      }
      if (sum.SquaredNorm() < param.force_threshold_squared) {
        continue;
      }
      Real3 displacement = sum * dt_over_viscosity;
      const real_t norm = displacement.Norm();
      if (norm > param.max_displacement) {
        displacement *= param.max_displacement / norm;
      }
      if (displacement.SquaredNorm() > 0) {
        move(i, agent, displacement);
      }
    }
    if (agent_skips != 0 && MetricsRegistry::Enabled()) {
      // Self-resolving Add: the slab index is not necessarily the
      // executing thread.
      MetricsRegistry::Get().Add(Metrics().static_agent_skips, agent_skips);
    }
  });
}

}  // namespace

void MechanicsFusedOp::Run(Simulation* sim) {
  auto* rm = sim->GetResourceManager();
  auto* env = sim->GetEnvironment();
  if (rm->GetNumCustomMechanicsAgents() > 0) {
    // Custom mechanics make "total force = sum of symmetric pair forces"
    // false, so the whole iteration runs the per-agent step.
    rm->ForEachAgentParallel([&](Agent* agent, AgentHandle, int) {
      RunPerAgentMechanics(agent, sim);
    });
    return;
  }
  const uint64_t total = env->DenseAgentCount();
  if (total == 0) {
    return;
  }
  auto* grid = dynamic_cast<UniformGridEnvironment*>(env);
  const Param& param = sim->GetParam();
  const InteractionForce* force = sim->GetInteractionForce();
  SoaStore& store = rm->GetSoaStore();
  const real_t radius = env->GetInteractionRadius();
  const real_t squared_radius = radius * radius;
  // The fast path inlines the BASE sphere force and reads geometry from the
  // store the grid was built over. No radius check: the grid's interaction
  // radius is its box length, which the half stencil always covers.
  const bool fast_path = grid != nullptr && store.IsLive() &&
                         typeid(*force) == typeid(InteractionForce);
  TraceSpan span("mechanics_fused",
                 sim->GetScheduler()->GetSimulatedIterations());
  NumaThreadPool* pool = sim->GetThreadPool();
  SoaStore::ForceShards& shards = store.force_shards();
  shards.Ensure(pool->NumThreads(), total);
  const auto slabs = pool->MakeSlabPartition(0, static_cast<int64_t>(total));
  if (MetricsRegistry::Enabled()) {
    int64_t span_max = 0;
    for (size_t t = 0; t + 1 < slabs.bounds.size(); ++t) {
      span_max = std::max(span_max, slabs.bounds[t + 1] - slabs.bounds[t]);
    }
    MetricsRegistry::Get().SetGauge(Metrics().slab_span,
                                    static_cast<double>(span_max));
  }
  const bool skip_static = param.detect_static_agents;

  if (!fast_path) {
    ScatterGeneric(*env, *force, squared_radius, skip_static, pool, shards,
                   total);
    FoldAndIntegrate(
        pool, slabs, shards, env->DenseAgents(), param,
        [](int64_t, Agent* agent) { return agent->IsStatic(); },
        [&](int64_t, Agent* agent, const Real3& displacement) {
          agent->ApplyDisplacement(displacement, param);
        });
    return;
  }

  const real_t* px = store.pos_x();
  const real_t* py = store.pos_y();
  const real_t* pz = store.pos_z();
  const real_t* dia = store.diameter();
  const uint8_t* is_static = store.is_static();
  const real_t repulsion = force->repulsion();
  const real_t attraction = force->attraction();
  const real_t attraction_range = force->attraction_range();

  // Stage A: fused zero + traverse + scatter, indexed by SLOT (shard ==
  // slab index), not by executing worker: EVERY slot's shard must be zeroed
  // -- a slot whose slab is empty still receives scatter writes from pairs
  // owned by other slabs -- and on a shard lane this op runs on a partial
  // worker team, whose members each cover a chunk of slots. With the full
  // team RunSlots degenerates to slot == tid.
  pool->RunSlots(pool->NumThreads(), [&](int tid) {
    SoaStore::ForceShard& shard = shards.shard(tid);
    ZeroShard(shard, total);
    const int64_t lo = slabs.bounds[tid];
    const int64_t hi = slabs.bounds[tid + 1];
    if (lo >= hi) {
      return;
    }
    real_t* fx = shard.fx.data();
    real_t* fy = shard.fy.data();
    real_t* fz = shard.fz.data();
    uint32_t* non_zero = shard.non_zero.data();
    uint64_t pair_skips = 0;
    grid->ForEachNeighborPairInSlab(
        squared_radius, lo, hi, [&](uint32_t i, uint32_t j, real_t d2) {
          if (skip_static && is_static[i] != 0 && is_static[j] != 0) {
            ++pair_skips;  // both endpoints provably static (O6)
            return;
          }
          // i-j order matches the generic path's pair.a - pair.b; the
          // kernel header documents every grouping the bitwise contract
          // relies on.
          const real_t dx = px[i] - px[j];
          const real_t dy = py[i] - py[j];
          const real_t dz = pz[i] - pz[j];
          const real_t sum_radii =
              dia[i] * real_t{0.5} + dia[j] * real_t{0.5};
          const Real3 f =
              detail::SphereForceKernel(dx, dy, dz, d2, sum_radii, repulsion,
                                        attraction, attraction_range);
          if (f.SquaredNorm() == 0) {
            return;
          }
          fx[i] += f.x;
          fy[i] += f.y;
          fz[i] += f.z;
          ++non_zero[i];
          fx[j] -= f.x;
          fy[j] -= f.y;
          fz[j] -= f.z;
          ++non_zero[j];
        });
    if (pair_skips != 0 && MetricsRegistry::Enabled()) {
      MetricsRegistry::Get().Add(Metrics().static_pair_skips, pair_skips);
    }
  });

  // Stage B, writing the displaced position to BOTH the AoS Agent and the
  // store arrays -- the write-back that keeps the store current without a
  // next-iteration refresh pass.
  FoldAndIntegrate(
      pool, slabs, shards, store.agents(), param,
      [is_static](int64_t i, Agent*) { return is_static[i] != 0; },
      [&](int64_t i, Agent* agent, const Real3& displacement) {
        const Real3 p = agent->GetPosition() + displacement;
        agent->CommitEnginePosition(p);
        store.WriteBackPosition(static_cast<uint64_t>(i), p);
      });
}

}  // namespace bdm
