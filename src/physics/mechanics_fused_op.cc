#include "physics/mechanics_fused_op.h"

#include <algorithm>
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
  /// Pairs whose endpoints lie in different logical slabs: the entries the
  /// scatter appended to the cross-slab logs.
  int cross_slab_pairs =
      MetricsRegistry::Get().RegisterCounter("forces.cross_slab_pairs");
};

const FusedMetrics& Metrics() {
  static const FusedMetrics metrics;
  return metrics;
}

// Logical slab `slab`'s share of Stage A: it owns rows [lo, hi) of the
// accumulator, and every pair it emits has its first endpoint there.
class SlabScatter {
 public:
  SlabScatter(const NumaThreadPool& pool, SoaStore::ForceAccumulator& forces,
              uint64_t total, int slab)
      : pool_(pool),
        total_(static_cast<int64_t>(total)),
        lo_(pool.LogicalSlabBegin(total_, slab)),
        hi_(pool.LogicalSlabBegin(total_, slab + 1)),
        fx_(forces.fx()),
        fy_(forces.fy()),
        fz_(forces.fz()),
        non_zero_(forces.non_zero()),
        slab_(slab),
        forces_(forces) {}

  /// Zeroes (first-touches) the slab's rows; runs before any pair of this
  /// pass is added.
  void ZeroRows() {
    std::fill(fx_ + lo_, fx_ + hi_, real_t{0});
    std::fill(fy_ + lo_, fy_ + hi_, real_t{0});
    std::fill(fz_ + lo_, fz_ + hi_, real_t{0});
    std::fill(non_zero_ + lo_, non_zero_ + hi_, 0u);
  }

  /// +f on row i (in the slab) and -f on row j: straight into j's row when
  /// the slab owns it, else as an entry of the log to j's slab.
  void Add(uint32_t i, uint32_t j, const Real3& f) {
    fx_[i] += f.x;
    fy_[i] += f.y;
    fz_[i] += f.z;
    ++non_zero_[i];
    if (j >= lo_ && j < hi_) {
      fx_[j] -= f.x;
      fy_[j] -= f.y;
      fz_[j] -= f.z;
      ++non_zero_[j];
    } else {
      forces_.Append(
          forces_.log(slab_, pool_.LogicalSlabOf(total_, j)), j, -f.x, -f.y,
          -f.z);
    }
  }

 private:
  const NumaThreadPool& pool_;
  int64_t total_;
  int64_t lo_;
  int64_t hi_;
  real_t* fx_;
  real_t* fy_;
  real_t* fz_;
  uint32_t* non_zero_;
  int slab_;
  SoaStore::ForceAccumulator& forces_;
};

// Generic Stage A: the environment's pair traversal with the virtual force,
// over the same logical slabs as the fast path.
void ScatterGeneric(const Environment& env, const InteractionForce& force,
                    real_t squared_radius, bool skip_static,
                    NumaThreadPool* pool, SoaStore::ForceAccumulator& forces,
                    uint64_t total) {
  pool->RunLogicalSlabs(static_cast<int64_t>(total),
                        [&](int64_t, int64_t, int slab) {
                          SlabScatter(*pool, forces, total, slab).ZeroRows();
                        });
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
        SlabScatter(*pool, forces, total, slab)
            .Add(pair.a_index, pair.b_index, f);
      });
}

// Stage B, shared by both scatter variants. Each logical slab adds the log
// entries aimed at its rows in (source slab, append order), then runs the
// O6 ladder (static skip -> wake -> threshold -> clamp) and `move`. The
// variants differ only in `is_static(i, agent)` and `move(i, agent, d)`.
template <typename IsStaticFn, typename MoveFn>
void ReplayAndIntegrate(NumaThreadPool* pool,
                        SoaStore::ForceAccumulator& forces, uint64_t total,
                        Agent* const* agents, const Param& param,
                        IsStaticFn is_static, MoveFn move) {
  const bool skip_static = param.detect_static_agents;
  const real_t dt_over_viscosity = param.dt / param.viscosity;
  real_t* fx = forces.fx();
  real_t* fy = forces.fy();
  real_t* fz = forces.fz();
  uint32_t* non_zero = forces.non_zero();
  pool->RunLogicalSlabs(static_cast<int64_t>(total), [&](int64_t lo,
                                                        int64_t hi, int slab) {
    for (int source = 0; source < forces.num_slabs(); ++source) {
      forces.log(source, slab).ForEach(
          [&](uint32_t row, real_t fx_add, real_t fy_add, real_t fz_add) {
            fx[row] += fx_add;
            fy[row] += fy_add;
            fz[row] += fz_add;
            ++non_zero[row];
          });
    }
    uint64_t agent_skips = 0;
    for (int64_t i = lo; i < hi; ++i) {
      if (non_zero[i] == 0) {
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
      if (non_zero[i] > 1) {
        agent->WakeUp();
      }
      const Real3 sum{fx[i], fy[i], fz[i]};
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
      // Self-resolving Add: the slab index is not the executing thread.
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
  SoaStore::ForceAccumulator& forces = store.forces();
  forces.BeginPass(total, pool->NumLogicalSlabs());
  const bool skip_static = param.detect_static_agents;
  const auto count_cross_slab_pairs = [&] {
    if (MetricsRegistry::Enabled()) {
      MetricsRegistry::Get().Add(Metrics().cross_slab_pairs,
                                 forces.LogEntries());
    }
  };

  if (!fast_path) {
    ScatterGeneric(*env, *force, squared_radius, skip_static, pool, forces,
                   total);
    count_cross_slab_pairs();
    ReplayAndIntegrate(
        pool, forces, total, env->DenseAgents(), param,
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

  // Stage A: per logical slab, zero its rows, then traverse and scatter.
  pool->RunLogicalSlabs(static_cast<int64_t>(total), [&](int64_t lo,
                                                        int64_t hi, int slab) {
    SlabScatter scatter(*pool, forces, total, slab);
    scatter.ZeroRows();
    if (lo >= hi) {
      return;
    }
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
          scatter.Add(i, j, f);
        });
    if (pair_skips != 0 && MetricsRegistry::Enabled()) {
      MetricsRegistry::Get().Add(Metrics().static_pair_skips, pair_skips);
    }
  });
  count_cross_slab_pairs();

  // Stage B, writing the displaced position to BOTH the AoS Agent and the
  // store arrays -- the write-back that keeps the store current without a
  // next-iteration refresh pass.
  ReplayAndIntegrate(
      pool, forces, total, store.agents(), param,
      [is_static](int64_t i, Agent*) { return is_static[i] != 0; },
      [&](int64_t i, Agent* agent, const Real3& displacement) {
        const Real3 p = agent->GetPosition() + displacement;
        agent->CommitEnginePosition(p);
        store.WriteBackPosition(static_cast<uint64_t>(i), p);
      });
}

}  // namespace bdm
