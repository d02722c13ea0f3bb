// Engine configuration.
//
// Every optimization the paper evaluates is an independent toggle here, so
// the benchmark harnesses can reproduce the "progressively switched on"
// studies (Figures 7b, 8, 9) and the parameter sweeps (Figures 11, 12, 13).
// A post-paper path keeps a toggle only while an A/B comparison still needs
// it (soa_primary). The scheduler and the sharded engine have none: every
// iteration runs its due ops in pipeline order on the calling thread, two
// or more local shards always step on concurrent lanes, and their
// references live test-side (tests/support/lane_step.h,
// tests/support/sequential_shard_step.h).
// ApplyEnvOverrides below is the one place environment variables reach a
// Param.
#ifndef BDM_CORE_PARAM_H_
#define BDM_CORE_PARAM_H_

#include <cstdint>
#include <cstdlib>
#include <thread>

#include "math/real.h"
#include "memory/numa_pool_allocator.h"

namespace bdm {

/// Selects the Environment implementation (paper Section 6.9, Figure 11).
enum class EnvironmentType {
  kUniformGrid,  // the paper's optimized grid (Section 3.1)
  kKdTree,       // nanoflann-style kd-tree baseline
  kOctree,       // Behley-style octree baseline
};

/// Space-filling curve used by agent sorting (paper Section 4.2: Morton by
/// default; Hilbert gained only 0.54% and costs more to decode).
enum class SortingCurve {
  kMorton,
  kHilbert,
};

struct Param {
  // --- execution substrate -------------------------------------------------
  /// Worker threads. 0 means std::thread::hardware_concurrency().
  int num_threads = 0;
  /// Simulated NUMA domains (see numa/topology.h).
  int num_numa_domains = 1;
  /// Agents per iteration block handed to a worker (paper Fig. 2 step 2).
  int64_t iteration_block_size = 1024;

  // --- optimization toggles ------------------------------------------------
  EnvironmentType environment = EnvironmentType::kUniformGrid;
  /// O3: match threads with agents of their own NUMA domain (Section 4.1).
  bool numa_aware_iteration = true;
  /// O2: commit agent additions/removals with the parallel algorithm
  /// (Section 3.2). When false, a serial reference commit is used.
  bool parallel_commit = true;
  /// O4: agent sorting/balancing frequency in iterations; 0 disables it
  /// (Section 4.2, Figure 12).
  int agent_sort_frequency = 10;
  /// O4 variant: keep old agent copies alive until the whole sorting step
  /// finished ("extra memory during agent sorting", Section 4.2 step G).
  bool sort_with_extra_memory = false;
  /// O4 variant: space-filling curve for the sort order (ablation knob).
  SortingCurve sorting_curve = SortingCurve::kMorton;
  /// O5: route Agent/Behavior allocations through the pool memory manager
  /// (Section 4.3).
  bool use_bdm_memory_manager = true;
  /// O6: skip collision forces for provably static agents (Section 5).
  bool detect_static_agents = false;
  /// Pair-symmetric mechanics (MechanicsFusedOp): compute every pairwise
  /// collision force once (pair traversal + one force row per agent) instead
  /// of twice, exploiting Newton's third law. When false, the per-agent
  /// reference path (Cell::CalculateDisplacement per agent) runs instead.
  bool pair_symmetric_forces = true;
  /// SoA-primary mechanics: the persistent SoA store (core/soa_store.h) is
  /// the working copy of agent geometry -- the uniform grid reads it instead
  /// of filling a private mirror, and (with pair_symmetric_forces)
  /// MechanicsFusedOp's fast path runs pair forces + displacement
  /// integration over the store arrays, writing AoS positions back in the
  /// same pass. When false, the grid keeps its own per-iteration mirror and
  /// the engine takes its generic path; that is the bitwise A/B reference
  /// for the fast path.
  bool soa_primary = true;

  // --- memory manager ------------------------------------------------------
  NumaPoolAllocator::Config memory;  // mem_mgr_growth_rate & friends

  // --- simulation space & physics -----------------------------------------
  /// Fixed uniform-grid box length; 0 derives it from the largest agent
  /// diameter at every environment update.
  real_t fixed_box_length = 0;
  /// Timestep passed to behaviors and the displacement integration.
  real_t dt = 0.01;
  /// Viscosity-like damping: displacement = force * dt / viscosity.
  real_t viscosity = 1.0;
  /// Displacements above this are clamped (numerical safety, BioDynaMo
  /// exposes the same knob as simulation_max_displacement).
  real_t max_displacement = 3.0;
  /// Forces with squared magnitude below this do not move an agent; also the
  /// "force threshold" of the static-agent conditions (Section 5).
  real_t force_threshold_squared = 1e-10;

  // --- observability -------------------------------------------------------
  /// Collect engine counters/gauges (obs/metrics.h) and flush them once per
  /// iteration. Costs a per-thread memory increment at the instrumented
  /// sites (measured <= 2% on bench_forces, see EXPERIMENTS.md); turn off
  /// for peak-performance runs or A/B overhead measurements. The env var
  /// BDM_METRICS=0 forces this off without a code change.
  bool collect_metrics = true;

  // --- correctness tooling -------------------------------------------------
  /// Run the ConsistencyAudit scheduler op every N iterations; 0 disables
  /// it. The audit verifies the uid-map <-> agent-vector bijection, the
  /// custom-mechanics counter, and the environment's index/mirror agreement
  /// after the environment update, and throws on the first violation.
  /// Debug/tsan test builds force this to 1 via BDM_AUDIT_INTERVAL.
  int audit_interval = 0;

  // --- misc ----------------------------------------------------------------
  uint64_t random_seed = 4357;
  /// kd-tree leaf size (validated against the optimum in Section 6.9).
  int kd_tree_max_leaf = 32;
  /// Octree bucket size (same role as the UniBN bucket parameter).
  int octree_bucket_size = 16;

  int ResolveNumThreads() const {
    if (num_threads > 0) {
      return num_threads;
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
  }
};

/// Applies the environment-variable overrides to `param`; every
/// Simulation and ShardedSimulation constructor calls this on its copy.
///   BDM_AUDIT_INTERVAL=N (N > 0) sets audit_interval: debug/tsan test runs
///     export 1 so every simulation self-checks each iteration without the
///     test code opting in (see tests/CMakeLists.txt);
///   BDM_METRICS=0 turns collect_metrics off.
inline void ApplyEnvOverrides(Param* param) {
  if (const char* audit = std::getenv("BDM_AUDIT_INTERVAL")) {
    const int interval = std::atoi(audit);
    if (interval > 0) {
      param->audit_interval = interval;
    }
  }
  if (const char* metrics = std::getenv("BDM_METRICS")) {
    if (metrics[0] == '0') {
      param->collect_metrics = false;
    }
  }
}

}  // namespace bdm

#endif  // BDM_CORE_PARAM_H_
