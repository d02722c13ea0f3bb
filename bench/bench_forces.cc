// A/B benchmark for the pair-symmetric mechanics engine (DESIGN.md
// Section 5): the same collision-force step once through the per-agent
// reference path (every agent runs CalculateDisplacement, so every pair
// force is computed twice -- once from each endpoint) and once through the
// fused kernel of MechanicsFusedOp's fast path (half-stencil traversal over
// the persistent SoaStore, every pair force computed once and scattered
// +F/-F into per-slab shards, then one fold pass).
//
// Besides timing, the bench is a correctness harness: the two kernels must
// agree exactly on the per-agent non-zero-force counts (the force is exactly
// antisymmetric in IEEE arithmetic), agree on displacements up to
// accumulation-order rounding, and the fused kernel's total force over all
// agents must vanish (momentum conservation -- +F/-F scatter by
// construction).
//
// Emits BENCH_forces.json (ns per agent-step per kernel, speedup, checksum,
// residual momentum) next to stdout.
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <vector>

#include "core/cell.h"
#include "core/resource_manager.h"
#include "core/soa_store.h"
#include "env/uniform_grid.h"
#include "harness.h"
#include "math/random.h"
#include "physics/force_kernel.h"
#include "physics/interaction_force.h"

namespace bdm::bench {
namespace {

template <typename Kernel>
double MeasureNsPerAgent(uint64_t agents, Kernel&& kernel) {
  double best = 1e30;
  for (int pass = 0; pass < 3; ++pass) {
    const auto start = std::chrono::steady_clock::now();
    kernel();
    const auto elapsed = std::chrono::steady_clock::now() - start;
    best = std::min(best,
                    std::chrono::duration<double, std::nano>(elapsed).count() /
                        static_cast<double>(agents));
  }
  return best;
}

int Run() {
  const uint64_t n = SmokeMode() ? 2'000 : Scaled(500'000);
  // Same density as bench_neighbor: diameter-10 cells, ~4 accepted
  // neighbors per agent (1M agents in a 1000^3 cube).
  const real_t space = 1000 * std::cbrt(static_cast<double>(n) / 1'000'000.0);

  Param param;
  param.num_threads = 4;
  param.num_numa_domains = 2;
  NumaThreadPool pool(Topology(param.num_threads, param.num_numa_domains));
  AgentUidGenerator gen;
  ResourceManager rm(param, &pool, &gen);
  Random random(42);
  for (uint64_t i = 0; i < n; ++i) {
    rm.AddAgent(new Cell(random.UniformPoint(0, space), 10));
  }
  UniformGridEnvironment grid(param);
  grid.Update(rm, &pool);

  const real_t radius = grid.GetInteractionRadius();
  const real_t squared_radius = radius * radius;
  InteractionForce force;
  const uint64_t count = grid.DenseAgentCount();
  Agent* const* dense = grid.DenseAgents();
  const auto slabs = pool.MakeSlabPartition(0, static_cast<int64_t>(count));

  // Neither kernel applies its displacement (positions must stay fixed so
  // the best-of-3 passes repeat the same work); both write results into
  // dense-indexed arrays for the cross-check.
  const auto displacement_of = [&](const Real3& total) -> Real3 {
    if (total.SquaredNorm() < param.force_threshold_squared) {
      return {0, 0, 0};
    }
    Real3 displacement = total * (param.dt / param.viscosity);
    const real_t norm = displacement.Norm();
    if (norm > param.max_displacement) {
      displacement *= param.max_displacement / norm;
    }
    return displacement;
  };

  // A: per-agent reference. Every agent walks its own 27-box neighborhood;
  // each pair force is computed from both endpoints.
  std::vector<Real3> disp_a(count);
  std::vector<int> nzf_a(count, 0);
  const double ns_per_agent =
      MeasureNsPerAgent(count, [&] {
        pool.RunSlabs(slabs, [&](int64_t lo, int64_t hi, int) {
          for (int64_t i = lo; i < hi; ++i) {
            disp_a[i] = dense[i]->CalculateDisplacement(&force, &grid, param,
                                                        &nzf_a[i]);
          }
        });
      });

  // B: fused SoA engine. The half-stencil pair set, with the zeroing fused
  // into the traversal dispatch, the force being the inlined branch-free
  // kernel evaluated straight off the persistent store's arrays (no Agent
  // access, no virtual call), and the scatter going into the store's
  // shards -- MechanicsFusedOp's fast path without the integration.
  SoaStore& store = rm.GetSoaStore();
  SoaStore::ForceShards& shards = store.force_shards();
  const real_t* px = store.pos_x();
  const real_t* py = store.pos_y();
  const real_t* pz = store.pos_z();
  const real_t* dia = store.diameter();
  const real_t repulsion = force.repulsion();
  const real_t attraction = force.attraction();
  const real_t attraction_range = force.attraction_range();
  std::vector<Real3> disp_b(count);
  std::vector<int> nzf_b(count, 0);
  std::vector<Real3> momentum(pool.NumThreads());
  const double ns_fused = MeasureNsPerAgent(count, [&] {
    for (auto& m : momentum) {
      m = {0, 0, 0};
    }
    shards.Ensure(pool.NumThreads(), count);
    pool.Run([&](int tid) {
      SoaStore::ForceShard& shard = shards.shard(tid);
      std::memset(shard.fx.data(), 0, count * sizeof(real_t));
      std::memset(shard.fy.data(), 0, count * sizeof(real_t));
      std::memset(shard.fz.data(), 0, count * sizeof(real_t));
      std::memset(shard.non_zero.data(), 0, count * sizeof(uint32_t));
      const int64_t lo = slabs.bounds[tid];
      const int64_t hi = slabs.bounds[tid + 1];
      if (lo >= hi) {
        return;
      }
      real_t* fx = shard.fx.data();
      real_t* fy = shard.fy.data();
      real_t* fz = shard.fz.data();
      uint32_t* non_zero = shard.non_zero.data();
      grid.ForEachNeighborPairInSlab(
          squared_radius, lo, hi, [&](uint32_t i, uint32_t j, real_t d2) {
            const real_t dx = px[i] - px[j];
            const real_t dy = py[i] - py[j];
            const real_t dz = pz[i] - pz[j];
            const real_t sum_radii =
                dia[i] * real_t{0.5} + dia[j] * real_t{0.5};
            const Real3 f = detail::SphereForceKernel(
                dx, dy, dz, d2, sum_radii, repulsion, attraction,
                attraction_range);
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
    });
    const int num_shards = shards.num_shards();
    pool.RunSlabs(slabs, [&](int64_t lo, int64_t hi, int tid) {
      for (int64_t i = lo; i < hi; ++i) {
        Real3 sum{};
        uint32_t nz = 0;
        for (int t = 0; t < num_shards; ++t) {
          const SoaStore::ForceShard& shard = shards.shard(t);
          sum.x += shard.fx[i];
          sum.y += shard.fy[i];
          sum.z += shard.fz[i];
          nz += shard.non_zero[i];
        }
        if (nz == 0) {
          disp_b[i] = {0, 0, 0};
          nzf_b[i] = 0;
          continue;
        }
        momentum[tid] += sum;
        disp_b[i] = displacement_of(sum);
        nzf_b[i] = static_cast<int>(nz);
      }
    });
  });

  // --- cross-checks --------------------------------------------------------
  Real3 net{};
  for (const Real3& m : momentum) {
    net += m;
  }
  double force_scale = 0;
  double checksum = 0;
  uint64_t pair_interactions = 0;
  uint64_t mismatches = 0;
  for (uint64_t i = 0; i < count; ++i) {
    pair_interactions += static_cast<uint64_t>(nzf_b[i]);
    force_scale += disp_a[i].Norm();
    checksum += disp_b[i].x + disp_b[i].y + disp_b[i].z;
    if (nzf_a[i] != nzf_b[i]) {
      ++mismatches;
      continue;
    }
    for (int c = 0; c < 3; ++c) {
      if (std::abs(disp_a[i][c] - disp_b[i][c]) >
          1e-9 + 1e-9 * std::abs(disp_a[i][c])) {
        ++mismatches;
        break;
      }
    }
  }
  const double net_momentum = net.Norm();
  if (mismatches != 0) {
    std::fprintf(stderr, "fused/per-agent disagreement on %llu agents\n",
                 static_cast<unsigned long long>(mismatches));
    return 1;
  }
  if (net_momentum > 1e-8 * std::max(1.0, force_scale)) {
    std::fprintf(stderr, "momentum not conserved: |net force| = %g\n",
                 net_momentum);
    return 1;
  }

  const double speedup = ns_per_agent / ns_fused;
  PrintHeader("Mechanical forces: per-agent vs pair-symmetric fused engine");
  std::printf("agents %llu, %.2f pair forces/agent, threads %d\n",
              static_cast<unsigned long long>(n),
              static_cast<double>(pair_interactions) / static_cast<double>(n),
              param.num_threads);
  std::printf("  per-agent (2x force evals) : %8.1f ns/agent-step\n",
              ns_per_agent);
  std::printf("  fused SoA (1x evals)       : %8.1f ns/agent-step  (%.2fx)\n",
              ns_fused, speedup);
  std::printf("  displacement checksum %.12g, |net force| %.3g\n", checksum,
              net_momentum);

  WriteBenchJson(
      "BENCH_forces.json",
      {{"forces_per_agent", n, ns_per_agent,
        {{"pair_forces_per_agent",
          static_cast<double>(pair_interactions) / static_cast<double>(n)}}},
       {"forces_fused", n, ns_fused,
        {{"speedup_vs_per_agent", speedup},
         {"displacement_checksum", checksum},
         {"net_momentum", net_momentum}}}});
  return 0;
}

}  // namespace
}  // namespace bdm::bench

int main() { return bdm::bench::Run(); }
