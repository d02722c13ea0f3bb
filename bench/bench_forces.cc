// A/B benchmark for the pair-symmetric mechanics engine (DESIGN.md
// Section 5): the same collision-force step once through the per-agent
// reference path (every agent runs CalculateDisplacement, so every pair
// force is computed twice -- once from each endpoint) and once through the
// engine's own force pass, MechanicsFusedOp's fast path (half-stencil
// traversal over the persistent SoaStore, every pair force computed once
// and scattered +F/-F into the store's force rows and cross-slab logs, then
// one replay-and-integrate pass).
//
// Besides timing, the bench is a correctness harness: the two kernels must
// agree exactly on the per-agent non-zero-force counts (the force is exactly
// antisymmetric in IEEE arithmetic), agree on displacements up to
// accumulation-order rounding, and the engine's total force over all
// agents must vanish (momentum conservation -- +F/-F scatter by
// construction). It also reports the force accumulator's bytes per agent
// and the share of pairs that cross logical slabs: agents are added in
// random order and never sorted, so this is the worst layout for the logs.
//
// Emits BENCH_forces.json (ns per agent-step per kernel, speedup, checksum,
// residual momentum, accumulator bytes, cross-slab share) next to stdout.
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "core/cell.h"
#include "core/resource_manager.h"
#include "core/simulation.h"
#include "core/soa_store.h"
#include "env/environment.h"
#include "harness.h"
#include "math/random.h"
#include "physics/interaction_force.h"
#include "physics/mechanics_fused_op.h"

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
  // The engine's pass runs with a zero displacement clamp, so it computes
  // every force and displacement but moves no agent: positions stay fixed
  // and the best-of-3 passes repeat the same work. The displacements
  // compared below are derived from its force rows under `param`.
  Param frozen = param;
  frozen.max_displacement = 0;
  Simulation sim("bench_forces", frozen);
  ResourceManager* rm = sim.GetResourceManager();
  NumaThreadPool& pool = *sim.GetThreadPool();
  Random random(42);
  for (uint64_t i = 0; i < n; ++i) {
    rm->AddAgent(new Cell(random.UniformPoint(0, space), 10));
  }
  Environment* grid = sim.GetEnvironment();
  grid->Update(*rm, &pool);

  const InteractionForce& force = *sim.GetInteractionForce();
  const uint64_t count = grid->DenseAgentCount();
  Agent* const* dense = grid->DenseAgents();

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
  // each pair force is computed from both endpoints. It does not apply its
  // displacement either.
  std::vector<Real3> disp_a(count);
  std::vector<int> nzf_a(count, 0);
  const double ns_per_agent =
      MeasureNsPerAgent(count, [&] {
        pool.RunLogicalSlabs(count, [&](int64_t lo, int64_t hi, int) {
          for (int64_t i = lo; i < hi; ++i) {
            disp_a[i] = dense[i]->CalculateDisplacement(&force, grid, param,
                                                        &nzf_a[i]);
          }
        });
      });

  // B: the engine's force pass.
  MechanicsFusedOp engine;
  const double ns_fused =
      MeasureNsPerAgent(count, [&] { engine.Run(&sim); });
  const SoaStore::ForceAccumulator& forces = rm->GetSoaStore().forces();
  std::vector<Real3> disp_b(count);
  std::vector<int> nzf_b(count, 0);
  Real3 net{};
  for (uint64_t i = 0; i < count; ++i) {
    const Real3 sum{forces.fx()[i], forces.fy()[i], forces.fz()[i]};
    nzf_b[i] = static_cast<int>(forces.non_zero()[i]);
    if (nzf_b[i] != 0) {
      net += sum;
      disp_b[i] = displacement_of(sum);
    }
  }

  // --- cross-checks --------------------------------------------------------
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
  // Every non-zero pair force shows once in each endpoint's count.
  const double pairs = static_cast<double>(pair_interactions) / 2;
  const double cross_slab_share =
      pairs > 0 ? static_cast<double>(forces.LogEntries()) / pairs : 0;
  const double force_bytes_per_agent =
      static_cast<double>(forces.Bytes()) / static_cast<double>(count);
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
  std::printf("  force accumulator %.1f B/agent, cross-slab pairs %.1f%%\n",
              force_bytes_per_agent, 100 * cross_slab_share);

  WriteBenchJson(
      "BENCH_forces.json",
      {{"forces_per_agent", n, ns_per_agent,
        {{"pair_forces_per_agent",
          static_cast<double>(pair_interactions) / static_cast<double>(n)}}},
       {"forces_fused", n, ns_fused,
        {{"speedup_vs_per_agent", speedup},
         {"displacement_checksum", checksum},
         {"net_momentum", net_momentum},
         {"force_bytes_per_agent", force_bytes_per_agent},
         {"cross_slab_share", cross_slab_share}}}});
  return 0;
}

}  // namespace
}  // namespace bdm::bench

int main() { return bdm::bench::Run(); }
