// Pipeline-level A/B for the SoA-primary agent store (DESIGN.md "SoA-primary
// store"): the same relaxation workload once with Param::soa_primary ON
// (persistent store, gathered again only after a structural change, +
// MechanicsFusedOp's fused zero/traverse/scatter and fold/integrate/write-back
// passes) and once with it OFF (legacy per-iteration grid mirror + the same
// engine's generic pair traversal with the virtual force).
// Unlike bench_forces -- which times the force kernels in isolation on a
// frozen grid -- this drives the whole scheduler pipeline: environment
// update, staticness passes, mechanics, commit, so the store's maintenance
// cost is part of the measured time, not just its kernel payoff.
//
// Correctness gate: both configurations run single-threaded at small scale
// first and their trajectories must agree BITWISE (the fused engine inlines
// the same IEEE operation sequence as the reference; one worker removes the
// only nondeterminism, grid insert order). A mismatch fails the process.
//
// Emits BENCH_fused.json; the checked-in smoke baseline under
// bench/baselines/smoke/ feeds regress.py (presence gate in --smoke CI,
// timing gate with per-record tol locally).
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>

#include "core/agent.h"
#include "core/cell.h"
#include "core/resource_manager.h"
#include "core/simulation.h"
#include "harness.h"
#include "math/random.h"

namespace bdm::bench {
namespace {

void BuildCells(Simulation* sim, uint64_t n, real_t space, uint64_t seed) {
  Random random(seed);
  auto* rm = sim->GetResourceManager();
  for (uint64_t i = 0; i < n; ++i) {
    rm->AddAgent(new Cell(random.UniformPoint(0, space), 10));
  }
}

std::map<AgentUid, Real3> Snapshot(Simulation* sim) {
  std::map<AgentUid, Real3> result;
  sim->GetResourceManager()->ForEachAgent([&](Agent* agent, AgentHandle) {
    result[agent->GetUid()] = agent->GetPosition();
  });
  return result;
}

/// Single-threaded relaxation trajectory under one store mode.
std::map<AgentUid, Real3> RunTrajectory(bool soa_primary) {
  Param param;
  param.num_threads = 1;
  param.num_numa_domains = 1;
  param.soa_primary = soa_primary;
  Simulation sim(soa_primary ? "fused_traj_soa" : "fused_traj_aos", param);
  BuildCells(&sim, 300, 90, 11);
  sim.Simulate(20);
  return Snapshot(&sim);
}

/// Full-pipeline wall time per agent-iteration under one store mode.
double RunPipelineNs(bool soa_primary, uint64_t n, real_t space,
                     uint64_t iterations) {
  Param param;
  param.num_threads = 4;
  param.num_numa_domains = 2;
  param.soa_primary = soa_primary;
  Simulation sim(soa_primary ? "fused_pipeline_soa" : "fused_pipeline_aos",
                 param);
  BuildCells(&sim, n, space, 42);
  const auto start = std::chrono::steady_clock::now();
  sim.Simulate(iterations);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  return std::chrono::duration<double, std::nano>(elapsed).count() /
         (static_cast<double>(n) * static_cast<double>(iterations));
}

int Run() {
  // Fixed smoke sizes (not Scaled): the checked-in smoke baseline matches
  // records by (workload, agents), so the smoke run must always land on the
  // same agent count regardless of BDM_BENCH_SCALE_FACTOR.
  const uint64_t n = SmokeMode() ? 2'000 : Scaled(200'000);
  const uint64_t iterations = SmokeMode() ? 5 : 50;
  const real_t space = 1000 * std::cbrt(static_cast<double>(n) / 1'000'000.0);

  // Gate first: a fast fused path that drifts from the reference is a bug,
  // not a speedup.
  const auto reference = RunTrajectory(/*soa_primary=*/false);
  const auto fused = RunTrajectory(/*soa_primary=*/true);
  if (reference.size() != fused.size()) {
    std::fprintf(stderr, "trajectory agent-count mismatch: %zu vs %zu\n",
                 reference.size(), fused.size());
    return 1;
  }
  uint64_t drifted = 0;
  auto it = fused.begin();
  for (const auto& [uid, pos] : reference) {
    if (uid != it->first || pos.x != it->second.x || pos.y != it->second.y ||
        pos.z != it->second.z) {
      ++drifted;
    }
    ++it;
  }
  if (drifted != 0) {
    std::fprintf(stderr,
                 "fused trajectory drifted from reference on %llu agents\n",
                 static_cast<unsigned long long>(drifted));
    return 1;
  }

  const double ns_reference =
      RunPipelineNs(/*soa_primary=*/false, n, space, iterations);
  const double ns_fused =
      RunPipelineNs(/*soa_primary=*/true, n, space, iterations);
  const double speedup = ns_reference / ns_fused;

  PrintHeader("Full pipeline: per-iteration mirror vs persistent SoA store");
  std::printf("agents %llu, %llu iterations, threads 4\n",
              static_cast<unsigned long long>(n),
              static_cast<unsigned long long>(iterations));
  std::printf("  mirror + generic path (soa_primary=0) : %8.1f ns/agent-iter\n",
              ns_reference);
  std::printf(
      "  store + fast path (soa_primary=1)     : %8.1f ns/agent-iter  "
      "(%.2fx)\n",
      ns_fused, speedup);
  std::printf("  single-thread trajectories bitwise identical (%zu agents)\n",
              reference.size());

  WriteBenchJson("BENCH_fused.json",
                 {{"pipeline_mirror_reference", n, ns_reference,
                   {{"iterations", static_cast<double>(iterations)}}},
                  {"pipeline_soa_fused", n, ns_fused,
                   {{"iterations", static_cast<double>(iterations)},
                    {"speedup_vs_reference", speedup},
                    {"bitwise_trajectory_agreement", 1.0}}}});
  return 0;
}

}  // namespace
}  // namespace bdm::bench

int main() { return bdm::bench::Run(); }
