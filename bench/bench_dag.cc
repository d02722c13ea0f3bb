// A/B for the operation DAG (DESIGN.md "Operation DAG"): the same
// mechanics+diffusion workload once stepped on the scheduler's op executor
// (diffusion overlapping the fused mechanics pipeline on disjoint worker
// teams of the shared pool) and once through the lane-stepped reference
// (tests/support/lane_step.h: the same op plan run inline in pipeline
// order on a full-pool lane thread, each op over the whole pool -- how
// shard lanes step their shards). The workload couples both subsystems
// every iteration -- secretors deposit into two substance fields, every
// cell chemotaxes along a gradient, and contact forces act on a dense
// packing -- so the diffusion node carries real weight next to the
// mechanics node and the overlap window is what is being measured.
//
// Correctness gates (fail the process, and run before any timing):
//  1. Single-threaded trajectories + probed concentration fields must agree
//     BITWISE between the two: with one worker both execute the identical
//     IEEE operation sequence, merely driven from different lane threads.
//  2. The multi-threaded measured runs must agree on position / field
//     checksums to 1e-3 relative. Deposits fold in a schedule-independent
//     order, but the uniform grid's box lists are built by concurrent CAS
//     inserts: pair-force sums, hence positions, hence the voxels agents
//     deposit into, carry run-to-run rounding noise (mode-independent). A
//     missed DAG edge or team overlap shows up as O(1) divergence.
//
// The DAG-vs-reference speedup depends on hardware concurrency: the
// overlap can only pay when diffusion's poor scaling (barrier- and
// bandwidth-bound) frees cycles mechanics can absorb, so expect ~1.0x on a
// single hardware core and the gain on real multi-core machines.
//
// Emits BENCH_dag.json; the checked-in smoke baseline under
// bench/baselines/smoke/ feeds regress.py (presence gate in --smoke CI,
// timing gate with per-record tol locally).
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "continuum/diffusion_grid.h"
#include "core/agent.h"
#include "core/cell.h"
#include "core/resource_manager.h"
#include "core/simulation.h"
#include "harness.h"
#include "math/random.h"
#include "models/common_behaviors.h"
#include "support/lane_step.h"

namespace bdm::bench {
namespace {

struct Workload {
  uint64_t n = 0;
  real_t space = 0;
  int resolution = 16;
  int substances = 2;
  uint64_t seed = 11;
};

std::vector<DiffusionGrid*> BuildCoupled(Simulation* sim, const Workload& w) {
  std::vector<DiffusionGrid*> grids;
  for (int s = 0; s < w.substances; ++s) {
    auto* grid = sim->AddDiffusionGrid(
        std::make_unique<DiffusionGrid>("substance_" + std::to_string(s),
                                        /*diffusion_coefficient=*/60,
                                        /*decay=*/0.01, w.resolution),
        {0, 0, 0}, {w.space, w.space, w.space});
    const real_t mid = w.space / 2;
    grid->SetInitialValue([mid](const Real3& p) {
      return (p - Real3{mid, mid, mid}).Norm() * real_t{0.01};
    });
    grids.push_back(grid);
  }
  Random random(w.seed);
  auto* rm = sim->GetResourceManager();
  for (uint64_t i = 0; i < w.n; ++i) {
    auto* cell = new Cell(random.UniformPoint(0, w.space), 10);
    DiffusionGrid* grid = grids[i % grids.size()];
    if (i % 4 == 0) {
      cell->AddBehavior(new models::Secretion(grid, 2));
    }
    cell->AddBehavior(new models::Chemotaxis(grid, real_t{0.2}));
    rm->AddAgent(cell);
  }
  return grids;
}

std::map<AgentUid, Real3> Positions(Simulation* sim) {
  std::map<AgentUid, Real3> result;
  sim->GetResourceManager()->ForEachAgent([&](Agent* agent, AgentHandle) {
    result[agent->GetUid()] = agent->GetPosition();
  });
  return result;
}

std::vector<real_t> ProbeFields(const std::vector<DiffusionGrid*>& grids,
                                real_t space) {
  std::vector<real_t> values;
  for (const DiffusionGrid* grid : grids) {
    for (int x = 1; x < 5; ++x) {
      for (int y = 1; y < 5; ++y) {
        for (int z = 1; z < 5; ++z) {
          values.push_back(grid->GetConcentration(
              {space * x / 5, space * y / 5, space * z / 5}));
        }
      }
    }
  }
  return values;
}

struct TrajectoryResult {
  std::map<AgentUid, Real3> positions;
  std::vector<real_t> field;
};

/// Steps `sim` on its op executor, or (`lane_stepped`) through the
/// lane-stepped reference.
void Step(Simulation* sim, uint64_t iterations, bool lane_stepped) {
  if (lane_stepped) {
    test::LaneStep(sim, iterations);
  } else {
    sim->Simulate(iterations);
  }
}

/// Single-threaded coupled trajectory, executor or lane-stepped.
TrajectoryResult RunTrajectory(bool lane_stepped) {
  Param param;
  param.num_threads = 1;
  param.num_numa_domains = 1;
  Simulation sim(lane_stepped ? "dag_traj_lane" : "dag_traj_on", param);
  Workload w;
  w.n = 300;
  w.space = 90;
  w.resolution = 16;
  const auto grids = BuildCoupled(&sim, w);
  Step(&sim, 20, lane_stepped);
  return {Positions(&sim), ProbeFields(grids, w.space)};
}

struct PipelineResult {
  double ns_per_agent_iter = 0;
  double position_checksum = 0;
  double field_checksum = 0;
};

/// Full-pipeline wall time per agent-iteration, executor or lane-stepped.
PipelineResult RunPipeline(bool lane_stepped, const Workload& w,
                           uint64_t iterations, int threads) {
  Param param;
  param.num_threads = threads;
  param.num_numa_domains = threads >= 4 ? 2 : 1;
  Simulation sim(lane_stepped ? "dag_pipeline_lane" : "dag_pipeline_on",
                 param);
  const auto grids = BuildCoupled(&sim, w);
  const auto start = std::chrono::steady_clock::now();
  Step(&sim, iterations, lane_stepped);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  PipelineResult result;
  result.ns_per_agent_iter =
      std::chrono::duration<double, std::nano>(elapsed).count() /
      (static_cast<double>(w.n) * static_cast<double>(iterations));
  for (const auto& [uid, pos] : Positions(&sim)) {
    result.position_checksum += pos.x + pos.y + pos.z;
  }
  for (const real_t value : ProbeFields(grids, w.space)) {
    result.field_checksum += value;
  }
  return result;
}

bool RelClose(double a, double b, double tol) {
  const double scale = std::max(std::fabs(a), std::fabs(b));
  return scale == 0 || std::fabs(a - b) / scale <= tol;
}

int Run() {
  // Fixed smoke sizes (not Scaled): the checked-in smoke baseline matches
  // records by (workload, agents), so the smoke run must always land on the
  // same agent count regardless of BDM_BENCH_SCALE_FACTOR.
  Workload w;
  w.n = SmokeMode() ? 2'000 : Scaled(100'000);
  w.space = 1000 * std::cbrt(static_cast<double>(w.n) / 1'000'000.0);
  w.resolution = SmokeMode() ? 32 : 96;
  w.substances = 2;
  w.seed = 42;
  const uint64_t iterations = SmokeMode() ? 5 : 30;
  const int threads = SmokeMode() ? 4 : 0;  // 0 = hardware concurrency

  // Gate 1: bitwise single-thread equivalence. A fast DAG that drifts from
  // the pipeline-order semantics is a bug, not a speedup.
  const TrajectoryResult reference = RunTrajectory(/*lane_stepped=*/true);
  const TrajectoryResult dag = RunTrajectory(/*lane_stepped=*/false);
  if (reference.positions.size() != dag.positions.size()) {
    std::fprintf(stderr, "trajectory agent-count mismatch: %zu vs %zu\n",
                 reference.positions.size(), dag.positions.size());
    return 1;
  }
  uint64_t drifted = 0;
  auto it = dag.positions.begin();
  for (const auto& [uid, pos] : reference.positions) {
    if (uid != it->first || pos.x != it->second.x || pos.y != it->second.y ||
        pos.z != it->second.z) {
      ++drifted;
    }
    ++it;
  }
  for (size_t i = 0; i < reference.field.size(); ++i) {
    drifted += reference.field[i] != dag.field[i] ? 1 : 0;
  }
  if (drifted != 0) {
    std::fprintf(stderr,
                 "DAG single-thread run drifted from the lane-stepped "
                 "reference on %llu positions/probes\n",
                 static_cast<unsigned long long>(drifted));
    return 1;
  }

  // Measured A/B + gate 2 (checksum agreement of the measured runs).
  const PipelineResult seq = RunPipeline(/*lane_stepped=*/true, w,
                                         iterations, threads);
  const PipelineResult par = RunPipeline(/*lane_stepped=*/false, w,
                                         iterations, threads);
  if (!RelClose(seq.position_checksum, par.position_checksum, 1e-3) ||
      !RelClose(seq.field_checksum, par.field_checksum, 1e-3)) {
    std::fprintf(stderr,
                 "checksum divergence: positions %.17g vs %.17g, fields "
                 "%.17g vs %.17g\n",
                 seq.position_checksum, par.position_checksum,
                 seq.field_checksum, par.field_checksum);
    return 1;
  }
  const double speedup = seq.ns_per_agent_iter / par.ns_per_agent_iter;

  PrintHeader("Full pipeline: lane-stepped reference vs operation DAG");
  std::printf("agents %llu, %llu iterations, 2 substances at %d^3\n",
              static_cast<unsigned long long>(w.n),
              static_cast<unsigned long long>(iterations), w.resolution);
  std::printf("  lane-stepped reference : %8.1f ns/agent-iter\n",
              seq.ns_per_agent_iter);
  std::printf("  op DAG executor        : %8.1f ns/agent-iter  (%.2fx)\n",
              par.ns_per_agent_iter, speedup);
  std::printf("  single-thread trajectories bitwise identical (%zu agents)\n",
              reference.positions.size());
  std::printf("  measured-run checksums agree to 1e-3 relative\n");

  WriteBenchJson("BENCH_dag.json",
                 {{"pipeline_sequential", w.n, seq.ns_per_agent_iter,
                   {{"iterations", static_cast<double>(iterations)}}},
                  {"pipeline_op_dag", w.n, par.ns_per_agent_iter,
                   {{"iterations", static_cast<double>(iterations)},
                    {"speedup_vs_sequential", speedup},
                    {"bitwise_trajectory_agreement", 1.0},
                    {"checksum_agreement", 1.0}}}});
  return 0;
}

}  // namespace
}  // namespace bdm::bench

int main() { return bdm::bench::Run(); }
