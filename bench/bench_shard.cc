// Gate + measurement for the spatially-sharded engine (src/shard/):
// TeraAgent-in-one-process domain decomposition with delta-encoded halo
// exchange (agents AND diffusion-field boundary slabs) over the in-process
// mailbox transport.
//
// Correctness gates (fail the process, run before any timing):
//  1. S=1 must be BITWISE identical to an unsharded single-threaded run --
//     agent positions and every voxel of the concentration field: the shard
//     layer skips all exchanges for one shard, so any drift means the
//     wrapper changed engine semantics.
//  2. Pure diffusion (no agents), S in {2, 4}: every shard's grid is a
//     window onto the same global lattice, and the field halo exchange must
//     keep the stitched global field BITWISE identical to the unsharded
//     solver, voxel for voxel. No tolerance: the ghost-plane stencil
//     reproduces the identical FP expression, so equality is exact.
//  3. Full workload (mechanics + secretion deposits that cross shard
//     faces), S in {2, 4}, CheckShards + CheckShardFields every iteration:
//       - owned-agent count conserved (migrations move, never create or
//         destroy),
//       - total momentum: pair forces across a shard boundary are computed
//         twice from bitwise-identical ghost geometry, so the summed
//         displacement drift per agent must stay below 1e-9,
//       - the stitched global concentration field must match the unsharded
//         reference at <= 1e-9 relative PER VOXEL. This replaces the old
//         per-shard mass bookkeeping (which an entirely broken boundary
//         treatment satisfied, since reflecting walls also conserve mass).
//  4. Parallel lane stepping (Param::parallel_shards), S in {2, 4}, audited
//     every iteration, must be BITWISE identical to the sequential loop --
//     positions and field. Concurrency may only change WHEN shards step,
//     never what they compute.
//
// The measured section reports ns/agent-iteration for S in {1, 2, 4} on
// the same workload plus the exchange counters (migrations, halo records,
// wire bytes, field halo slabs/bytes -- the delta codecs' compression is
// visible as bytes/record), then re-times S in {2, 4} with the shards
// stepping concurrently on DagExecutor lanes (rows shard_par_s*). No timing
// is asserted here: regress.py's strict mode checks that shard_par_s4 beats
// shard_s4 in the same fresh BENCH_shard.json.
// Emits BENCH_shard.json; the checked-in smoke baseline under
// bench/baselines/smoke/ feeds regress.py (presence gate in --smoke CI).
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "continuum/diffusion_grid.h"
#include "core/agent.h"
#include "core/cell.h"
#include "core/consistency_audit.h"
#include "core/resource_manager.h"
#include "core/simulation.h"
#include "harness.h"
#include "math/random.h"
#include "models/common_behaviors.h"
#include "obs/metrics.h"
#include "shard/sharded_simulation.h"

namespace bdm::bench {
namespace {

struct Workload {
  uint64_t n = 0;
  real_t space = 0;    // global volume edge length
  int resolution = 0;  // GLOBAL diffusion lattice points per axis
  uint64_t seed = 4357;
  uint64_t iterations = 0;
  bool secrete = false;  // agents deposit into the field every iteration
};

/// Deposit per unit time for secreting agents; at dt = 0.01 each agent adds
/// 0.1 to its voxel per iteration -- the same order as the seeded field, so
/// a dropped or double-counted cross-face deposit is far above the 1e-9
/// field gate.
constexpr real_t kSecretionRate = 10;

Param ShardParam(int threads) {
  Param param;
  param.num_threads = threads;
  param.num_numa_domains = threads >= 4 ? 2 : 1;
  // Uniform neighbor-search radius across all shards (the halo width must
  // cover every shard's interaction radius exactly), and no per-agent
  // force/displacement cutoffs -- both would break the exact pairwise
  // antisymmetry the momentum gate measures.
  param.fixed_box_length = 10;
  param.force_threshold_squared = 0;
  param.max_displacement = 1e9;
  return param;
}

/// Slightly overlapping random packing: every cell starts in contact so the
/// relaxation exercises forces, migrations, and halo churn from step one.
std::vector<Real3> MakePositions(const Workload& w) {
  Random random(w.seed);
  std::vector<Real3> positions;
  positions.reserve(w.n);
  for (uint64_t i = 0; i < w.n; ++i) {
    positions.push_back(random.UniformPoint(0, w.space));
  }
  return positions;
}

std::function<std::unique_ptr<DiffusionGrid>()> GridFactory(
    const Workload& w) {
  return [&w]() {
    auto grid = std::make_unique<DiffusionGrid>("oxygen",
                                                /*diffusion_coefficient=*/40,
                                                /*decay=*/0, w.resolution);
    grid->SetBoundaryCondition(DiffusionGrid::BoundaryCondition::kClosed);
    return grid;
  };
}

void SeedField(DiffusionGrid* grid, real_t space) {
  const real_t mid = space / 2;
  grid->SetInitialValue([mid](const Real3& p) {
    return 1 + (p - Real3{mid, mid, mid}).Norm() * real_t{0.01};
  });
}

/// Stitches the global concentration field together from the owning shard
/// of every voxel. Works for the unsharded case too (one grid owning the
/// whole lattice): the shards' owned boxes tile the global lattice
/// disjointly, so each voxel is written exactly once.
std::vector<double> GatherField(const std::vector<DiffusionGrid*>& grids) {
  const int64_t res = grids[0]->GetResolution();
  std::vector<double> field(static_cast<size_t>(res) * res * res, 0.0);
  for (DiffusionGrid* grid : grids) {
    for (int64_t z = grid->OwnedLo(2); z < grid->OwnedHi(2); ++z) {
      for (int64_t y = grid->OwnedLo(1); y < grid->OwnedHi(1); ++y) {
        for (int64_t x = grid->OwnedLo(0); x < grid->OwnedHi(0); ++x) {
          field[static_cast<size_t>(x + res * (y + res * z))] =
              static_cast<double>(grid->AtGlobal(x, y, z));
        }
      }
    }
  }
  return field;
}

/// Worst per-voxel relative difference (denominator max(1, |reference|)).
double MaxVoxelError(const std::vector<double>& field,
                     const std::vector<double>& reference) {
  double worst = 0;
  for (size_t i = 0; i < field.size(); ++i) {
    const double err = std::fabs(field[i] - reference[i]) /
                       std::max(1.0, std::fabs(reference[i]));
    worst = std::max(worst, err);
  }
  return worst;
}

bool BitwiseSameField(const std::vector<double>& a,
                      const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

struct ShardedRun {
  std::map<AgentUid, Real3> positions;
  uint64_t owned = 0;
  std::vector<double> field;  // stitched global lattice, x-fastest
  Real3 momentum_drift;       // sum over agents of (final - initial position)
  double ns_per_agent_iter = 0;
};

ShardedRun RunSharded(const Workload& w, int num_shards, int threads,
                      int audit_interval, bool parallel = false) {
  Param param = ShardParam(threads);
  param.audit_interval = audit_interval;
  param.parallel_shards = parallel;
  shard::ShardedSimulation sim("bench_shard_s" + std::to_string(num_shards) +
                                   (parallel ? "_par" : ""),
                               param, {0, 0, 0}, {w.space, w.space, w.space},
                               num_shards);
  sim.AddDiffusionGrid(GridFactory(w));
  std::vector<DiffusionGrid*> grids;
  for (int s = 0; s < sim.NumShards(); ++s) {
    Simulation* previous = Simulation::SetActive(sim.GetShard(s)->sim());
    grids.push_back(sim.GetShard(s)->sim()->GetAllDiffusionGrids()[0]);
    SeedField(grids.back(), w.space);
    Simulation::SetActive(previous);
  }
  Real3 initial_sum;
  for (const Real3& p : MakePositions(w)) {
    initial_sum += p;
    sim.AddAgent(new Cell(p, 8));
  }
  if (w.secrete) {
    // Bind each agent's secretion to its owner shard's grid; migration
    // re-resolves the grid by substance name in the destination shard.
    for (int s = 0; s < sim.NumShards(); ++s) {
      sim.GetShard(s)->sim()->GetResourceManager()->ForEachAgent(
          [&](Agent* agent, AgentHandle) {
            if (!agent->IsGhost()) {
              agent->AddBehavior(
                  new models::Secretion(grids[s], kSecretionRate));
            }
          });
    }
  }

  const auto start = std::chrono::steady_clock::now();
  sim.Simulate(w.iterations);
  const auto elapsed = std::chrono::steady_clock::now() - start;

  ShardedRun result;
  result.ns_per_agent_iter =
      std::chrono::duration<double, std::nano>(elapsed).count() /
      (static_cast<double>(w.n > 0 ? w.n : 1) *
       static_cast<double>(w.iterations));
  result.owned = sim.TotalOwned();
  Real3 final_sum;
  for (int s = 0; s < sim.NumShards(); ++s) {
    sim.GetShard(s)->sim()->GetResourceManager()->ForEachAgent(
        [&](Agent* agent, AgentHandle) {
          if (agent->IsGhost()) {
            return;
          }
          final_sum += agent->GetPosition();
          result.positions[agent->GetUid()] = agent->GetPosition();
        });
  }
  result.field = GatherField(grids);
  result.momentum_drift = final_sum - initial_sum;
  return result;
}

/// Reference for the gates: a plain unsharded Simulation over the identical
/// workload, single-threaded.
ShardedRun RunUnsharded(const Workload& w) {
  Simulation sim("bench_shard_reference", ShardParam(1));
  auto* grid = sim.AddDiffusionGrid(GridFactory(w)(), {0, 0, 0},
                                    {w.space, w.space, w.space});
  SeedField(grid, w.space);
  for (const Real3& p : MakePositions(w)) {
    auto* cell = new Cell(p, 8);
    if (w.secrete) {
      cell->AddBehavior(new models::Secretion(grid, kSecretionRate));
    }
    sim.GetResourceManager()->AddAgent(cell);
  }
  sim.Simulate(w.iterations);
  ShardedRun result;
  result.owned = sim.GetResourceManager()->GetNumAgents();
  sim.GetResourceManager()->ForEachAgent([&](Agent* agent, AgentHandle) {
    result.positions[agent->GetUid()] = agent->GetPosition();
  });
  result.field = GatherField({grid});
  return result;
}

bool BitwiseSamePositions(const std::map<AgentUid, Real3>& a,
                          const std::map<AgentUid, Real3>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  auto it = b.begin();
  for (const auto& [uid, pos] : a) {
    if (uid != it->first || pos.x != it->second.x || pos.y != it->second.y ||
        pos.z != it->second.z) {
      return false;
    }
    ++it;
  }
  return true;
}

int Run() {
  Workload w;
  w.n = SmokeMode() ? 2'000 : Scaled(50'000);
  w.space = static_cast<real_t>(8.2 * std::cbrt(static_cast<double>(w.n)));
  w.resolution = SmokeMode() ? 16 : 32;
  w.iterations = SmokeMode() ? 8 : 25;
  w.secrete = true;
  const int threads = SmokeMode() ? 4 : 0;  // 0 = hardware concurrency

  // --- Gate 1: S=1 is bitwise identical to an unsharded run ---------------
  Workload gate = w;
  gate.n = std::min<uint64_t>(w.n, 512);
  gate.space =
      static_cast<real_t>(8.2 * std::cbrt(static_cast<double>(gate.n)));
  gate.iterations = 8;
  const ShardedRun reference = RunUnsharded(gate);
  const ShardedRun single =
      RunSharded(gate, /*num_shards=*/1, /*threads=*/1, /*audit_interval=*/0);
  if (!BitwiseSamePositions(reference.positions, single.positions) ||
      !BitwiseSameField(reference.field, single.field)) {
    std::fprintf(stderr,
                 "S=1 drifted from the unsharded reference (%zu vs %zu "
                 "agents, max voxel error %.3g)\n",
                 reference.positions.size(), single.positions.size(),
                 MaxVoxelError(single.field, reference.field));
    return 1;
  }

  // --- Gate 2: pure diffusion is bitwise across the shard seams -----------
  // No agents: the field halo exchange is the only cross-shard traffic, and
  // the sacrificial ghost-plane stepping must reproduce the unsharded sweep
  // exactly -- any per-voxel difference at all is a boundary-treatment bug
  // (the pre-exchange engine produced reflecting walls here).
  Workload diffusion_only = gate;
  diffusion_only.n = 0;
  diffusion_only.secrete = false;
  const ShardedRun field_reference = RunUnsharded(diffusion_only);
  for (const int s : {2, 4}) {
    ShardedRun run;
    try {
      run = RunSharded(diffusion_only, s, threads, /*audit_interval=*/1);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "S=%d field audit failure: %s\n", s, e.what());
      return 1;
    }
    if (!BitwiseSameField(run.field, field_reference.field)) {
      std::fprintf(stderr,
                   "S=%d pure-diffusion field is not bitwise identical to "
                   "the unsharded solver (max voxel error %.3g)\n",
                   s, MaxVoxelError(run.field, field_reference.field));
      return 1;
    }
  }

  // --- Gate 3: full workload conserves count/momentum and matches the -----
  // --- unsharded field at 1e-9 per voxel ----------------------------------
  // CheckShards + CheckShardFields run inside Simulate every iteration
  // (audit_interval=1) and throw on any cross-shard violation, including
  // non-bitwise ghost planes and field-mass loss during the exchange.
  for (const int s : {2, 4}) {
    ShardedRun run;
    try {
      run = RunSharded(gate, s, threads, /*audit_interval=*/1);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "S=%d audit failure: %s\n", s, e.what());
      return 1;
    }
    if (run.owned != gate.n) {
      std::fprintf(stderr, "S=%d lost agents: %llu of %llu\n", s,
                   static_cast<unsigned long long>(run.owned),
                   static_cast<unsigned long long>(gate.n));
      return 1;
    }
    const double drift =
        std::max({std::fabs(run.momentum_drift.x),
                  std::fabs(run.momentum_drift.y),
                  std::fabs(run.momentum_drift.z)}) /
        static_cast<double>(gate.n);
    if (drift > 1e-9) {
      std::fprintf(stderr, "S=%d momentum drift %.3g per agent exceeds 1e-9\n",
                   s, drift);
      return 1;
    }
    const double voxel_error = MaxVoxelError(run.field, reference.field);
    if (voxel_error > 1e-9) {
      std::fprintf(stderr,
                   "S=%d concentration field drifted from the unsharded "
                   "reference: max voxel error %.3g exceeds 1e-9\n",
                   s, voxel_error);
      return 1;
    }

    // --- Gate 4: lane stepping is bitwise identical to the loop -----------
    ShardedRun par;
    try {
      par = RunSharded(gate, s, threads, /*audit_interval=*/1,
                       /*parallel=*/true);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "S=%d parallel audit failure: %s\n", s, e.what());
      return 1;
    }
    if (!BitwiseSamePositions(run.positions, par.positions) ||
        !BitwiseSameField(run.field, par.field)) {
      std::fprintf(stderr,
                   "S=%d parallel lane stepping drifted from the sequential "
                   "loop (%zu vs %zu agents, max voxel error %.3g)\n",
                   s, run.positions.size(), par.positions.size(),
                   MaxVoxelError(par.field, run.field));
      return 1;
    }
  }

  // --- Measured runs (audit off) ------------------------------------------
  PrintHeader("Sharded engine: S shards, halo exchange per iteration");
  std::printf("agents %llu, %llu iterations, %d threads, box %.0f^3, "
              "field %d^3\n",
              static_cast<unsigned long long>(w.n),
              static_cast<unsigned long long>(w.iterations),
              ShardParam(threads).ResolveNumThreads(),
              static_cast<double>(w.space), w.resolution);
  auto& registry = MetricsRegistry::Get();
  std::vector<JsonRecord> records;
  double s1_ns = 0;
  std::map<int, double> sequential_ns;
  for (const int s : {1, 2, 4}) {
    const ShardedRun run = RunSharded(w, s, threads, /*audit_interval=*/0);
    sequential_ns[s] = run.ns_per_agent_iter;
    const double migrations =
        static_cast<double>(registry.CounterTotal("shard/migrations"));
    const double halo_records =
        static_cast<double>(registry.CounterTotal("shard/halo_agents_sent"));
    const double bytes =
        static_cast<double>(registry.CounterTotal("shard/exchange_bytes"));
    const double field_slabs =
        static_cast<double>(registry.CounterTotal("shard/field_halo_planes"));
    const double field_bytes =
        static_cast<double>(registry.CounterTotal("shard/field_halo_bytes"));
    const double field_deposits = static_cast<double>(
        registry.CounterTotal("shard/field_deposits_forwarded"));
    if (s == 1) {
      s1_ns = run.ns_per_agent_iter;
    }
    const double bytes_per_record =
        halo_records > 0 ? bytes / halo_records : 0;
    std::printf(
        "  S=%d : %8.1f ns/agent-iter  (%.2fx vs S=1)  "
        "%7.0f halo records, %5.1f B/record, %5.0f migrations, "
        "%4.0f field slabs (%6.0f B, %5.0f fwd deposits)\n",
        s, run.ns_per_agent_iter, s1_ns / run.ns_per_agent_iter,
        halo_records, bytes_per_record, migrations, field_slabs, field_bytes,
        field_deposits);
    records.push_back(
        {"shard_s" + std::to_string(s), w.n, run.ns_per_agent_iter,
         {{"iterations", static_cast<double>(w.iterations)},
          {"migrations", migrations},
          {"halo_records", halo_records},
          {"exchange_bytes_per_record", bytes_per_record},
          {"field_halo_slabs", field_slabs},
          {"field_halo_bytes", field_bytes},
          {"field_deposits_forwarded", field_deposits},
          {"overhead_vs_s1", run.ns_per_agent_iter / s1_ns}}});
  }
  // --- Parallel lane legs: shards step concurrently on pool-partitioned ---
  // --- DagExecutor lanes (last, so a BDM_TRACE capture of this invocation --
  // --- ends with overlapping per-shard step spans) -------------------------
  for (const int s : {2, 4}) {
    const ShardedRun run =
        RunSharded(w, s, threads, /*audit_interval=*/0, /*parallel=*/true);
    const double migrations =
        static_cast<double>(registry.CounterTotal("shard/migrations"));
    const double halo_records =
        static_cast<double>(registry.CounterTotal("shard/halo_agents_sent"));
    const double speedup = sequential_ns[s] / run.ns_per_agent_iter;
    std::printf(
        "  S=%d lanes: %8.1f ns/agent-iter  (%.2fx vs sequential S=%d)  "
        "%7.0f halo records, %5.0f migrations\n",
        s, run.ns_per_agent_iter, speedup, s, halo_records, migrations);
    records.push_back(
        {"shard_par_s" + std::to_string(s), w.n, run.ns_per_agent_iter,
         {{"iterations", static_cast<double>(w.iterations)},
          {"migrations", migrations},
          {"halo_records", halo_records},
          {"speedup_vs_sequential", speedup}}});
  }
  std::printf("  gates: S=1 bitwise vs unsharded; S=2,4 pure diffusion "
              "bitwise; S=2,4 full workload conserves count+momentum and "
              "matches the unsharded field at 1e-9/voxel (audited every "
              "iteration); S=2,4 lane stepping bitwise vs sequential\n");

  WriteBenchJson("BENCH_shard.json", records);
  return 0;
}

}  // namespace
}  // namespace bdm::bench

int main() { return bdm::bench::Run(); }
