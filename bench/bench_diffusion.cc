// A/B study of the diffusion stencil engine (beyond the paper's figures;
// EXPERIMENTS.md "Diffusion stencil A/B").
//
// Part 1 -- stencil kernel: the seed's branchy-scalar sweep (six boundary
// branches per voxel, default optimization level) against the peeled
// vectorized kernel (branch-free interior, -O3), serial and on the NUMA
// thread pool (static z-slab partition, one dispatch per Step). Both
// kernels produce bitwise-identical fields, which this harness asserts.
//
// Part 2 -- deposit path: concurrent deposits into the per-thread append
// logs plus the slab-partitioned flush that folds them in deposit-key
// order (the only deposit path IncreaseConcentrationBy has).
//
// Writes BENCH_diffusion.json via the shared WriteBenchJson harness.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <vector>

#include "continuum/diffusion_grid.h"
#include "harness.h"
#include "sched/numa_thread_pool.h"

namespace bdm::bench {
namespace {

double Seconds(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  return std::chrono::duration<double>(elapsed).count();
}

struct StencilConfig {
  int resolution;
  int iterations;
  real_t dt;  // chosen so every Step substeps a few times
};

std::unique_ptr<DiffusionGrid> MakeGrid(const StencilConfig& cfg,
                                        DiffusionGrid::KernelMode mode,
                                        NumaThreadPool* pool) {
  auto grid = std::make_unique<DiffusionGrid>("substance", /*D=*/1.0,
                                              /*decay=*/0.01, cfg.resolution);
  grid->SetKernelMode(mode);
  grid->Initialize({0, 0, 0},
                   {static_cast<real_t>(cfg.resolution - 1),
                    static_cast<real_t>(cfg.resolution - 1),
                    static_cast<real_t>(cfg.resolution - 1)},
                   pool);  // voxel length 1 -> substep bound 1/(6 D)
  grid->SetInitialValue(
      [](const Real3& p) {
        return std::sin(p.x * 0.21) + std::cos(p.y * 0.13) + p.z * 0.005 + 2;
      },
      pool);
  return grid;
}

/// Times `iterations` full Steps and returns seconds per Step.
double TimeStencil(const StencilConfig& cfg, DiffusionGrid* grid,
                   NumaThreadPool* pool) {
  grid->Step(cfg.dt, pool);  // warmup (also pays one-time lazy costs)
  return Seconds([&] {
           for (int i = 0; i < cfg.iterations; ++i) {
             grid->Step(cfg.dt, pool);
           }
         }) /
         cfg.iterations;
}

double SampleChecksum(const DiffusionGrid& grid) {
  const int n = grid.GetResolution();
  const real_t h = grid.GetVoxelLength();
  double sum = 0;
  for (int z = 0; z < n; ++z) {
    for (int x = 0; x < n; ++x) {
      sum += grid.GetConcentration({x * h, (n / 2) * h, z * h});
    }
  }
  return sum;
}

struct DepositConfig {
  int resolution;
  int threads;
  int deposits_per_thread;
};

/// Times `deposits_per_thread` concurrent deposits from every pool worker
/// plus the flush and returns ns per deposit.
double TimeDeposits(const DepositConfig& cfg, NumaThreadPool* pool) {
  DiffusionGrid grid("substance", 0, 0, cfg.resolution);
  grid.Initialize({0, 0, 0},
                  {static_cast<real_t>(cfg.resolution - 1),
                   static_cast<real_t>(cfg.resolution - 1),
                   static_cast<real_t>(cfg.resolution - 1)},
                  pool);
  auto deposit_round = [&] {
    pool->Run([&](int tid) {
      for (int k = 0; k < cfg.deposits_per_thread; ++k) {
        // A hot 16x16 voxel patch: every thread deposits into the same
        // voxels, which the flush must fold in a fixed order.
        const real_t x = static_cast<real_t>((k + tid) % 16);
        const real_t y = static_cast<real_t>((k * 7 + tid) % 16);
        grid.IncreaseConcentrationBy({x, y, 1}, 0.25);
      }
    });
    grid.FlushDeposits();
  };
  deposit_round();  // warmup: grows the per-thread logs to steady capacity
  const double seconds = Seconds([&] {
    for (int round = 0; round < 3; ++round) {
      deposit_round();
    }
  });
  const double total_deposits = 3.0 * cfg.threads * cfg.deposits_per_thread;
  return seconds / total_deposits * 1e9;
}

int Main() {
  const bool smoke = SmokeMode();

  // --- Part 1: stencil kernels ---------------------------------------------
  StencilConfig cfg;
  cfg.resolution = smoke ? 32 : 128;
  cfg.iterations = smoke ? 2 : 10;
  cfg.dt = 0.5;  // ~3 substeps per Step at D = 1, h = 1
  const int64_t voxels = static_cast<int64_t>(cfg.resolution) *
                         cfg.resolution * cfg.resolution;
  PrintHeader("Diffusion stencil A/B (resolution " +
              std::to_string(cfg.resolution) + ", " +
              std::to_string(voxels) + " voxels)");

  NumaThreadPool pool(Topology(4, 2));

  auto branchy = MakeGrid(cfg, DiffusionGrid::KernelMode::kBranchyReference,
                          nullptr);
  const double branchy_s = TimeStencil(cfg, branchy.get(), nullptr);

  auto peeled = MakeGrid(cfg, DiffusionGrid::KernelMode::kPeeledVectorized,
                         nullptr);
  const double peeled_s = TimeStencil(cfg, peeled.get(), nullptr);

  auto numa = MakeGrid(cfg, DiffusionGrid::KernelMode::kPeeledVectorized,
                       &pool);
  const double numa_s = TimeStencil(cfg, numa.get(), &pool);

  // The kernels must be bitwise interchangeable -- any drift voids the A/B.
  const double ref_sum = SampleChecksum(*branchy);
  if (SampleChecksum(*peeled) != ref_sum || SampleChecksum(*numa) != ref_sum) {
    std::fprintf(stderr, "FATAL: kernel variants diverged\n");
    return 1;
  }

  const double speedup_peeled = branchy_s / peeled_s;
  const double speedup_numa = branchy_s / numa_s;
  std::printf("%-34s %12.3f ms/step\n", "branchy-scalar (seed kernel)",
              branchy_s * 1e3);
  std::printf("%-34s %12.3f ms/step   %.2fx\n", "peeled-vectorized, serial",
              peeled_s * 1e3, speedup_peeled);
  std::printf("%-34s %12.3f ms/step   %.2fx\n",
              "peeled-vectorized, NUMA pool 4x2", numa_s * 1e3, speedup_numa);

  // --- Part 2: deposit path ------------------------------------------------
  DepositConfig dep;
  dep.resolution = smoke ? 16 : 64;
  dep.threads = 4;
  dep.deposits_per_thread = smoke ? 20000 : 400000;
  PrintHeader("Concurrent deposits: thread-local logs (" +
              std::to_string(dep.threads) + " threads)");
  const double buffered_ns = TimeDeposits(dep, &pool);
  std::printf("%-34s %12.1f ns/deposit (incl. flush)\n",
              "thread-local log + slab flush", buffered_ns);

  std::vector<JsonRecord> records;
  records.push_back({"stencil_branchy_serial", static_cast<uint64_t>(voxels),
                     branchy_s * 1e9,
                     {{"resolution", static_cast<double>(cfg.resolution)}}});
  records.push_back({"stencil_peeled_serial", static_cast<uint64_t>(voxels),
                     peeled_s * 1e9,
                     {{"resolution", static_cast<double>(cfg.resolution)},
                      {"speedup_vs_branchy", speedup_peeled}}});
  records.push_back({"stencil_peeled_numa_pool4x2",
                     static_cast<uint64_t>(voxels), numa_s * 1e9,
                     {{"resolution", static_cast<double>(cfg.resolution)},
                      {"speedup_vs_branchy", speedup_numa}}});
  records.push_back({"deposit_buffered_4threads",
                     static_cast<uint64_t>(dep.threads) *
                         dep.deposits_per_thread,
                     buffered_ns,
                     {}});
  WriteBenchJson("BENCH_diffusion.json", records);
  return 0;
}

}  // namespace
}  // namespace bdm::bench

int main() { return bdm::bench::Main(); }
