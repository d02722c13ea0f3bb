// Ablation studies backing the paper's design-choice discussions:
//  * Morton vs Hilbert sorting curve (Section 4.2: Hilbert gained only
//    0.54% and costs more, hence Morton).
//  * kd-tree leaf size and octree bucket size (Section 6.9: the parameters
//    used are "within 4.20% of the optimum runtime").
//  * Iteration block size for the NUMA-aware agent loop (Section 4.1's
//    block partitioning granularity).
//  * Mechanics engine: the per-agent path (every pair force evaluated from
//    both endpoints) vs the default pair-symmetric engine (Section 5).
//  * Allocator growth rate and segment size (Section 4.3's
//    mem_mgr_growth_rate / mem_mgr_aligned_pages_shift).
#include <cstdio>

#include "harness.h"
#include "memory/memory_manager.h"

using namespace bdm;
using namespace bdm::bench;

int main() {
  const uint64_t agents = Scaled(5000);
  const uint64_t iterations = 40;

  PrintHeader("Ablation 1: sorting curve (paper: Hilbert gained just 0.54%)");
  std::printf("%-16s %14s %14s %10s\n", "model", "morton s/iter",
              "hilbert s/iter", "ratio");
  for (const auto& model : {std::string("oncology"), std::string("clustering"),
                            std::string("proliferation")}) {
    Param morton = AllOptimizationsParam(0, 2);
    morton.agent_sort_frequency = 10;
    Param hilbert = morton;
    hilbert.sorting_curve = SortingCurve::kHilbert;
    const RunResult rm_ = RunModel(model, agents, iterations, morton);
    const RunResult rh = RunModel(model, agents, iterations, hilbert);
    std::printf("%-16s %14.4f %14.4f %9.3fx\n", model.c_str(),
                rm_.seconds_per_iteration, rh.seconds_per_iteration,
                rm_.seconds_per_iteration / rh.seconds_per_iteration);
  }

  PrintHeader("Ablation 2: kd-tree leaf size (paper default validated)");
  std::printf("%-12s %12s\n", "max_leaf", "s/iter");
  for (int leaf : {4, 8, 16, 32, 64, 128}) {
    Param param = AllOptimizationsParam(0, 2);
    param.environment = EnvironmentType::kKdTree;
    param.agent_sort_frequency = 0;
    param.kd_tree_max_leaf = leaf;
    const RunResult r = RunModel("proliferation", agents, 10, param);
    std::printf("%-12d %12.4f\n", leaf, r.seconds_per_iteration);
  }

  PrintHeader("Ablation 3: octree bucket size");
  std::printf("%-12s %12s\n", "bucket", "s/iter");
  for (int bucket : {4, 8, 16, 32, 64, 128}) {
    Param param = AllOptimizationsParam(0, 2);
    param.environment = EnvironmentType::kOctree;
    param.agent_sort_frequency = 0;
    param.octree_bucket_size = bucket;
    const RunResult r = RunModel("proliferation", agents, 10, param);
    std::printf("%-12d %12.4f\n", bucket, r.seconds_per_iteration);
  }

  PrintHeader("Ablation 4: iteration block size (paper Fig. 2 step 2)");
  std::printf("%-12s %12s\n", "block", "s/iter");
  for (int64_t block : {64, 256, 1024, 4096, 16384}) {
    Param param = AllOptimizationsParam(0, 2);
    param.iteration_block_size = block;
    const RunResult r = RunModel("proliferation", agents, 20, param);
    std::printf("%-12lld %12.4f\n", static_cast<long long>(block),
                r.seconds_per_iteration);
  }

  PrintHeader(
      "Ablation 5: mechanics engine -- per-agent (pair_symmetric_forces=0) "
      "vs pair-symmetric (default)");
  std::printf("%-16s %14s %14s %10s\n", "model", "per-agent s/it",
              "pair s/iter", "ratio");
  for (const auto& model :
       {std::string("cell_sorting"), std::string("proliferation")}) {
    const Param pair = AllOptimizationsParam(0, 2);
    Param per_agent = pair;
    per_agent.pair_symmetric_forces = false;
    const RunResult rp = RunModel(model, agents, 20, per_agent);
    const RunResult rd = RunModel(model, agents, 20, pair);
    std::printf("%-16s %14.4f %14.4f %9.2fx\n", model.c_str(),
                rp.seconds_per_iteration, rd.seconds_per_iteration,
                rp.seconds_per_iteration / rd.seconds_per_iteration);
  }

  PrintHeader("Ablation 6: allocator growth rate & segment size");
  std::printf("%-14s %-14s %12s %14s\n", "growth_rate", "pages_shift",
              "s/iter", "reserved MB");
  for (double growth : {1.25, 2.0, 4.0}) {
    for (int shift : {3, 5, 8}) {
      Param param = AllOptimizationsParam(0, 2);
      param.memory.growth_rate = growth;
      param.memory.aligned_pages_shift = shift;
      double reserved_mb = 0;
      double s_per_iter = 0;
      {
        const models::ModelInfo* info = models::FindModel("proliferation");
        Simulation sim("ablation", param);
        info->build(&sim, agents);
        const auto start = std::chrono::steady_clock::now();
        sim.Simulate(20);
        s_per_iter = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count() /
                     20;
        reserved_mb = sim.GetMemoryManager()->TotalReserved() / 1048576.0;
      }
      std::printf("%-14.2f %-14d %12.4f %14.1f\n", growth, shift, s_per_iter,
                  reserved_mb);
    }
  }
  return 0;
}
