// Figure 12: agent sorting and balancing speedup for different execution
// frequencies, on one and on four simulated NUMA domains.
//
// Baseline: the same configuration without agent sorting. The paper's
// findings to reproduce in shape: the randomly initialized models
// (oncology, clustering) benefit most (peak 5.77x / 4.56x on four
// domains); epidemiology benefits least (its agents teleport far each
// iteration, peak 1.14x); grid-initialized proliferation sits in between
// (1.82x, rising to 4.68x with random initialization).
#include <cstdio>
#include <vector>

#include "harness.h"
#include "models/cell_proliferation.h"

using namespace bdm;
using namespace bdm::bench;

int main() {
  PrintHeader("Figure 12: agent sorting/balancing frequency study");

  const uint64_t agents = Scaled(5000);
  const uint64_t iterations = 60;
  const std::vector<int> frequencies = {0, 1, 2, 5, 10, 20};  // 0 = off

  for (int domains : {4, 1}) {
    std::printf("--- %d NUMA domain%s ---\n", domains, domains > 1 ? "s" : "");
    std::printf("%-16s", "model");
    for (int f : frequencies) {
      if (f == 0) {
        std::printf(" %12s", "off s/iter");
      } else {
        std::printf(" %11s%d", "spd f=", f);
      }
    }
    std::printf("\n");
    for (const auto& model : Table1Models()) {
      std::printf("%-16s", model.c_str());
      double off = 0;
      for (int f : frequencies) {
        Param config = AllOptimizationsParam(0, domains);
        config.agent_sort_frequency = f;
        const RunResult r = RunModel(model, agents, iterations, config);
        if (f == 0) {
          off = r.seconds_per_iteration;
          std::printf(" %12.4f", off);
        } else {
          std::printf(" %11.2fx", off / r.seconds_per_iteration);
        }
      }
      std::printf("\n");
    }

    // The paper's random-initialization variant of proliferation.
    {
      std::printf("%-16s", "prolif(random)");
      double off = 0;
      for (int f : frequencies) {
        Param config = AllOptimizationsParam(0, domains);
        config.agent_sort_frequency = f;
        double s_per_iter = 0;
        {
          Simulation sim("prolif_random", config);
          models::proliferation::Config pc;
          pc.num_cells = agents;
          pc.random_init = true;
          models::proliferation::Build(&sim, pc);
          const auto start = std::chrono::steady_clock::now();
          sim.Simulate(iterations);
          s_per_iter = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count() /
                       iterations;
        }
        if (f == 0) {
          off = s_per_iter;
          std::printf(" %12.4f", off);
        } else {
          std::printf(" %11.2fx", off / s_per_iter);
        }
      }
      std::printf("\n\n");
    }
  }
  return 0;
}
