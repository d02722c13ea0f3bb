// A/B microbenchmark for the uniform grid's SoA mirror (DESIGN.md Section 5):
// the same 27-box neighbor query once as the classic pointer-chasing scan
// (dereference every candidate Agent* for its position) and once through the
// grid's SoA search. The workload is reject-dominated -- ~27 candidates
// per query, a handful of accepts -- which is exactly the regime the mirror
// targets: a reject costs a few contiguous-array reads instead of a dependent
// cache miss into a polymorphic heap object.
//
// Emits BENCH_neighbor.json (workload, agents, ns/iter where one iteration is
// one agent neighbor query, plus speedup extras) next to stdout.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "core/cell.h"
#include "core/resource_manager.h"
#include "env/uniform_grid.h"
#include "harness.h"
#include "math/random.h"

namespace bdm::bench {
namespace {

struct KernelResult {
  double ns_per_query = 0;
  uint64_t neighbors = 0;
  double d2_sum = 0;
};

template <typename Kernel>
KernelResult Measure(const std::vector<Agent*>& queries, Kernel&& kernel) {
  KernelResult best;
  best.ns_per_query = 1e30;
  for (int pass = 0; pass < 3; ++pass) {
    uint64_t neighbors = 0;
    double d2_sum = 0;
    const auto start = std::chrono::steady_clock::now();
    for (Agent* query : queries) {
      kernel(query, &neighbors, &d2_sum);
    }
    const auto elapsed = std::chrono::steady_clock::now() - start;
    const double ns =
        std::chrono::duration<double, std::nano>(elapsed).count() /
        static_cast<double>(queries.size());
    if (ns < best.ns_per_query) {
      best = {ns, neighbors, d2_sum};
    }
  }
  return best;
}

int Run() {
  const uint64_t n = Scaled(1'000'000);
  // Cube sized for ~27 candidates and ~4 accepted neighbors per query with
  // diameter-10 agents: density n / space^3, box length 10.
  const real_t space = 1000 * std::cbrt(ScaleFactor());

  Param param;
  param.num_threads = 2;
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
  std::vector<Agent*> queries;
  queries.reserve(n);
  rm.ForEachAgent([&](Agent* agent, AgentHandle) { queries.push_back(agent); });

  // A: the pre-mirror search. Box walk via the public box iteration API;
  // every candidate's position comes from the Agent object itself, so each
  // candidate costs a dependent pointer dereference.
  const auto dims = grid.GetDimensions();
  const Real3 lower = grid.GetLowerBound();
  const real_t inv_box_length = real_t{1} / grid.GetBoxLength();
  const KernelResult pointer =
      Measure(queries, [&](Agent* query, uint64_t* neighbors, double* d2_sum) {
        const Real3& pos = query->GetPosition();
        int64_t c[3];
        for (int i = 0; i < 3; ++i) {
          c[i] = std::clamp<int64_t>(
              static_cast<int64_t>(
                  std::floor((pos[i] - lower[i]) * inv_box_length)),
              0, dims[i] - 1);
        }
        for (int64_t z = std::max<int64_t>(c[2] - 1, 0);
             z <= std::min<int64_t>(c[2] + 1, dims[2] - 1); ++z) {
          for (int64_t y = std::max<int64_t>(c[1] - 1, 0);
               y <= std::min<int64_t>(c[1] + 1, dims[1] - 1); ++y) {
            for (int64_t x = std::max<int64_t>(c[0] - 1, 0);
                 x <= std::min<int64_t>(c[0] + 1, dims[0] - 1); ++x) {
              grid.ForEachAgentInBox(
                  grid.FlatBoxIndex(x, y, z), [&](Agent* candidate) {
                    const real_t d2 =
                        candidate->GetPosition().SquaredDistance(pos);
                    if (d2 <= squared_radius && candidate != query) {
                      ++*neighbors;
                      *d2_sum += d2;
                    }
                  });
            }
          }
        }
      });

  // B: the engine's one search (geometry entirely from the Update-time SoA
  // arrays).
  const KernelResult soa =
      Measure(queries, [&](Agent* query, uint64_t* neighbors, double* d2_sum) {
        grid.ForEachNeighbor(*query, squared_radius,
                             [&](const Environment::NeighborData& nb) {
                               ++*neighbors;
                               *d2_sum += nb.squared_distance;
                             });
      });

  if (pointer.neighbors != soa.neighbors) {
    std::fprintf(stderr, "kernel disagreement: %llu vs %llu\n",
                 static_cast<unsigned long long>(pointer.neighbors),
                 static_cast<unsigned long long>(soa.neighbors));
    return 1;
  }

  const double speedup_soa = pointer.ns_per_query / soa.ns_per_query;
  const double avg_neighbors =
      static_cast<double>(pointer.neighbors) / static_cast<double>(n);
  PrintHeader("Neighbor query: pointer-chasing vs SoA mirror");
  std::printf("agents %llu, box length %.1f, avg neighbors/query %.2f\n",
              static_cast<unsigned long long>(n), radius, avg_neighbors);
  std::printf("  pointer-chasing : %8.1f ns/query\n", pointer.ns_per_query);
  std::printf("  SoA snapshot    : %8.1f ns/query  (%.2fx)\n",
              soa.ns_per_query, speedup_soa);

  WriteBenchJson(
      "BENCH_neighbor.json",
      {{"neighbor_pointer_chasing", n, pointer.ns_per_query,
        {{"avg_neighbors", avg_neighbors}}},
       {"neighbor_soa_data", n, soa.ns_per_query,
        {{"speedup", speedup_soa}}}});
  return 0;
}

}  // namespace
}  // namespace bdm::bench

int main() { return bdm::bench::Run(); }
