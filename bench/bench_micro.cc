// Micro-benchmarks (google-benchmark) for the engine's hot kernels: grid
// build, neighbor search, Morton machinery, parallel prefix sum, pool
// allocator vs malloc, and the parallel removal algorithm. These back the
// per-component claims of paper Sections 3-4 at the kernel level.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "core/cell.h"
#include "core/resource_manager.h"
#include "env/kd_tree.h"
#include "env/octree.h"
#include "env/uniform_grid.h"
#include "math/random.h"
#include "memory/memory_manager.h"
#include "parallel/prefix_sum.h"
#include "spatial/morton.h"

namespace bdm {
namespace {

struct GridWorld {
  GridWorld(int64_t n, int threads) {
    param.num_threads = threads;
    param.num_numa_domains = threads >= 4 ? 2 : 1;
    pool = std::make_unique<NumaThreadPool>(
        Topology(threads, param.num_numa_domains));
    rm = std::make_unique<ResourceManager>(param, pool.get(), &gen);
    Random random(42);
    const real_t space = 20 * std::cbrt(static_cast<real_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      rm->AddAgent(new Cell(random.UniformPoint(0, space), 10));
    }
  }
  Param param;
  AgentUidGenerator gen;
  std::unique_ptr<NumaThreadPool> pool;
  std::unique_ptr<ResourceManager> rm;
};

void BM_UniformGridBuild(benchmark::State& state) {
  GridWorld world(state.range(0), 2);
  UniformGridEnvironment grid(world.param);
  for (auto _ : state) {
    grid.Update(*world.rm, world.pool.get());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_UniformGridBuild)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_KdTreeBuild(benchmark::State& state) {
  GridWorld world(state.range(0), 2);
  KdTreeEnvironment tree(world.param);
  for (auto _ : state) {
    tree.Update(*world.rm, world.pool.get());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_KdTreeBuild)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_OctreeBuild(benchmark::State& state) {
  GridWorld world(state.range(0), 2);
  OctreeEnvironment tree(world.param);
  for (auto _ : state) {
    tree.Update(*world.rm, world.pool.get());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_OctreeBuild)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_UniformGridSearch(benchmark::State& state) {
  GridWorld world(state.range(0), 2);
  UniformGridEnvironment grid(world.param);
  grid.Update(*world.rm, world.pool.get());
  int64_t visited = 0;
  for (auto _ : state) {
    world.rm->ForEachAgent([&](Agent* agent, AgentHandle) {
      grid.ForEachNeighbor(*agent, 100, [&](const Environment::NeighborData&) {
        ++visited;
      });
    });
  }
  benchmark::DoNotOptimize(visited);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_UniformGridSearch)->Arg(1000)->Arg(10000);

void BM_MortonEncode(benchmark::State& state) {
  uint64_t acc = 0;
  uint32_t i = 0;
  for (auto _ : state) {
    acc += MortonEncode3D(i, i + 1, i + 2);
    ++i;
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_MortonEncode);

void BM_MortonGapTable(benchmark::State& state) {
  const uint64_t n = state.range(0);
  for (auto _ : state) {
    auto gaps = CollectMortonGaps(n, n - 1, n / 2 + 1);
    benchmark::DoNotOptimize(gaps);
  }
}
BENCHMARK(BM_MortonGapTable)->Arg(16)->Arg(64)->Arg(256);

void BM_ParallelPrefixSum(benchmark::State& state) {
  NumaThreadPool pool(Topology(4, 2));
  std::vector<int64_t> data(state.range(0), 1);
  for (auto _ : state) {
    state.PauseTiming();
    std::fill(data.begin(), data.end(), 1);
    state.ResumeTiming();
    InclusivePrefixSum(&data, &pool, 0);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ParallelPrefixSum)->Arg(1 << 16)->Arg(1 << 20);

void BM_PoolAllocator(benchmark::State& state) {
  MemoryManager mm(Topology(2, 1));
  std::vector<void*> ptrs(1024);
  for (auto _ : state) {
    for (auto& p : ptrs) {
      p = mm.New(64);
    }
    for (auto& p : ptrs) {
      mm.Delete(p);
    }
  }
  state.SetItemsProcessed(state.iterations() * ptrs.size());
}
BENCHMARK(BM_PoolAllocator);

void BM_SystemMalloc(benchmark::State& state) {
  std::vector<void*> ptrs(1024);
  for (auto _ : state) {
    for (auto& p : ptrs) {
      p = ::operator new(64);
      benchmark::DoNotOptimize(p);
    }
    for (auto& p : ptrs) {
      ::operator delete(p);
    }
  }
  state.SetItemsProcessed(state.iterations() * ptrs.size());
}
BENCHMARK(BM_SystemMalloc);

void RemovalBenchmark(benchmark::State& state, bool parallel) {
  const int64_t n = state.range(0);
  for (auto _ : state) {
    state.PauseTiming();
    Param param;
    param.num_threads = 4;
    param.num_numa_domains = 2;
    param.parallel_commit = parallel;
    AgentUidGenerator gen;
    NumaThreadPool pool(Topology(4, 2));
    ResourceManager rm(param, &pool, &gen);
    std::vector<std::unique_ptr<ExecutionContext>> contexts;
    std::vector<ExecutionContext*> ptrs;
    for (int slot = 0; slot < 5; ++slot) {
      const int domain = slot == 0 ? 0 : pool.topology().DomainOfThread(slot - 1);
      contexts.push_back(std::make_unique<ExecutionContext>(domain, 1, &gen));
      ptrs.push_back(contexts.back().get());
    }
    std::vector<AgentUid> uids;
    for (int64_t i = 0; i < n; ++i) {
      auto* cell = new Cell({static_cast<real_t>(i), 0, 0}, 5);
      rm.AddAgent(cell);
      uids.push_back(cell->GetUid());
    }
    for (int64_t i = 0; i < n; i += 3) {
      ptrs[i % ptrs.size()]->RemoveAgent(uids[i]);
    }
    state.ResumeTiming();
    rm.Commit(ptrs);
  }
  state.SetItemsProcessed(state.iterations() * (state.range(0) / 3));
}

void BM_RemovalSerial(benchmark::State& state) { RemovalBenchmark(state, false); }
void BM_RemovalParallel(benchmark::State& state) { RemovalBenchmark(state, true); }
BENCHMARK(BM_RemovalSerial)->Arg(10000)->Arg(100000);
BENCHMARK(BM_RemovalParallel)->Arg(10000)->Arg(100000);

}  // namespace
}  // namespace bdm

BENCHMARK_MAIN();
