#include "core/load_balance_op.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/agent.h"
#include "core/resource_manager.h"
#include "core/simulation.h"
#include "env/uniform_grid.h"
#include "memory/memory_manager.h"
#include "parallel/prefix_sum.h"
#include "sched/numa_thread_pool.h"
#include "spatial/hilbert.h"
#include "spatial/morton.h"

namespace bdm {

void LoadBalanceOp::BuildRankTable(const UniformGridEnvironment& grid,
                                   SortingCurve curve, NumaThreadPool* pool) {
  const auto dims = grid.GetDimensions();
  const uint64_t num_boxes = static_cast<uint64_t>(grid.GetNumBoxes());
  if (dims == rank_dims_ && curve == rank_curve_) {
    return;
  }
  rank_dims_ = dims;
  rank_curve_ = curve;
  flat_of_rank_.resize(num_boxes);
  // Morton uses the linear-time gap table; Hilbert (the paper's rejected
  // alternative, kept for the ablation study) must sort explicitly --
  // exactly the "higher costs" the paper cites for it.
  if (curve == SortingCurve::kMorton) {
    const std::vector<MortonGap> gaps = CollectMortonGaps(
        static_cast<uint64_t>(dims[0]), static_cast<uint64_t>(dims[1]),
        static_cast<uint64_t>(dims[2]));
    pool->ParallelFor(0, static_cast<int64_t>(num_boxes), 1 << 14,
                      [&](int64_t lo, int64_t hi, int) {
                        MortonIterator it(&gaps, num_boxes);
                        it.Seek(static_cast<uint64_t>(lo));
                        for (int64_t k = lo; k < hi; ++k) {
                          uint32_t x, y, z;
                          MortonDecode3D(it.Next(), &x, &y, &z);
                          flat_of_rank_[k] = grid.FlatBoxIndex(x, y, z);
                        }
                      });
    return;
  }
  int bits = 1;
  while ((int64_t{1} << bits) < std::max({dims[0], dims[1], dims[2]})) {
    ++bits;
  }
  std::vector<uint64_t> hilbert_index(num_boxes);
  pool->ParallelFor(
      0, static_cast<int64_t>(num_boxes), 1 << 13,
      [&](int64_t lo, int64_t hi, int) {
        for (int64_t flat = lo; flat < hi; ++flat) {
          const uint32_t x = static_cast<uint32_t>(flat % dims[0]);
          const uint32_t y = static_cast<uint32_t>((flat / dims[0]) % dims[1]);
          const uint32_t z = static_cast<uint32_t>(flat / (dims[0] * dims[1]));
          hilbert_index[flat] = HilbertEncode3D(x, y, z, bits);
          flat_of_rank_[flat] = flat;
        }
      });
  std::sort(flat_of_rank_.begin(), flat_of_rank_.end(),
            [&](int64_t a, int64_t b) {
              return hilbert_index[a] < hilbert_index[b];
            });
}

void LoadBalanceOp::Run(Simulation* sim) {
  auto* grid = dynamic_cast<UniformGridEnvironment*>(sim->GetEnvironment());
  if (grid == nullptr) {
    return;  // sorting is only implemented for the uniform grid (paper 6.9)
  }
  auto* rm = sim->GetResourceManager();
  auto* pool = sim->GetThreadPool();
  const Topology& topology = pool->topology();
  const uint64_t total_agents = rm->GetNumAgents();
  if (total_agents == 0) {
    return;
  }

  // Step 0: the grid must reflect the current committed state (the regular
  // environment update runs *after* this operation each iteration).
  grid->Update(*rm, pool);
  const uint64_t num_boxes = static_cast<uint64_t>(grid->GetNumBoxes());
  if (num_boxes == 0) {
    return;
  }

  // Step 1 (paper D/E): curve-ordered box sequence.
  BuildRankTable(*grid, sim->GetParam().sorting_curve, pool);

  // Step 2 (paper F): per-box agent counts in curve order, then an
  // inclusive prefix sum to enable O(log) partition lookups. Every entry is
  // overwritten, so the buffer is only resized.
  counts_.resize(num_boxes);
  pool->ParallelFor(0, static_cast<int64_t>(num_boxes), 1 << 14,
                    [&](int64_t lo, int64_t hi, int) {
                      for (int64_t k = lo; k < hi; ++k) {
                        counts_[k] = grid->GetBoxCount(flat_of_rank_[k]);
                      }
                    });
  InclusivePrefixSum(&counts_, pool);

  // Cumulative agents strictly before rank k.
  auto before = [&](uint64_t rank) -> uint64_t {
    return rank == 0 ? 0 : counts_[rank - 1];
  };
  // First box rank at which the running total reaches `target` agents.
  auto rank_for = [&](uint64_t target) -> uint64_t {
    return static_cast<uint64_t>(
        std::lower_bound(counts_.begin(), counts_.end(), target) -
        counts_.begin());
  };

  // Domain boundaries: domain d receives a share of agents proportional to
  // its thread count; inside a domain, threads receive equal shares.
  const int num_domains = topology.NumDomains();
  const int num_threads = topology.NumThreads();
  std::vector<uint64_t> domain_rank(num_domains + 1, 0);
  {
    uint64_t cumulative_threads = 0;
    for (int d = 0; d < num_domains; ++d) {
      cumulative_threads += topology.NumThreadsInDomain(d);
      // The box at which the running total first reaches the ideal cut
      // (lower_bound) straddles it and opens domain d + 1, so domain d
      // never holds more than its ideal share.
      domain_rank[d + 1] =
          rank_for(total_agents * cumulative_threads / num_threads);
    }
    domain_rank[num_domains] = num_boxes;
  }

  // Per-thread box segments within each domain.
  std::vector<uint64_t> thread_rank_lo(num_threads);
  std::vector<uint64_t> thread_rank_hi(num_threads);
  for (int d = 0; d < num_domains; ++d) {
    const auto& threads = topology.ThreadsOfDomain(d);
    const uint64_t agents_before_domain = before(domain_rank[d]);
    const uint64_t domain_agents = before(domain_rank[d + 1]) - agents_before_domain;
    uint64_t prev = domain_rank[d];
    for (size_t i = 0; i < threads.size(); ++i) {
      uint64_t hi;
      if (i + 1 == threads.size()) {
        hi = domain_rank[d + 1];
      } else {
        hi = rank_for(agents_before_domain +
                      domain_agents * (i + 1) / threads.size());
        hi = std::clamp(hi, prev, domain_rank[d + 1]);
      }
      thread_rank_lo[threads[i]] = prev;
      thread_rank_hi[threads[i]] = hi;
      prev = hi;
    }
  }

  // Step 3 (paper G): write every agent into its new position, relocating
  // it only when that buys placement (see the header). The worker allocates
  // a copy itself, so the pool allocator serves it from the worker's NUMA
  // domain. On one domain a copy would only land in the slot its Morton
  // predecessor just freed, so without extra memory no agent moves there.
  std::vector<std::vector<Agent*>> new_vectors(num_domains);
  for (int d = 0; d < num_domains; ++d) {
    new_vectors[d].resize(before(domain_rank[d + 1]) - before(domain_rank[d]));
  }
  const bool extra_memory = sim->GetParam().sort_with_extra_memory;
  const MemoryManager* memory = MemoryManager::GetGlobal();
  auto relocate = [&](const Agent* agent, int domain) {
    return extra_memory ||
           (num_domains > 1 &&
            (memory == nullptr ? -1 : memory->DomainOf(agent)) != domain);
  };
  std::vector<std::vector<Agent*>> doomed(num_threads);
  // RunSlots (not Run): tid here indexes the precomputed per-thread box
  // segments, every one of which must be written even when the calling
  // thread's team is only part of the pool (lane-driven shard stepping).
  pool->RunSlots(num_threads, [&](int tid) {
    const int d = topology.DomainOfThread(tid);
    auto& target = new_vectors[d];
    uint64_t write = before(thread_rank_lo[tid]) - before(domain_rank[d]);
    for (uint64_t rank = thread_rank_lo[tid]; rank < thread_rank_hi[tid]; ++rank) {
      grid->ForEachAgentInBox(flat_of_rank_[rank], [&](Agent* agent) {
        if (!relocate(agent, d)) {
          target[write++] = agent;
          return;
        }
        target[write++] = agent->NewCopy();
        if (extra_memory) {
          doomed[tid].push_back(agent);
        } else {
          delete agent;
        }
      });
    }
  });

  // Swap in the rebuilt vectors; this also refreshes every uid-map entry.
  rm->ReplaceAgentVectors(std::move(new_vectors));

  if (extra_memory) {
    // "Delete all old copies after the step is finished": costs peak memory,
    // and no copy reuses a slot freed by its own step. On the first sort
    // the copies therefore come from freshly carved, contiguous pool
    // segments; later sorts refill the slots the previous one freed.
    pool->RunSlots(num_threads, [&](int tid) {
      for (Agent* agent : doomed[tid]) {
        delete agent;
      }
      doomed[tid].clear();
    });
  }
}

}  // namespace bdm
