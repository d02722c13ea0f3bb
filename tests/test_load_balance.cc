// Agent sorting and balancing (paper Section 4.2): the operation must
// preserve the agent set, keep uid references valid, balance agents across
// NUMA domains, and physically order agents along the Morton curve. It
// relocates an agent only under the extra-memory variant or when the agent
// changes NUMA domain; every other agent keeps its object.
#include "core/load_balance_op.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <map>
#include <utility>
#include <vector>

#include "core/cell.h"
#include "core/resource_manager.h"
#include "core/simulation.h"
#include "env/uniform_grid.h"
#include "memory/memory_manager.h"
#include "models/common_behaviors.h"
#include "obs/metrics.h"
#include "spatial/morton.h"

namespace bdm {
namespace {

Param SortParam(int threads = 4, int domains = 2) {
  Param param;
  param.num_threads = threads;
  param.num_numa_domains = domains;
  param.agent_sort_frequency = 0;  // invoke the op manually
  param.use_bdm_memory_manager = false;
  return param;
}

void AddRandomCells(Simulation* sim, int n, real_t space, uint64_t seed,
                    bool with_behavior = false) {
  Random random(seed);
  for (int i = 0; i < n; ++i) {
    auto* cell = new Cell(random.UniformPoint(0, space), 10);
    if (with_behavior) {
      cell->AddBehavior(new models::RandomWalk());
    }
    sim->GetResourceManager()->AddAgent(cell);
  }
}

/// uid -> the agent's object and its behavior objects.
using Identities =
    std::map<AgentUid, std::pair<Agent*, std::vector<Behavior*>>>;

Identities CollectIdentities(Simulation* sim) {
  Identities result;
  sim->GetResourceManager()->ForEachAgent([&](Agent* a, AgentHandle) {
    result[a->GetUid()] = {a, a->GetAllBehaviors()};
  });
  return result;
}

/// uid -> NUMA domain of the agent vector that holds it.
std::map<AgentUid, int> VectorDomains(Simulation* sim) {
  std::map<AgentUid, int> result;
  sim->GetResourceManager()->ForEachAgent([&](Agent* a, AgentHandle handle) {
    result[a->GetUid()] = handle.numa_domain;
  });
  return result;
}

uint64_t PoolAllocations() {
  auto& metrics = MetricsRegistry::Get();
  metrics.FlushShards();
  return metrics.CounterTotal("alloc.news");
}

/// Checks that domain `domain`'s agent vector is non-decreasing in the
/// Morton code of each agent's grid box.
void ExpectMortonOrdered(Simulation* sim, int domain) {
  // Rebuild the grid to map positions to boxes.
  auto* grid = dynamic_cast<UniformGridEnvironment*>(sim->GetEnvironment());
  ASSERT_NE(grid, nullptr);
  grid->Update(*sim->GetResourceManager(), sim->GetThreadPool());
  const Real3 lower = grid->GetLowerBound();
  const real_t len = grid->GetBoxLength();
  uint64_t previous = 0;
  bool first = true;
  for (Agent* agent : sim->GetResourceManager()->GetAgentVector(domain)) {
    const Real3& p = agent->GetPosition();
    const auto x = static_cast<uint32_t>((p.x - lower.x) / len);
    const auto y = static_cast<uint32_t>((p.y - lower.y) / len);
    const auto z = static_cast<uint32_t>((p.z - lower.z) / len);
    const uint64_t code = MortonEncode3D(x, y, z);
    if (!first) {
      ASSERT_GE(code, previous);
    }
    previous = code;
    first = false;
  }
}

TEST(LoadBalanceTest, PreservesAgentSet) {
  Simulation sim("test", SortParam());
  AddRandomCells(&sim, 500, 200, 1);
  std::map<AgentUid, Real3> before;
  sim.GetResourceManager()->ForEachAgent([&](Agent* a, AgentHandle) {
    before[a->GetUid()] = a->GetPosition();
  });
  LoadBalanceOp op(1);
  op.Run(&sim);
  std::map<AgentUid, Real3> after;
  sim.GetResourceManager()->ForEachAgent([&](Agent* a, AgentHandle) {
    after[a->GetUid()] = a->GetPosition();
  });
  EXPECT_EQ(before.size(), after.size());
  for (const auto& [uid, pos] : before) {
    ASSERT_TRUE(after.count(uid)) << uid;
    EXPECT_EQ(after[uid], pos);
  }
}

TEST(LoadBalanceTest, UidLookupsResolveToNewCopies) {
  Simulation sim("test", SortParam());
  AddRandomCells(&sim, 200, 150, 2);
  std::vector<std::pair<AgentUid, Agent*>> old_pointers;
  sim.GetResourceManager()->ForEachAgent([&](Agent* a, AgentHandle) {
    old_pointers.emplace_back(a->GetUid(), a);
  });
  LoadBalanceOp op(1);
  op.Run(&sim);
  int changed = 0;
  for (const auto& [uid, old_ptr] : old_pointers) {
    Agent* current = sim.GetResourceManager()->GetAgent(uid);
    ASSERT_NE(current, nullptr);
    changed += current != old_ptr;
  }
  // Sorting copies agents to new memory locations.
  EXPECT_EQ(changed, static_cast<int>(old_pointers.size()));
}

TEST(LoadBalanceTest, BalancesAgentsAcrossDomains) {
  Simulation sim("test", SortParam(4, 2));
  // All agents initially round-robin; after balancing each domain holds a
  // share proportional to its thread count (equal here, within box
  // granularity).
  AddRandomCells(&sim, 2000, 300, 3);
  LoadBalanceOp op(1);
  op.Run(&sim);
  auto* rm = sim.GetResourceManager();
  const auto d0 = static_cast<double>(rm->GetNumAgents(0));
  const auto d1 = static_cast<double>(rm->GetNumAgents(1));
  EXPECT_EQ(d0 + d1, 2000);
  EXPECT_NEAR(d0 / (d0 + d1), 0.5, 0.1);
}

TEST(LoadBalanceTest, UnevenThreadShareIsRespected) {
  Simulation sim("test", SortParam(3, 2));  // domain 0: 2 threads, domain 1: 1
  AddRandomCells(&sim, 3000, 300, 4);
  LoadBalanceOp op(1);
  op.Run(&sim);
  auto* rm = sim.GetResourceManager();
  const auto d0 = static_cast<double>(rm->GetNumAgents(0));
  EXPECT_NEAR(d0 / 3000.0, 2.0 / 3.0, 0.1);
}

TEST(LoadBalanceTest, AgentsAreMortonOrderedWithinDomains) {
  Simulation sim("test", SortParam(2, 1));
  AddRandomCells(&sim, 1000, 250, 5);
  LoadBalanceOp op(1);
  op.Run(&sim);
  // The agent vector order is non-decreasing in Morton code of the
  // containing box.
  ExpectMortonOrdered(&sim, 0);
}

TEST(LoadBalanceTest, ExtraMemoryModeProducesSameResult) {
  auto run = [](bool extra) {
    Param param = SortParam(2, 2);
    param.sort_with_extra_memory = extra;
    Simulation sim("test", param);
    AddRandomCells(&sim, 400, 200, 6);
    LoadBalanceOp op(1);
    op.Run(&sim);
    std::map<AgentUid, Real3> result;
    sim.GetResourceManager()->ForEachAgent([&](Agent* a, AgentHandle) {
      result[a->GetUid()] = a->GetPosition();
    });
    return result;
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(LoadBalanceTest, AllAgentsInOneBoxStillBalances) {
  // Degenerate spatial distribution: a single grid box holds everyone, so
  // the box-granular partition cannot split the agents -- the operation
  // must still terminate and preserve the population.
  Simulation sim("test", SortParam(4, 2));
  for (int i = 0; i < 100; ++i) {
    sim.GetResourceManager()->AddAgent(new Cell({1, 1, 1}, 10));
  }
  LoadBalanceOp op(1);
  op.Run(&sim);
  EXPECT_EQ(sim.GetResourceManager()->GetNumAgents(), 100u);
}

TEST(LoadBalanceTest, EmptySimulationIsNoop) {
  Simulation sim("test", SortParam());
  LoadBalanceOp op(1);
  op.Run(&sim);
  EXPECT_EQ(sim.GetResourceManager()->GetNumAgents(), 0u);
}

TEST(LoadBalanceTest, NonGridEnvironmentIsNoop) {
  Param param = SortParam();
  param.environment = EnvironmentType::kKdTree;
  Simulation sim("test", param);
  AddRandomCells(&sim, 100, 100, 7);
  std::vector<Agent*> before;
  sim.GetResourceManager()->ForEachAgent(
      [&](Agent* a, AgentHandle) { before.push_back(a); });
  LoadBalanceOp op(1);
  op.Run(&sim);
  std::vector<Agent*> after;
  sim.GetResourceManager()->ForEachAgent(
      [&](Agent* a, AgentHandle) { after.push_back(a); });
  EXPECT_EQ(before, after);  // untouched, including pointer identity
}

TEST(LoadBalanceTest, RepeatedSortingIsStable) {
  for (const bool pool : {false, true}) {
    SCOPED_TRACE(pool ? "pool memory manager" : "system allocator");
    Param param = SortParam();
    param.use_bdm_memory_manager = pool;
    Simulation sim("test", param);
    AddRandomCells(&sim, 300, 150, 8);
    LoadBalanceOp op(1);
    op.Run(&sim);
    const std::map<AgentUid, int> domains1 = VectorDomains(&sim);
    const Identities objects1 = CollectIdentities(&sim);
    op.Run(&sim);
    // Sorting an already sorted population must not reshuffle across
    // domains: box-level order and the domain cuts are deterministic. (The
    // order within a box may differ because the grid's linked lists are
    // built concurrently, so the vector order is not compared.)
    EXPECT_EQ(VectorDomains(&sim), domains1);
    if (pool) {
      // Every agent already lives in its domain's pool: none is relocated.
      EXPECT_EQ(CollectIdentities(&sim), objects1);
    }
  }
}

TEST(LoadBalanceTest, SingleDomainSortKeepsAgentObjects) {
  Param param = SortParam(4, 1);
  param.use_bdm_memory_manager = true;
  Simulation sim("test", param);
  AddRandomCells(&sim, 1000, 250, 13, /*with_behavior=*/true);
  const Identities before = CollectIdentities(&sim);
  const uint64_t allocations = PoolAllocations();
  ASSERT_GT(allocations, 0u) << "cells must come from the pool";
  LoadBalanceOp op(1);
  op.Run(&sim);
  // On one domain a copy buys nothing: every uid resolves to the same
  // object with the same behaviors, and the pool hands out nothing.
  EXPECT_EQ(PoolAllocations(), allocations);
  EXPECT_EQ(CollectIdentities(&sim), before);
  for (const auto& [uid, identity] : before) {
    EXPECT_EQ(sim.GetResourceManager()->GetAgent(uid), identity.first) << uid;
  }
  ExpectMortonOrdered(&sim, 0);
}

TEST(LoadBalanceTest, CrossDomainSortRelocatesOnlyMovers) {
  Param param = SortParam(4, 2);
  param.use_bdm_memory_manager = true;
  Simulation sim("test", param);
  AddRandomCells(&sim, 2000, 300, 14, /*with_behavior=*/true);
  const MemoryManager* memory = MemoryManager::GetGlobal();
  ASSERT_NE(memory, nullptr);
  std::map<AgentUid, std::pair<Agent*, int>> homes;  // object, pool domain
  sim.GetResourceManager()->ForEachAgent([&](Agent* a, AgentHandle) {
    homes[a->GetUid()] = {a, memory->DomainOf(a)};
  });
  LoadBalanceOp op(1);
  op.Run(&sim);
  int relocated = 0;
  int kept = 0;
  sim.GetResourceManager()->ForEachAgent([&](Agent* a, AgentHandle handle) {
    const auto& [old_agent, home] = homes.at(a->GetUid());
    const bool moved = a != old_agent;
    EXPECT_EQ(moved, home != handle.numa_domain) << a->GetUid();
    EXPECT_EQ(memory->DomainOf(a), handle.numa_domain) << a->GetUid();
    relocated += moved ? 1 : 0;
    kept += moved ? 0 : 1;
  });
  // The main thread allocated every cell in domain 0 and balancing sends
  // about half to domain 1, so both branches are exercised.
  EXPECT_GT(relocated, 0);
  EXPECT_GT(kept, 0);
}

TEST(LoadBalanceTest, ExtraMemorySortIsContiguous) {
  Param param = SortParam(4, 2);
  param.use_bdm_memory_manager = true;
  param.sort_with_extra_memory = true;
  Simulation sim("test", param);
  AddRandomCells(&sim, 2000, 300, 15);
  const Identities before = CollectIdentities(&sim);
  LoadBalanceOp op(1);
  op.Run(&sim);
  // Every agent is relocated ...
  int changed = 0;
  for (const auto& [uid, identity] : before) {
    changed += sim.GetResourceManager()->GetAgent(uid) != identity.first;
  }
  EXPECT_EQ(changed, static_cast<int>(before.size()));
  // ... into freshly carved pool memory, so agents adjacent in a domain's
  // vector are (nearly always) adjacent in memory too.
  for (int d = 0; d < 2; ++d) {
    const auto& agents = sim.GetResourceManager()->GetAgentVector(d);
    ASSERT_GT(agents.size(), 1u);
    size_t near = 0;
    for (size_t i = 1; i < agents.size(); ++i) {
      const auto gap = reinterpret_cast<intptr_t>(agents[i]) -
                       reinterpret_cast<intptr_t>(agents[i - 1]);
      near += std::llabs(gap) <= 256 ? 1 : 0;
    }
    EXPECT_GE(near, (agents.size() - 1) * 9 / 10) << "domain " << d;
  }
}

TEST(LoadBalanceTest, HilbertCurvePreservesAgentSet) {
  Param param = SortParam();
  param.sorting_curve = SortingCurve::kHilbert;
  Simulation sim("test", param);
  AddRandomCells(&sim, 400, 200, 11);
  std::map<AgentUid, Real3> before;
  sim.GetResourceManager()->ForEachAgent([&](Agent* a, AgentHandle) {
    before[a->GetUid()] = a->GetPosition();
  });
  LoadBalanceOp op(1);
  op.Run(&sim);
  std::map<AgentUid, Real3> after;
  sim.GetResourceManager()->ForEachAgent([&](Agent* a, AgentHandle) {
    after[a->GetUid()] = a->GetPosition();
  });
  EXPECT_EQ(before, after);
}

TEST(LoadBalanceTest, HilbertBalancesLikeMorton) {
  Param param = SortParam(4, 2);
  param.sorting_curve = SortingCurve::kHilbert;
  Simulation sim("test", param);
  AddRandomCells(&sim, 2000, 300, 12);
  LoadBalanceOp op(1);
  op.Run(&sim);
  auto* rm = sim.GetResourceManager();
  const auto d0 = static_cast<double>(rm->GetNumAgents(0));
  EXPECT_NEAR(d0 / 2000.0, 0.5, 0.1);
}

TEST(LoadBalanceTest, WorksWithMemoryManagerEnabled) {
  Param param = SortParam();
  param.use_bdm_memory_manager = true;
  Simulation sim("test", param);
  AddRandomCells(&sim, 500, 200, 9);
  LoadBalanceOp op(1);
  op.Run(&sim);
  EXPECT_EQ(sim.GetResourceManager()->GetNumAgents(), 500u);
  // And the simulation still runs afterwards.
  sim.Simulate(2);
  EXPECT_EQ(sim.GetResourceManager()->GetNumAgents(), 500u);
}

TEST(LoadBalanceTest, ScheduledSortingKeepsModelRunning) {
  Param param = SortParam();
  param.agent_sort_frequency = 2;  // via the scheduler every 2nd iteration
  Simulation sim("test", param);
  AddRandomCells(&sim, 300, 150, 10);
  sim.Simulate(6);
  EXPECT_EQ(sim.GetResourceManager()->GetNumAgents(), 300u);
  EXPECT_EQ(sim.GetTiming()->Count("load_balancing"), 3u);
}

}  // namespace
}  // namespace bdm
