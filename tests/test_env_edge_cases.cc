// Environment edge cases: degenerate and adversarial agent distributions
// that the random-uniform correctness suite does not reach.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "core/cell.h"
#include "core/resource_manager.h"
#include "env/kd_tree.h"
#include "env/octree.h"
#include "env/uniform_grid.h"
#include "math/random.h"

namespace bdm {
namespace {

struct EnvWorld {
  explicit EnvWorld(int threads = 2) {
    param.num_threads = threads;
    param.num_numa_domains = 1;
    pool = std::make_unique<NumaThreadPool>(Topology(threads, 1));
    rm = std::make_unique<ResourceManager>(param, pool.get(), &gen);
  }

  std::multiset<AgentUid> BruteForce(const Agent& query, real_t sr) const {
    std::multiset<AgentUid> result;
    rm->ForEachAgent([&](Agent* agent, AgentHandle) {
      if (agent != &query &&
          agent->GetPosition().SquaredDistance(query.GetPosition()) <= sr) {
        result.insert(agent->GetUid());
      }
    });
    return result;
  }

  void VerifyAllEnvironments(real_t sr) {
    UniformGridEnvironment grid(param);
    KdTreeEnvironment kd(param);
    OctreeEnvironment oct(param);
    Environment* envs[] = {&grid, &kd, &oct};
    for (Environment* env : envs) {
      env->Update(*rm, pool.get());
      rm->ForEachAgent([&](Agent* query, AgentHandle) {
        std::multiset<AgentUid> actual;
        env->ForEachNeighbor(*query, sr,
                             [&](const Environment::NeighborData& nb) {
                               actual.insert(nb.agent->GetUid());
                             });
        ASSERT_EQ(actual, BruteForce(*query, sr))
            << env->GetName() << " query " << query->GetUid();
      });
    }
  }

  Param param;
  AgentUidGenerator gen;
  std::unique_ptr<NumaThreadPool> pool;
  std::unique_ptr<ResourceManager> rm;
};

TEST(EnvEdgeCaseTest, AllAgentsAtTheSamePoint) {
  EnvWorld world;
  for (int i = 0; i < 20; ++i) {
    world.rm->AddAgent(new Cell({5, 5, 5}, 10));
  }
  world.VerifyAllEnvironments(100);
}

// 300 coincident agents in one box: every query and every pair-traversal
// agent has more hits than the grid's hit buffer holds (the 20-agent case
// above never fills it), so each scan reports in several batches. The query
// itself is among the hits and must be excluded in whichever batch it
// lands; the pair traversal must still emit each of the 300 * 299 / 2 pairs
// exactly once, in box order.
TEST(EnvEdgeCaseTest, CoincidentAgentsOverflowTheGridHitBuffer) {
  constexpr int kAgents = 300;
  static_assert(kAgents - 1 > 2 * UniformGridEnvironment::kHitCapacity,
                "every scan must flush mid-scan at least twice");
  EnvWorld world;
  for (int i = 0; i < kAgents; ++i) {
    world.rm->AddAgent(new Cell({5, 5, 5}, 10));
  }
  world.VerifyAllEnvironments(100);

  UniformGridEnvironment grid(world.param);
  grid.Update(*world.rm, world.pool.get());
  ASSERT_EQ(grid.GetNumBoxes(), 1);
  std::vector<uint32_t> box_order;  // dense indices in ForEachAgentInBox order
  std::map<const Agent*, uint32_t> dense_index;
  for (uint32_t i = 0; i < grid.DenseAgentCount(); ++i) {
    dense_index[grid.DenseAgents()[i]] = i;
  }
  grid.ForEachAgentInBox(
      0, [&](Agent* agent) { box_order.push_back(dense_index.at(agent)); });
  ASSERT_EQ(box_order.size(), static_cast<size_t>(kAgents));

  // Search: the box order without the query itself.
  for (uint32_t query : box_order) {
    std::vector<uint32_t> expected;
    for (uint32_t j : box_order) {
      if (j != query) {
        expected.push_back(j);
      }
    }
    std::vector<uint32_t> actual;
    grid.ForEachNeighbor(*grid.DenseAgents()[query], 100,
                         [&](const Environment::NeighborData& nb) {
                           actual.push_back(nb.index);
                         });
    ASSERT_EQ(actual, expected) << "query " << query;
  }

  // Pair traversal: owner i pairs with the agents after it in box order.
  std::vector<std::pair<uint32_t, uint32_t>> expected;
  for (uint32_t i = 0; i < grid.DenseAgentCount(); ++i) {
    const auto at = std::find(box_order.begin(), box_order.end(), i);
    for (auto it = at + 1; it != box_order.end(); ++it) {
      expected.emplace_back(i, *it);
    }
  }
  std::vector<std::pair<uint32_t, uint32_t>> actual;
  grid.ForEachNeighborPairInSlab(
      100, 0, static_cast<int64_t>(grid.DenseAgentCount()),
      [&](uint32_t i, uint32_t j, real_t d2) {
        EXPECT_EQ(d2, 0);
        actual.emplace_back(i, j);
      });
  EXPECT_EQ(actual, expected);
  std::set<std::pair<uint32_t, uint32_t>> unordered;
  for (const auto& [i, j] : actual) {
    unordered.emplace(std::min(i, j), std::max(i, j));
  }
  EXPECT_EQ(actual.size(), 44850u);
  EXPECT_EQ(unordered.size(), 44850u);
}

TEST(EnvEdgeCaseTest, CollinearAgents) {
  EnvWorld world;
  for (int i = 0; i < 50; ++i) {
    world.rm->AddAgent(new Cell({static_cast<real_t>(i) * 3, 0, 0}, 10));
  }
  world.VerifyAllEnvironments(100);
}

TEST(EnvEdgeCaseTest, CoplanarAgents) {
  EnvWorld world;
  Random random(3);
  for (int i = 0; i < 100; ++i) {
    world.rm->AddAgent(
        new Cell({random.Uniform(0, 100), random.Uniform(0, 100), 7}, 10));
  }
  world.VerifyAllEnvironments(150);
}

TEST(EnvEdgeCaseTest, TwoDistantClusters) {
  // Stresses kd-tree splits and octree subdivision with a huge empty gap.
  EnvWorld world;
  Random random(5);
  for (int i = 0; i < 60; ++i) {
    world.rm->AddAgent(new Cell(random.UniformPoint(0, 30), 8));
    world.rm->AddAgent(
        new Cell(random.UniformPoint(0, 30) + Real3{5000, 5000, 5000}, 8));
  }
  world.VerifyAllEnvironments(100);
}

TEST(EnvEdgeCaseTest, GaussianClump) {
  EnvWorld world;
  Random random(7);
  for (int i = 0; i < 200; ++i) {
    world.rm->AddAgent(new Cell({random.Gaussian(0, 5), random.Gaussian(0, 5),
                                 random.Gaussian(0, 5)},
                                6));
  }
  world.VerifyAllEnvironments(64);
}

TEST(EnvEdgeCaseTest, ExtremeDiameterSpread) {
  // One giant agent dominating the grid box length next to many tiny ones.
  EnvWorld world;
  Random random(9);
  world.rm->AddAgent(new Cell({50, 50, 50}, 80));
  for (int i = 0; i < 100; ++i) {
    world.rm->AddAgent(new Cell(random.UniformPoint(0, 100), 2));
  }
  world.VerifyAllEnvironments(30 * 30);
}

TEST(EnvEdgeCaseTest, NegativeCoordinates) {
  EnvWorld world;
  Random random(11);
  for (int i = 0; i < 100; ++i) {
    world.rm->AddAgent(new Cell(random.UniformPoint(-500, -300), 10));
  }
  world.VerifyAllEnvironments(200);
}

TEST(EnvEdgeCaseTest, TinyRadiusFindsOnlyCoincident) {
  EnvWorld world;
  world.rm->AddAgent(new Cell({0, 0, 0}, 10));
  world.rm->AddAgent(new Cell({0, 0, 0}, 10));
  world.rm->AddAgent(new Cell({1, 0, 0}, 10));
  world.VerifyAllEnvironments(1e-12);
}

TEST(EnvEdgeCaseTest, DuplicatePointsInOctreeDoNotRecurseForever) {
  // 100 identical points exceed any bucket size; the min-extent cutoff must
  // terminate the subdivision.
  EnvWorld world;
  for (int i = 0; i < 100; ++i) {
    world.rm->AddAgent(new Cell({1, 2, 3}, 5));
  }
  OctreeEnvironment oct(world.param);
  oct.Update(*world.rm, world.pool.get());
  int found = 0;
  Agent* first = nullptr;
  world.rm->ForEachAgent([&](Agent* a, AgentHandle) {
    if (first == nullptr) {
      first = a;
    }
  });
  oct.ForEachNeighbor(*first, 1,
                      [&](const Environment::NeighborData&) { ++found; });
  EXPECT_EQ(found, 99);
}

TEST(EnvEdgeCaseTest, QueryRadiusLargerThanWorld) {
  EnvWorld world;
  Random random(13);
  for (int i = 0; i < 50; ++i) {
    world.rm->AddAgent(new Cell(random.UniformPoint(0, 40), 8));
  }
  world.VerifyAllEnvironments(1e8);  // everyone neighbors everyone
}

}  // namespace
}  // namespace bdm
