// Environment edge cases: degenerate and adversarial agent distributions
// that the random-uniform correctness suite does not reach.
#include <gtest/gtest.h>

#include <memory>
#include <set>

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
