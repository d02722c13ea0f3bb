// Long-horizon stress and fuzz tests: random population churn over many
// iterations with the full optimization stack enabled, checking the
// engine-wide invariants that every subsystem must jointly preserve.
#include <gtest/gtest.h>

#include <set>

#include "core/cell.h"
#include "core/resource_manager.h"
#include "core/scheduler.h"
#include "core/simulation.h"
#include "env/uniform_grid.h"
#include "models/common_behaviors.h"

namespace bdm {
namespace {

/// Randomly divides, dies, moves, grows, or shrinks -- a worst-case churn
/// workload touching every commit/sort/static code path at once.
class ChurnBehavior : public Behavior {
 public:
  void Run(Agent* agent, ExecutionContext* ctx) override {
    auto* cell = static_cast<Cell*>(agent);
    Random* random = ctx->random();
    const real_t dice = random->Uniform();
    if (dice < 0.02) {
      cell->Divide(ctx, random->UnitVector());
    } else if (dice < 0.04) {
      ctx->RemoveAgent(cell->GetUid());
    } else if (dice < 0.5) {
      cell->SetPosition(cell->GetPosition() + random->UnitVector() * 2.0);
    } else if (dice < 0.7) {
      cell->SetDiameter(cell->GetDiameter() * 1.01);
    } else if (dice < 0.9) {
      cell->SetDiameter(std::max<real_t>(cell->GetDiameter() * 0.99, 2));
    }
  }
  Behavior* NewCopy() const override { return new ChurnBehavior(*this); }
};

// gtest names each case after the bytes of its parameter, so the struct
// has no padding (indeterminate bytes would make the names change from run
// to run): the two flags are ints, 0 or 1.
struct StressConfig {
  int threads;
  int domains;
  int memory_manager;
  int sort_frequency;
  int detect_static;
};

class StressTest : public ::testing::TestWithParam<StressConfig> {};

TEST_P(StressTest, InvariantsHoldUnderChurn) {
  const StressConfig c = GetParam();
  Param param;
  param.num_threads = c.threads;
  param.num_numa_domains = c.domains;
  param.use_bdm_memory_manager = c.memory_manager != 0;
  param.agent_sort_frequency = c.sort_frequency;
  param.detect_static_agents = c.detect_static != 0;
  Simulation sim("stress", param);
  auto* rm = sim.GetResourceManager();
  Random init(7);
  for (int i = 0; i < 500; ++i) {
    auto* cell = new Cell(init.UniformPoint(0, 150), 8);
    cell->AddBehavior(new ChurnBehavior());
    rm->AddAgent(cell);
  }

  for (int epoch = 0; epoch < 10; ++epoch) {
    sim.Simulate(5);
    // Invariant 1: every stored agent's uid resolves back to it with a
    // consistent handle, across removal swaps and sorting copies.
    std::set<AgentUid> uids;
    uint64_t count = 0;
    rm->ForEachAgent([&](Agent* agent, AgentHandle handle) {
      ++count;
      ASSERT_TRUE(agent->GetUid().IsValid());
      ASSERT_TRUE(uids.insert(agent->GetUid()).second) << "duplicate uid";
      ASSERT_EQ(rm->GetAgent(agent->GetUid()), agent);
      ASSERT_EQ(rm->GetAgentHandle(agent->GetUid()), handle);
      ASSERT_EQ(rm->GetAgent(handle), agent);
      // Geometry stays sane.
      ASSERT_TRUE(std::isfinite(agent->GetPosition().SquaredNorm()));
      ASSERT_GT(agent->GetDiameter(), 0);
    });
    // Invariant 2: per-domain sizes sum to the total.
    uint64_t per_domain = 0;
    for (int d = 0; d < rm->GetNumDomains(); ++d) {
      per_domain += rm->GetNumAgents(d);
    }
    ASSERT_EQ(per_domain, count);
    ASSERT_GT(count, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, StressTest,
    ::testing::Values(StressConfig{1, 1, 0, 0, 0},
                      StressConfig{2, 1, 1, 0, 0},
                      StressConfig{4, 2, 1, 3, 0},
                      StressConfig{4, 2, 1, 1, 1},
                      StressConfig{8, 4, 1, 2, 1},
                      StressConfig{3, 3, 0, 5, 1}));

TEST(StressTest, GridNeighborhoodStaysExactUnderChurn) {
  // After heavy churn, the uniform grid must still return exactly the
  // brute-force neighbor sets.
  Param param;
  param.num_threads = 4;
  param.num_numa_domains = 2;
  param.agent_sort_frequency = 2;
  param.use_bdm_memory_manager = true;
  Simulation sim("stress", param);
  auto* rm = sim.GetResourceManager();
  Random init(13);
  for (int i = 0; i < 300; ++i) {
    auto* cell = new Cell(init.UniformPoint(0, 100), 8);
    cell->AddBehavior(new ChurnBehavior());
    rm->AddAgent(cell);
  }
  sim.Simulate(25);

  auto* env = sim.GetEnvironment();
  env->Update(*rm, sim.GetThreadPool());
  const real_t squared_radius = 150;
  rm->ForEachAgent([&](Agent* query, AgentHandle) {
    std::multiset<AgentUid> expected;
    rm->ForEachAgent([&](Agent* other, AgentHandle) {
      if (other != query &&
          other->GetPosition().SquaredDistance(query->GetPosition()) <=
              squared_radius) {
        expected.insert(other->GetUid());
      }
    });
    std::multiset<AgentUid> actual;
    env->ForEachNeighbor(*query, squared_radius,
                         [&](const Environment::NeighborData& nb) {
                           actual.insert(nb.agent->GetUid());
                         });
    ASSERT_EQ(actual, expected);
  });
}

TEST(StressTest, PopulationExtinctionIsHandled) {
  // Removing every agent must leave a consistent, reusable simulation.
  Param param;
  param.num_threads = 2;
  param.num_numa_domains = 2;
  Simulation sim("extinction", param);
  auto* rm = sim.GetResourceManager();
  std::vector<AgentUid> uids;
  for (int i = 0; i < 100; ++i) {
    auto* cell = new Cell({static_cast<real_t>(i), 0, 0}, 8);
    rm->AddAgent(cell);
    uids.push_back(cell->GetUid());
  }
  auto* ctx = sim.GetActiveExecutionContext();
  for (const AgentUid& uid : uids) {
    ctx->RemoveAgent(uid);
  }
  sim.Simulate(2);  // commit happens inside; then an empty iteration
  EXPECT_EQ(rm->GetNumAgents(), 0u);
  // Rebuild on the same simulation.
  rm->AddAgent(new Cell({0, 0, 0}, 8));
  sim.Simulate(2);
  EXPECT_EQ(rm->GetNumAgents(), 1u);
}

}  // namespace
}  // namespace bdm
