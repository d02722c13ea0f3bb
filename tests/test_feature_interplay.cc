// Cross-feature interplay: combinations of optimizations and platform
// features that must compose (each is individually tested elsewhere).
#include <gtest/gtest.h>

#include <cstdio>
#include <map>

#include "core/cell.h"
#include "core/load_balance_op.h"
#include "core/resource_manager.h"
#include "core/scheduler.h"
#include "core/simulation.h"
#include "io/checkpoint.h"
#include "io/exporter.h"
#include "io/time_series.h"
#include "math/random.h"
#include "models/common_behaviors.h"

namespace bdm {
namespace {

void AddRandomCells(Simulation* sim, int n, real_t space, uint64_t seed,
                    bool with_growth = false) {
  Random random(seed);
  for (int i = 0; i < n; ++i) {
    auto* cell = new Cell(random.UniformPoint(0, space), 8);
    if (with_growth) {
      cell->AddBehavior(new models::GrowDivide(4000, 10));
    }
    sim->GetResourceManager()->AddAgent(cell);
  }
}

TEST(FeatureInterplayTest, PairEnginePlusSortingPlusAllocator) {
  Param param;
  param.num_threads = 4;
  param.num_numa_domains = 2;
  param.agent_sort_frequency = 3;
  param.use_bdm_memory_manager = true;
  Simulation sim("combo", param);
  AddRandomCells(&sim, 400, 100, 1, /*with_growth=*/true);
  sim.Simulate(20);
  // Population grew (divisions) and every uid still resolves after the
  // sorting copies interleaved with the pair engine's store write-backs.
  EXPECT_GT(sim.GetResourceManager()->GetNumAgents(), 400u);
  sim.GetResourceManager()->ForEachAgent([&](Agent* agent, AgentHandle h) {
    ASSERT_EQ(sim.GetResourceManager()->GetAgentHandle(agent->GetUid()), h);
  });
}

TEST(FeatureInterplayTest, HilbertSortingInFullSimulation) {
  Param param;
  param.num_threads = 4;
  param.num_numa_domains = 2;
  param.agent_sort_frequency = 2;
  param.sorting_curve = SortingCurve::kHilbert;
  param.use_bdm_memory_manager = true;
  Simulation sim("combo", param);
  AddRandomCells(&sim, 500, 150, 2);
  sim.Simulate(10);
  EXPECT_EQ(sim.GetResourceManager()->GetNumAgents(), 500u);
  EXPECT_EQ(sim.GetTiming()->Count("load_balancing"), 5u);
}

TEST(FeatureInterplayTest, CheckpointAfterSortingRestoresConsistently) {
  const std::string path = "/tmp/bdm_interplay_ckpt.bin";
  uint64_t saved = 0;
  {
    Param param;
    param.num_threads = 2;
    param.num_numa_domains = 2;
    param.agent_sort_frequency = 1;  // sort every iteration, then save
    param.use_bdm_memory_manager = true;
    Simulation sim("combo", param);
    AddRandomCells(&sim, 300, 120, 3, /*with_growth=*/true);
    sim.Simulate(15);
    saved = sim.GetResourceManager()->GetNumAgents();
    io::Checkpoint::Save(&sim, path);
  }
  {
    Param param;
    param.num_threads = 4;  // restore under a different thread/domain layout
    param.num_numa_domains = 1;
    param.use_bdm_memory_manager = false;
    Simulation sim("combo", param);
    io::Checkpoint::Load(&sim, path);
    EXPECT_EQ(sim.GetResourceManager()->GetNumAgents(), saved);
    sim.Simulate(10);
    EXPECT_GE(sim.GetResourceManager()->GetNumAgents(), saved);
  }
  std::remove(path.c_str());
}

TEST(FeatureInterplayTest, ExportAndTimeSeriesDuringSortedStaticRun) {
  Param param;
  param.num_threads = 2;
  param.num_numa_domains = 1;
  param.agent_sort_frequency = 4;
  param.detect_static_agents = true;
  param.use_bdm_memory_manager = true;
  Simulation sim("combo", param);
  AddRandomCells(&sim, 200, 120, 4);
  io::TimeSeries series;
  series.AddCollector("static_fraction", [](Simulation* s) {
    uint64_t num_static = 0;
    s->GetResourceManager()->ForEachAgent(
        [&](Agent* a, AgentHandle) { num_static += a->IsStatic(); });
    return static_cast<real_t>(num_static) /
           s->GetResourceManager()->GetNumAgents();
  });
  sim.GetScheduler()->AppendPostOp(
      std::make_unique<io::TimeSeriesOp>(&series, 1));
  sim.GetScheduler()->AppendPostOp(
      std::make_unique<io::ExportOp>("/tmp/bdm_interplay", io::Format::kVtk, 10));
  sim.Simulate(20);
  ASSERT_EQ(series.NumSamples(), 20u);
  // Staticness flags survive the sorting copies: the fraction climbs as
  // the random packing relaxes.
  EXPECT_GT(series.Get("static_fraction").back(), 0.0);
  std::remove("/tmp/bdm_interplay_0.vtk");
  std::remove("/tmp/bdm_interplay_1.vtk");
}

TEST(FeatureInterplayTest, LoadBalanceOpHonorsPairEnginePositions) {
  // Sorting after the pair engine's displacements must index agents by
  // their *new* positions (the engine writes them to agents and store).
  Param param;
  param.num_threads = 2;
  param.num_numa_domains = 2;
  param.agent_sort_frequency = 0;
  param.use_bdm_memory_manager = false;
  Simulation sim("combo", param);
  AddRandomCells(&sim, 300, 80, 5);
  sim.Simulate(5);
  auto* rm = sim.GetResourceManager();
  std::map<AgentUid, Real3> moved;
  rm->ForEachAgent([&](Agent* agent, AgentHandle) {
    moved[agent->GetUid()] = agent->GetPosition();
  });
  LoadBalanceOp op(1);
  op.Run(&sim);
  EXPECT_EQ(rm->GetNumAgents(), 300u);
  // The sorted copies carry the displaced positions, bit for bit.
  rm->ForEachAgent([&](Agent* agent, AgentHandle) {
    EXPECT_EQ(agent->GetPosition(), moved.at(agent->GetUid()));
  });
}

}  // namespace
}  // namespace bdm
