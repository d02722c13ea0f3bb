// Operation-DAG tests: edge derivation from resource footprints, cycle
// detection, bitwise equivalence of DAG vs. sequential execution, plan
// invalidation on pipeline mutation, the sink's between-parallel-regions
// guarantee, concurrent churn under the audit, and the chrome-trace export
// of overlapping lanes.
#include "core/op_dag.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "continuum/diffusion_grid.h"
#include "core/cell.h"
#include "core/resource_manager.h"
#include "core/scheduler.h"
#include "core/simulation.h"
#include "math/random.h"
#include "models/common_behaviors.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sched/numa_thread_pool.h"
#include "support/temp_path.h"

namespace bdm {
namespace {

// ---------------------------------------------------------------------------
// OpDag: edge derivation and ordering
// ---------------------------------------------------------------------------

bool Conflicts(const OpDagNode& a, const OpDagNode& b) {
  return ((a.writes & (b.reads | b.writes)) | (a.reads & b.writes)) != 0;
}

TEST(OpDagTest, PipelineEdgesMatchConflictRule) {
  std::mt19937 rng(12345);
  for (int trial = 0; trial < 100; ++trial) {
    const int n = 1 + static_cast<int>(rng() % 12);
    std::vector<OpDagNode> nodes;
    for (int i = 0; i < n; ++i) {
      nodes.push_back({"op" + std::to_string(i),
                       static_cast<uint8_t>(rng() & kResAll),
                       static_cast<uint8_t>(rng() & kResAll)});
    }
    const OpDag dag = OpDag::FromPipeline(nodes);
    ASSERT_EQ(dag.size(), n);
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        EXPECT_EQ(dag.HasEdge(i, j), Conflicts(nodes[i], nodes[j]))
            << "trial " << trial << " edge " << i << "->" << j;
        EXPECT_FALSE(dag.HasEdge(j, i)) << "backward edge " << j << "->" << i;
      }
    }
  }
}

TEST(OpDagTest, TopologicalOrderValidUnderRandomizedDueSets) {
  // Nodes modeled after the default pipeline's footprints; random due
  // subsets simulate frequency-gated iterations.
  const std::vector<OpDagNode> pipeline = {
      {"load_balancing", kResAll, kResAll},
      {"environment_update", kResAgentsGeometry | kResPopulation,
       kResGrid | kResAgentsGeometry},
      {"staticness", kResGrid | kResAgentsGeometry, kResAgentsGeometry},
      {"agent_ops", kResGrid | kResAgentsGeometry | kResDiffusion,
       kResAgentsGeometry | kResPopulation | kResDiffusion},
      {"mechanical_forces", kResGrid | kResAgentsGeometry,
       kResAgentsGeometry | kResForces},
      {"diffusion", kResDiffusion, kResDiffusion},
      {"commit", kResAll, kResAll},
  };
  std::mt19937 rng(987);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<OpDagNode> due;
    for (const OpDagNode& node : pipeline) {
      if (rng() % 2 == 0) {
        due.push_back(node);
      }
    }
    const OpDag dag = OpDag::FromPipeline(due);
    const std::vector<int> order = dag.TopologicalOrder();
    ASSERT_EQ(order.size(), due.size());
    // Must be a permutation that places every edge source before its target.
    std::vector<int> position(due.size(), -1);
    for (size_t pos = 0; pos < order.size(); ++pos) {
      ASSERT_GE(order[pos], 0);
      ASSERT_LT(order[pos], dag.size());
      ASSERT_EQ(position[order[pos]], -1) << "duplicate node in order";
      position[order[pos]] = static_cast<int>(pos);
    }
    for (int i = 0; i < dag.size(); ++i) {
      for (int succ : dag.successors(i)) {
        EXPECT_LT(position[i], position[succ]);
      }
    }
    // FromPipeline only creates forward edges, so the min-index Kahn order
    // is the pipeline order itself -- DAG mode refines, never reorders.
    for (size_t pos = 0; pos < order.size(); ++pos) {
      EXPECT_EQ(order[pos], static_cast<int>(pos));
    }
  }
}

TEST(OpDagTest, FromEdgesDetectsCycle) {
  const std::vector<OpDagNode> nodes = {{"a", 1, 1}, {"b", 1, 1}, {"c", 1, 1}};
  EXPECT_THROW(OpDag::FromEdges(nodes, {{0, 1}, {1, 2}, {2, 0}}),
               std::invalid_argument);
  EXPECT_THROW(OpDag::FromEdges(nodes, {{1, 1}}), std::invalid_argument);
  EXPECT_THROW(OpDag::FromEdges(nodes, {{0, 3}}), std::invalid_argument);
  EXPECT_THROW(OpDag::FromEdges(nodes, {{-1, 0}}), std::invalid_argument);
}

TEST(OpDagTest, FromEdgesAcceptsDiamond) {
  const std::vector<OpDagNode> nodes = {
      {"root", 1, 1}, {"left", 1, 1}, {"right", 1, 1}, {"sink", 1, 1}};
  const OpDag dag =
      OpDag::FromEdges(nodes, {{0, 1}, {0, 2}, {1, 3}, {2, 3}});
  EXPECT_EQ(dag.num_predecessors(0), 0);
  EXPECT_EQ(dag.num_predecessors(3), 2);
  const std::vector<int> order = dag.TopologicalOrder();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(DagExecutorTest, SlotBaseAtCapacityThrows) {
  // A lane's thread slot indexes the kMaxSlots-sized metrics and timing
  // shard arrays; a slot base at capacity leaves room for no lane at all.
  NumaThreadPool pool(Topology(2, 1));
  EXPECT_THROW(DagExecutor(&pool, 2, MetricsRegistry::kMaxSlots),
               std::invalid_argument);
  // One slot left: the executor clamps to a single lane.
  DagExecutor last(&pool, 2, MetricsRegistry::kMaxSlots - 1);
  EXPECT_EQ(last.NumLanes(), 1);
  EXPECT_EQ(last.LaneThreadSlot(0), MetricsRegistry::kMaxSlots - 1);
}

// ---------------------------------------------------------------------------
// Scheduler integration
// ---------------------------------------------------------------------------

Param DagParam(int threads, bool op_dag) {
  Param param;
  param.num_threads = threads;
  param.num_numa_domains = 1;
  param.op_dag = op_dag;
  param.use_bdm_memory_manager = false;
  return param;
}

/// Cells coupled to an "attractant" diffusion grid: secretors raise the
/// field, every cell chemotaxes along its gradient, and GrowDivide churns
/// the population. Exercises every resource class at once.
DiffusionGrid* BuildCoupledWorkload(Simulation* sim, uint64_t n, real_t space,
                                    uint64_t seed, bool secrete) {
  auto* grid = sim->AddDiffusionGrid(
      std::make_unique<DiffusionGrid>("attractant", 50, 0.01, 16), {0, 0, 0},
      {space, space, space});
  grid->SetInitialValue(
      [space](const Real3& p) { return (p - Real3{space / 2, space / 2, space / 2}).Norm() * real_t{0.01}; });
  Random random(seed);
  auto* rm = sim->GetResourceManager();
  for (uint64_t i = 0; i < n; ++i) {
    auto* cell = new Cell(random.UniformPoint(space * real_t{0.1},
                                              space * real_t{0.9}),
                          10);
    if (secrete && i % 4 == 0) {
      cell->AddBehavior(new models::Secretion(grid, 2));
    }
    cell->AddBehavior(new models::Chemotaxis(grid, real_t{0.5}));
    if (i % 8 == 0) {
      // Fast growth: dividers reach the 14 um division diameter within a
      // few iterations, so short runs still churn the population.
      cell->AddBehavior(new models::GrowDivide(40000, 14));
    }
    rm->AddAgent(cell);
  }
  return grid;
}

std::map<AgentUid, Real3> Snapshot(Simulation* sim) {
  std::map<AgentUid, Real3> result;
  sim->GetResourceManager()->ForEachAgent([&](Agent* agent, AgentHandle) {
    result[agent->GetUid()] = agent->GetPosition();
  });
  return result;
}

/// Field probe: exact concentrations on a fixed lattice.
std::vector<real_t> ProbeField(const DiffusionGrid* grid, real_t space) {
  std::vector<real_t> values;
  for (int x = 1; x < 5; ++x) {
    for (int y = 1; y < 5; ++y) {
      for (int z = 1; z < 5; ++z) {
        values.push_back(grid->GetConcentration(
            {space * x / 5, space * y / 5, space * z / 5}));
      }
    }
  }
  return values;
}

TEST(SchedulerDagTest, DefaultPipelineDagShape) {
  Simulation sim("dag_shape", DagParam(2, true));
  auto* scheduler = sim.GetScheduler();
  ASSERT_TRUE(scheduler->UsesOpDag());
  const OpDag& dag = scheduler->GetIterationDag();
  std::map<std::string, int> index;
  for (int i = 0; i < dag.size(); ++i) {
    index[dag.node(i).name] = i;
  }
  // Iteration 0 with default params: load_balancing, environment_update,
  // agent_ops (behaviors), mechanical_forces (fused), diffusion, commit.
  ASSERT_TRUE(index.count("environment_update"));
  ASSERT_TRUE(index.count("agent_ops"));
  ASSERT_TRUE(index.count("mechanical_forces"));
  ASSERT_TRUE(index.count("diffusion"));
  ASSERT_TRUE(index.count("commit"));
  const int mech = index["mechanical_forces"];
  const int diff = index["diffusion"];
  const int commit = index["commit"];
  // The payoff edge-pair: mechanics and diffusion are independent.
  EXPECT_FALSE(dag.HasEdge(mech, diff));
  EXPECT_FALSE(dag.HasEdge(diff, mech));
  // Behaviors write the deposit logs diffusion folds in: ordered.
  EXPECT_TRUE(dag.HasEdge(index["agent_ops"], diff));
  EXPECT_TRUE(dag.HasEdge(index["agent_ops"], mech));
  EXPECT_TRUE(dag.HasEdge(index["environment_update"], index["agent_ops"]));
  // Commit declares read/write-all: the sink with an edge from every node.
  for (int i = 0; i < dag.size(); ++i) {
    if (i != commit) {
      EXPECT_TRUE(dag.HasEdge(i, commit)) << dag.node(i).name;
    }
  }
}

TEST(SchedulerDagTest, SingleThreadTrajectoryBitwiseMatchesSequential) {
  // Full coupling incl. secretion: with one worker both modes execute the
  // identical IEEE operation sequence, so agreement must be bitwise.
  for (const EnvironmentType env :
       {EnvironmentType::kUniformGrid, EnvironmentType::kKdTree,
        EnvironmentType::kOctree}) {
    std::map<AgentUid, Real3> positions[2];
    std::vector<real_t> field[2];
    size_t counts[2];
    for (const bool use_dag : {false, true}) {
      Param param = DagParam(1, use_dag);
      param.environment = env;
      Simulation sim(use_dag ? "dag_traj_on" : "dag_traj_off", param);
      DiffusionGrid* grid = BuildCoupledWorkload(&sim, 200, 90, 17,
                                                 /*secrete=*/true);
      sim.Simulate(15);
      positions[use_dag] = Snapshot(&sim);
      field[use_dag] = ProbeField(grid, 90);
      counts[use_dag] = positions[use_dag].size();
    }
    ASSERT_EQ(counts[0], counts[1]);
    ASSERT_GT(counts[0], 200u);  // divisions happened
    auto it = positions[1].begin();
    for (const auto& [uid, pos] : positions[0]) {
      ASSERT_EQ(uid, it->first);
      EXPECT_EQ(pos.x, it->second.x);
      EXPECT_EQ(pos.y, it->second.y);
      EXPECT_EQ(pos.z, it->second.z);
      ++it;
    }
    ASSERT_EQ(field[0].size(), field[1].size());
    for (size_t i = 0; i < field[0].size(); ++i) {
      EXPECT_EQ(field[0][i], field[1][i]);
    }
  }
}

TEST(SchedulerDagTest, MultiThreadTrajectoryMatchesSequential) {
  // Multithreaded bitwise comparison needs a workload without the engine's
  // remaining cross-run nondeterminism (parallel grid insert order under
  // contact forces): sparse cells that never collide, chemotaxing over a
  // fixed field. Diffusion stepping is per-voxel independent, so slab
  // partitions of different team widths produce bitwise-equal fields.
  std::map<AgentUid, Real3> positions[2];
  std::vector<real_t> field[2];
  for (const bool use_dag : {false, true}) {
    Param param = DagParam(4, use_dag);
    param.num_numa_domains = 2;
    param.agent_sort_frequency = 0;  // keep dense order = insertion order
    Simulation sim(use_dag ? "dag_mt_on" : "dag_mt_off", param);
    const real_t space = 300;
    auto* grid = sim.AddDiffusionGrid(
        std::make_unique<DiffusionGrid>("attractant", 80, 0.02, 16),
        {0, 0, 0}, {space, space, space});
    grid->SetInitialValue([space](const Real3& p) {
      return (p - Real3{space / 2, space / 2, space / 2}).SquaredNorm() *
             real_t{0.0001};
    });
    auto* rm = sim.GetResourceManager();
    // 6x6x6 lattice with 40 um pitch: interaction radius (diameter 10)
    // never reaches a neighbor, so mechanics computes zero pairs.
    for (int x = 0; x < 6; ++x) {
      for (int y = 0; y < 6; ++y) {
        for (int z = 0; z < 6; ++z) {
          auto* cell = new Cell(
              {30 + real_t{40} * x, 30 + real_t{40} * y, 30 + real_t{40} * z},
              10);
          cell->AddBehavior(new models::Chemotaxis(grid, real_t{0.8}));
          rm->AddAgent(cell);
        }
      }
    }
    sim.Simulate(10);
    positions[use_dag] = Snapshot(&sim);
    field[use_dag] = ProbeField(grid, space);
  }
  ASSERT_EQ(positions[0].size(), positions[1].size());
  auto it = positions[1].begin();
  for (const auto& [uid, pos] : positions[0]) {
    ASSERT_EQ(uid, it->first);
    EXPECT_EQ(pos.x, it->second.x);
    EXPECT_EQ(pos.y, it->second.y);
    EXPECT_EQ(pos.z, it->second.z);
    ++it;
  }
  for (size_t i = 0; i < field[0].size(); ++i) {
    EXPECT_EQ(field[0][i], field[1][i]);
  }
}

TEST(SchedulerDagTest, ConcurrentChurnWithAuditEveryIteration) {
  // tsan target: diffusion overlapping mechanics while divisions add agents
  // and the consistency audit cross-checks the index each iteration.
  Param param = DagParam(4, true);
  param.num_numa_domains = 2;
  param.audit_interval = 1;
  Simulation sim("dag_churn", param);
  BuildCoupledWorkload(&sim, 400, 110, 23, /*secrete=*/true);
  ASSERT_NO_THROW(sim.Simulate(12));
  EXPECT_GT(Snapshot(&sim).size(), 400u);
}

class ThrowingOp : public StandaloneOperation {
 public:
  ThrowingOp() : StandaloneOperation("throwing_op", 1) {
    DeclareResources(kResDiffusion, 0);  // runs concurrent with mechanics
  }
  void Run(Simulation*) override {
    throw std::runtime_error("op failure on a lane thread");
  }
};

TEST(SchedulerDagTest, LaneExceptionPropagatesToCaller) {
  Simulation sim("dag_throw", DagParam(2, true));
  sim.GetResourceManager()->AddAgent(new Cell({10, 10, 10}, 10));
  sim.GetScheduler()->AppendPostOp(std::make_unique<ThrowingOp>());
  EXPECT_THROW(sim.Simulate(2), std::runtime_error);
}

class NoopOp : public StandaloneOperation {
 public:
  // Deliberately no DeclareResources: an undeclared user op defaults to
  // read/write-all and must serialize against the whole pipeline.
  NoopOp() : StandaloneOperation("custom_noop", 1) {}
  void Run(Simulation*) override {}
};

TEST(SchedulerDagTest, PipelineMutationInvalidatesCachedPlan) {
  Simulation sim("dag_mutate", DagParam(2, true));
  sim.GetResourceManager()->AddAgent(new Cell({10, 10, 10}, 10));
  auto* scheduler = sim.GetScheduler();
  sim.Simulate(2);  // populate the plan cache
  const int size_before = scheduler->GetIterationDag().size();
  ASSERT_TRUE(scheduler->RemoveOp("diffusion"));
  {
    const OpDag& dag = scheduler->GetIterationDag();
    EXPECT_EQ(dag.size(), size_before - 1);
    for (int i = 0; i < dag.size(); ++i) {
      EXPECT_NE(dag.node(i).name, "diffusion");
    }
  }
  scheduler->AppendPostOp(std::make_unique<NoopOp>());
  {
    const OpDag& dag = scheduler->GetIterationDag();
    int custom = -1;
    for (int i = 0; i < dag.size(); ++i) {
      if (dag.node(i).name == "custom_noop") {
        custom = i;
      }
    }
    ASSERT_GE(custom, 0);
    // Read/write-all: ordered against every other node.
    for (int i = 0; i < custom; ++i) {
      EXPECT_TRUE(dag.HasEdge(i, custom)) << dag.node(i).name;
    }
  }
  // GetOp hands out a mutable op; changing its frequency must reflect in
  // the next derived DAG (the plan is invalidated, not patched).
  OperationBase* noop = scheduler->GetOp("custom_noop");
  ASSERT_NE(noop, nullptr);
  noop->SetFrequency(1000);  // not due at iterations 3..5
  {
    const OpDag& dag = scheduler->GetIterationDag();
    for (int i = 0; i < dag.size(); ++i) {
      EXPECT_NE(dag.node(i).name, "custom_noop");
    }
  }
  sim.Simulate(3);  // still executes after the mutations
}

TEST(SchedulerDagTest, SinkIsBetweenParallelRegionsAndTimingFolds) {
  Param param = DagParam(4, true);
  Simulation sim("dag_sink", param);
  BuildCoupledWorkload(&sim, 200, 90, 31, /*secrete=*/true);
  int snapshots = 0;
  sim.GetScheduler()->SetSnapshotCallback(
      [&](const Scheduler::IterationSnapshot& snapshot) {
        ++snapshots;
        // The snapshot window sits after the DAG sink: FlushShards'
        // "strictly between parallel regions" precondition must hold.
        EXPECT_TRUE(sim.GetThreadPool()->Quiescent());
        EXPECT_EQ(snapshot.iteration + 1, static_cast<uint64_t>(snapshots));
      });
  const uint64_t iterations = 8;
  sim.Simulate(iterations);
  EXPECT_EQ(snapshots, static_cast<int>(iterations));
  // ScopedTimers ran on lane threads; after Fold the per-op counts must be
  // exact -- one record per op per iteration, none lost to a shard.
  const TimingAggregator* timing = sim.GetTiming();
  EXPECT_EQ(timing->Count("agent_ops"), iterations);
  EXPECT_EQ(timing->Count("mechanical_forces"), iterations);
  EXPECT_EQ(timing->Count("diffusion"), iterations);
  EXPECT_EQ(timing->Count("commit"), iterations);
}

// ---------------------------------------------------------------------------
// Chrome-trace export of overlapping lanes
// ---------------------------------------------------------------------------

bool JsonBalanced(const std::string& text) {
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (const char c : text) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (c == '\\') {
      escaped = true;
      continue;
    }
    if (c == '"') {
      in_string = !in_string;
      continue;
    }
    if (in_string) {
      continue;
    }
    if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      if (--depth < 0) {
        return false;
      }
    }
  }
  return depth == 0 && !in_string;
}

TEST(DagTraceTest, DagModeTraceIsWellFormedAndNamesLaneTracks) {
  const std::string path = test::TempPath("dag.trace.json");
  setenv("BDM_TRACE", path.c_str(), 1);
  {
    Param param = DagParam(4, true);
    Simulation sim("dag_trace", param);
    BuildCoupledWorkload(&sim, 300, 100, 41, /*secrete=*/true);
    sim.Simulate(5);
  }  // dtor stops the recorder and writes the file
  unsetenv("BDM_TRACE");
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "BDM_TRACE did not produce " << path;
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_TRUE(JsonBalanced(text));
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  // Lane tracks are registered by the executor and emitted as thread_name
  // metadata, so Perfetto shows diffusion overlapping mechanics on
  // separate rows.
  EXPECT_NE(text.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(text.find("op lane 0"), std::string::npos);
  EXPECT_NE(text.find("\"name\": \"mechanics_fused\""), std::string::npos);
  EXPECT_NE(text.find("\"name\": \"diffusion\""), std::string::npos);
  // Spans landed on more than one thread track.
  std::set<std::string> tids;
  for (size_t pos = text.find("\"tid\": "); pos != std::string::npos;
       pos = text.find("\"tid\": ", pos + 1)) {
    const size_t end = text.find_first_of(",}", pos);
    tids.insert(text.substr(pos + 7, end - pos - 7));
  }
  EXPECT_GE(tids.size(), 2u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace bdm
