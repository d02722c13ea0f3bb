// Scheduler and operation-DAG tests: edge derivation from resource
// footprints, the LaneExecutor's slot check and team carving, ops running in
// pipeline order on the calling thread, bitwise equivalence of main-thread
// runs vs. the lane-stepped reference (tests/support/lane_step.h),
// per-iteration plans that follow pipeline mutations and keep every op, the
// iteration end's between-parallel-regions guarantee, and concurrent churn
// under the audit.
#include "core/op_dag.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "continuum/diffusion_grid.h"
#include "core/cell.h"
#include "core/resource_manager.h"
#include "core/scheduler.h"
#include "core/simulation.h"
#include "math/random.h"
#include "models/common_behaviors.h"
#include "obs/metrics.h"
#include "sched/lane_executor.h"
#include "sched/numa_thread_pool.h"
#include "support/lane_step.h"

namespace bdm {
namespace {

// ---------------------------------------------------------------------------
// OpDag: edge derivation
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

// ---------------------------------------------------------------------------
// LaneExecutor
// ---------------------------------------------------------------------------

TEST(LaneExecutorTest, SlotBaseAtCapacityThrows) {
  // A lane's thread slot indexes the kMaxSlots-sized metrics and timing
  // shard arrays; a slot base at capacity leaves room for no lane at all.
  NumaThreadPool pool(Topology(2, 1));
  EXPECT_THROW(LaneExecutor(&pool, 2, MetricsRegistry::kMaxSlots),
               std::invalid_argument);
  // One slot left: the executor clamps to a single lane.
  LaneExecutor last(&pool, 2, MetricsRegistry::kMaxSlots - 1);
  EXPECT_EQ(last.NumLanes(), 1);
  EXPECT_EQ(last.LaneThreadSlot(0), MetricsRegistry::kMaxSlots - 1);
}

TEST(LaneExecutorTest, BodiesRunOnceOnDisjointTeamsAndThrowsPropagate) {
  NumaThreadPool pool(Topology(4, 1));
  LaneExecutor executor(&pool, 4);
  ASSERT_EQ(executor.NumLanes(), 4);
  // Shard lanes take the thread slots right past the workers.
  EXPECT_EQ(executor.LaneThreadSlot(0), pool.NumThreads() + 1);
  constexpr int kBodies = 6;
  std::vector<std::atomic<int>> runs(kBodies);
  std::mutex mu;
  std::vector<NumaThreadPool::Team> running;  // teams of in-flight bodies
  int overlaps = 0;
  int empty_teams = 0;
  const auto body = [&](int i) {
    const NumaThreadPool::Team team = pool.CurrentTeam();
    {
      std::lock_guard<std::mutex> lock(mu);
      empty_teams += team.size() <= 0 ? 1 : 0;
      for (const NumaThreadPool::Team& other : running) {
        overlaps += team.begin < other.end && other.begin < team.end ? 1 : 0;
      }
      running.push_back(team);
    }
    ++runs[i];
    // Every worker of the team runs the job once: the dispatch stays inside
    // the team.
    std::atomic<int> covered{0};
    pool.Run([&](int tid) {
      if (tid >= team.begin && tid < team.end) {
        ++covered;
      }
    });
    EXPECT_EQ(covered.load(), team.size());
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    std::lock_guard<std::mutex> lock(mu);
    for (auto it = running.begin(); it != running.end(); ++it) {
      if (it->begin == team.begin && it->end == team.end) {
        running.erase(it);
        break;
      }
    }
  };
  executor.Execute(kBodies, body, {4, 1, 1, 2, 1, 1});
  for (int i = 0; i < kBodies; ++i) {
    EXPECT_EQ(runs[i].load(), 1) << "body " << i;
  }
  EXPECT_EQ(overlaps, 0);
  EXPECT_EQ(empty_teams, 0);

  // A throwing body: its exception surfaces from Execute, the bodies not
  // yet started are skipped, and none runs twice.
  for (auto& count : runs) {
    count = 0;
  }
  EXPECT_THROW(executor.Execute(kBodies,
                                [&](int i) {
                                  ++runs[i];
                                  if (i == 1) {
                                    throw std::runtime_error("lane body");
                                  }
                                }),
               std::runtime_error);
  EXPECT_EQ(runs[1].load(), 1);
  for (int i = 0; i < kBodies; ++i) {
    EXPECT_LE(runs[i].load(), 1) << "body " << i;
  }
  // The executor stays usable after a throw.
  std::atomic<int> total{0};
  executor.Execute(kBodies, [&](int) { ++total; });
  EXPECT_EQ(total.load(), kBodies);
}

// ---------------------------------------------------------------------------
// Scheduler integration
// ---------------------------------------------------------------------------

Param DagParam(int threads) {
  Param param;
  param.num_threads = threads;
  param.num_numa_domains = 1;
  param.use_bdm_memory_manager = false;
  return param;
}

/// Steps `sim` from the calling (main) thread, or (`lane_stepped`) through
/// the lane-stepped reference.
void Step(Simulation* sim, uint64_t iterations, bool lane_stepped) {
  if (lane_stepped) {
    test::LaneStep(sim, iterations);
  } else {
    sim->Simulate(iterations);
  }
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
  Simulation sim("dag_shape", DagParam(2));
  auto* scheduler = sim.GetScheduler();
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
  // Full coupling incl. secretion: the main thread and a full-pool lane
  // thread run the same ops in the same order over the same team, so
  // agreement must be bitwise.
  for (const EnvironmentType env :
       {EnvironmentType::kUniformGrid, EnvironmentType::kKdTree,
        EnvironmentType::kOctree}) {
    std::map<AgentUid, Real3> positions[2];
    std::vector<real_t> field[2];
    size_t counts[2];
    for (const bool on_main : {false, true}) {
      Param param = DagParam(1);
      param.environment = env;
      Simulation sim(on_main ? "dag_traj_main" : "dag_traj_lane", param);
      DiffusionGrid* grid = BuildCoupledWorkload(&sim, 200, 90, 17,
                                                 /*secrete=*/true);
      Step(&sim, 15, /*lane_stepped=*/!on_main);
      positions[on_main] = Snapshot(&sim);
      field[on_main] = ProbeField(grid, 90);
      counts[on_main] = positions[on_main].size();
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
  for (const bool on_main : {false, true}) {
    Param param = DagParam(4);
    param.num_numa_domains = 2;
    param.agent_sort_frequency = 0;  // keep dense order = insertion order
    Simulation sim(on_main ? "dag_mt_main" : "dag_mt_lane", param);
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
    Step(&sim, 10, /*lane_stepped=*/!on_main);
    positions[on_main] = Snapshot(&sim);
    field[on_main] = ProbeField(grid, space);
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
  // tsan target: divisions add agents from four workers while secretion
  // deposits into the field and the consistency audit cross-checks the
  // index each iteration.
  Param param = DagParam(4);
  param.num_numa_domains = 2;
  param.audit_interval = 1;
  Simulation sim("dag_churn", param);
  BuildCoupledWorkload(&sim, 400, 110, 23, /*secrete=*/true);
  ASSERT_NO_THROW(sim.Simulate(12));
  EXPECT_GT(Snapshot(&sim).size(), 400u);
}

class ThrowingOp : public StandaloneOperation {
 public:
  ThrowingOp() : StandaloneOperation("throwing_op", 1) {}
  void Run(Simulation*) override {
    throw std::runtime_error("op failure");
  }
};

TEST(SchedulerDagTest, LaneExceptionPropagatesToCaller) {
  // From the main thread and from a lane thread alike, an op's exception
  // leaves Simulate on the thread that called it.
  for (const bool on_main : {true, false}) {
    Simulation sim(on_main ? "dag_throw_main" : "dag_throw_lane",
                   DagParam(2));
    sim.GetResourceManager()->AddAgent(new Cell({10, 10, 10}, 10));
    sim.GetScheduler()->AppendPostOp(std::make_unique<ThrowingOp>());
    EXPECT_THROW(Step(&sim, 2, /*lane_stepped=*/!on_main), std::runtime_error);
  }
}

/// Records the thread that runs it and that thread's slot.
class ThreadProbeOp : public StandaloneOperation {
 public:
  explicit ThreadProbeOp(std::vector<std::pair<std::thread::id, int>>* seen)
      : StandaloneOperation("thread_probe", 1), seen_(seen) {}
  void Run(Simulation*) override {
    seen_->emplace_back(std::this_thread::get_id(),
                        NumaThreadPool::CurrentThreadSlot());
  }

 private:
  std::vector<std::pair<std::thread::id, int>>* seen_;
};

/// Counts the agents it runs on whose loop the marked thread drove: a pool
/// job carries its dispatcher's thread-scoped simulation
/// (Simulation::SwapThreadActive) to the workers, so GetActive() on a worker
/// names the marker only when the marked thread dispatched the loop.
class DriverProbeOp : public AgentOperation {
 public:
  DriverProbeOp(const Simulation* marker, std::atomic<int>* marked,
                std::atomic<int>* unmarked)
      : AgentOperation("driver_probe", 1),
        marker_(marker),
        marked_(marked),
        unmarked_(unmarked) {
    DeclareResources(0, 0);
  }
  void Run(Agent*, AgentHandle, int, Simulation*) override {
    ++(Simulation::GetActive() == marker_ ? *marked_ : *unmarked_);
  }

 private:
  const Simulation* marker_;
  std::atomic<int>* marked_;
  std::atomic<int>* unmarked_;
};

TEST(SchedulerDagTest, OpsRunOnTheCallingThread) {
  // Every iteration runs its due ops in pipeline order on the thread that
  // called Simulate: from the main thread that is slot 0, for standalone
  // ops and for the driver of the fused agent loop alike.
  Simulation sim("dag_calling_thread", DagParam(4));
  BuildCoupledWorkload(&sim, 100, 90, 7, /*secrete=*/true);
  auto* scheduler = sim.GetScheduler();
  std::vector<std::pair<std::thread::id, int>> seen;
  scheduler->AppendPreOp(std::make_unique<ThreadProbeOp>(&seen));
  scheduler->AppendPostOp(std::make_unique<ThreadProbeOp>(&seen));
  sim.Simulate(2);
  ASSERT_EQ(seen.size(), 4u);
  for (const auto& [id, slot] : seen) {
    ASSERT_EQ(id, std::this_thread::get_id());
    ASSERT_EQ(slot, 0);
  }
  // Mark the calling thread: the simulation is active on this thread only,
  // not process-wide, so a loop driven from any other thread would resolve
  // no active simulation on its workers.
  std::atomic<int> marked{0};
  std::atomic<int> unmarked{0};
  scheduler->AppendAgentOp(
      std::make_unique<DriverProbeOp>(&sim, &marked, &unmarked));
  Simulation* previous = Simulation::SwapThreadActive(&sim);
  Simulation::SetActive(nullptr);
  sim.Simulate(1);
  Simulation::SetActive(&sim);
  Simulation::SwapThreadActive(previous);
  EXPECT_GT(marked.load(), 0);
  EXPECT_EQ(unmarked.load(), 0);
}

class NoopOp : public StandaloneOperation {
 public:
  // Deliberately no DeclareResources: an undeclared user op defaults to
  // read/write-all and must serialize against the whole pipeline.
  NoopOp() : StandaloneOperation("custom_noop", 1) {}
  void Run(Simulation*) override {}
};

TEST(SchedulerDagTest, PipelineMutationInvalidatesCachedPlan) {
  Simulation sim("dag_mutate", DagParam(2));
  sim.GetResourceManager()->AddAgent(new Cell({10, 10, 10}, 10));
  auto* scheduler = sim.GetScheduler();
  sim.Simulate(2);
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
  // the next derived DAG (every iteration compiles its own plan).
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

class CountingOp : public StandaloneOperation {
 public:
  explicit CountingOp(int* runs) : StandaloneOperation("counting_op", 1),
                                   runs_(runs) {}
  void Run(Simulation*) override { ++*runs_; }

 private:
  int* runs_;
};

TEST(SchedulerDagTest, PipelineBeyond64OpsKeepsEveryNode) {
  // No cap on the pipeline length: every due op becomes a node of the
  // iteration's plan and runs once per iteration.
  Simulation sim("dag_long", DagParam(2));
  sim.GetResourceManager()->AddAgent(new Cell({10, 10, 10}, 10));
  auto* scheduler = sim.GetScheduler();
  // Iteration 0: load_balancing, environment_update, agent_ops,
  // mechanical_forces, diffusion, commit (+ the audit in builds that
  // export BDM_AUDIT_INTERVAL).
  const int default_nodes = scheduler->GetIterationDag().size();
  ASSERT_EQ(default_nodes, sim.GetParam().audit_interval > 0 ? 7 : 6);
  constexpr int kExtraOps = 70;
  std::vector<int> runs(kExtraOps, 0);
  for (int& count : runs) {
    scheduler->AppendPostOp(std::make_unique<CountingOp>(&count));
  }
  EXPECT_EQ(scheduler->GetIterationDag().size(), default_nodes + kExtraOps);
  sim.Simulate(2);
  for (int i = 0; i < kExtraOps; ++i) {
    EXPECT_EQ(runs[i], 2) << "op " << i;
  }
}

TEST(SchedulerDagTest, SinkIsBetweenParallelRegionsAndTimingFolds) {
  Param param = DagParam(4);
  auto sim_holder = std::make_unique<Simulation>("dag_sink", param);
  Simulation& sim = *sim_holder;
  BuildCoupledWorkload(&sim, 200, 90, 31, /*secrete=*/true);
  int snapshots = 0;
  sim.GetScheduler()->SetSnapshotCallback(
      [&](const Scheduler::IterationSnapshot& snapshot) {
        ++snapshots;
        // The snapshot window sits after the iteration's last op:
        // FlushShards' "strictly between parallel regions" precondition
        // must hold.
        EXPECT_TRUE(sim.GetThreadPool()->Quiescent());
        EXPECT_EQ(snapshot.iteration + 1, static_cast<uint64_t>(snapshots));
      });
  const uint64_t iterations = 8;
  sim.Simulate(iterations);
  EXPECT_EQ(snapshots, static_cast<int>(iterations));
  // The per-op counts must be exact -- one record per op per iteration,
  // written straight into the map by the thread driving the Simulation --
  // also when that thread is a lane on its own thread slot.
  const auto expect_counts = [&](Simulation* run) {
    const TimingAggregator* timing = run->GetTiming();
    EXPECT_EQ(timing->Count("agent_ops"), iterations);
    EXPECT_EQ(timing->Count("mechanical_forces"), iterations);
    EXPECT_EQ(timing->Count("diffusion"), iterations);
    EXPECT_EQ(timing->Count("commit"), iterations);
  };
  expect_counts(&sim);
  sim_holder.reset();  // one Simulation at a time
  Simulation lane_sim("dag_sink_lane", param);
  BuildCoupledWorkload(&lane_sim, 200, 90, 31, /*secrete=*/true);
  test::LaneStep(&lane_sim, iterations);
  expect_counts(&lane_sim);
}

}  // namespace
}  // namespace bdm
