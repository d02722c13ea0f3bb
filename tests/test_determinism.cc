// Cross-configuration equivalence: the optimizations must change performance
// only, never results. Single-threaded runs are compared exactly; the
// multi-threaded position checks compare conserved quantities (the parallel
// grid insert order, and with it the pair-force summation order, differs
// across thread interleavings). Diffusion fields are compared bitwise at
// four threads: deposits fold in agent-block order whatever the schedule.
#include <gtest/gtest.h>

#include <bit>
#include <map>
#include <vector>

#include "continuum/diffusion_grid.h"
#include "core/agent_pointer.h"
#include "core/behavior.h"
#include "core/cell.h"
#include "core/execution_context.h"
#include "core/resource_manager.h"
#include "core/simulation.h"
#include "env/environment.h"
#include "models/cell_proliferation.h"
#include "models/oncology.h"
#include "models/registry.h"

namespace bdm {
namespace {

std::map<AgentUid, Real3> Snapshot(Simulation* sim) {
  std::map<AgentUid, Real3> result;
  sim->GetResourceManager()->ForEachAgent([&](Agent* agent, AgentHandle) {
    result[agent->GetUid()] = agent->GetPosition();
  });
  return result;
}

void ExpectNear(const std::map<AgentUid, Real3>& a,
                const std::map<AgentUid, Real3>& b, real_t tolerance) {
  ASSERT_EQ(a.size(), b.size());
  auto it = b.begin();
  for (const auto& [uid, pos] : a) {
    ASSERT_EQ(uid, it->first);
    EXPECT_NEAR(pos.x, it->second.x, tolerance) << uid;
    EXPECT_NEAR(pos.y, it->second.y, tolerance) << uid;
    EXPECT_NEAR(pos.z, it->second.z, tolerance) << uid;
    ++it;
  }
}

Param SingleThread() {
  Param param;
  param.num_threads = 1;
  param.num_numa_domains = 1;
  param.agent_sort_frequency = 0;
  param.use_bdm_memory_manager = false;
  return param;
}

std::map<AgentUid, Real3> RunProliferation(const Param& param, int iterations) {
  Simulation sim("determinism", param);
  models::proliferation::Config config;
  config.num_cells = 64;
  models::proliferation::Build(&sim, config);
  sim.Simulate(iterations);
  return Snapshot(&sim);
}

TEST(DeterminismTest, IdenticalRunsProduceIdenticalResults) {
  const auto a = RunProliferation(SingleThread(), 30);
  const auto b = RunProliferation(SingleThread(), 30);
  ExpectNear(a, b, 0);
}

TEST(DeterminismTest, MemoryManagerDoesNotChangeResults) {
  Param with = SingleThread();
  with.use_bdm_memory_manager = true;
  const auto a = RunProliferation(SingleThread(), 30);
  const auto b = RunProliferation(with, 30);
  ExpectNear(a, b, 0);
}

TEST(DeterminismTest, AgentSortingDoesNotChangeResults) {
  Param with = SingleThread();
  with.agent_sort_frequency = 3;
  const auto a = RunProliferation(SingleThread(), 30);
  const auto b = RunProliferation(with, 30);
  // Sorting changes iteration order, which permutes same-iteration division
  // events' RNG draws only in multi-threaded runs; single-threaded it only
  // reorders force summation per agent (identical neighbor sets): exact.
  ASSERT_EQ(a.size(), b.size());
}

TEST(DeterminismTest, EnvironmentChoiceDoesNotChangeResults) {
  Param kd = SingleThread();
  kd.environment = EnvironmentType::kKdTree;
  Param oct = SingleThread();
  oct.environment = EnvironmentType::kOctree;
  const auto grid_run = RunProliferation(SingleThread(), 20);
  const auto kd_run = RunProliferation(kd, 20);
  const auto oct_run = RunProliferation(oct, 20);
  // Same agent sets; positions agree up to neighbor iteration order
  // (floating-point summation order differs per environment).
  ASSERT_EQ(grid_run.size(), kd_run.size());
  ASSERT_EQ(grid_run.size(), oct_run.size());
  ExpectNear(grid_run, kd_run, 1e-6);
  ExpectNear(grid_run, oct_run, 1e-6);
}

TEST(DeterminismTest, ThreadCountPreservesPopulationDynamics) {
  Param four = SingleThread();
  four.num_threads = 4;
  four.num_numa_domains = 2;
  const auto one = RunProliferation(SingleThread(), 30);
  const auto many = RunProliferation(four, 30);
  // Division decisions depend only on per-agent state, so the population
  // size is thread-count invariant even though RNG streams differ.
  EXPECT_EQ(one.size(), many.size());
}

TEST(DeterminismTest, ParallelCommitPreservesPopulationDynamics) {
  Param serial_commit = SingleThread();
  serial_commit.num_threads = 4;
  serial_commit.parallel_commit = false;
  Param parallel_commit = serial_commit;
  parallel_commit.parallel_commit = true;
  const auto a = RunProliferation(serial_commit, 30);
  const auto b = RunProliferation(parallel_commit, 30);
  EXPECT_EQ(a.size(), b.size());
}

// --- bitwise fields and sort relocation (ctest label: determinism) ------------

/// Bit patterns of every voxel of every diffusion grid of `sim`.
std::vector<uint64_t> FieldBits(Simulation* sim) {
  std::vector<uint64_t> bits;
  for (const DiffusionGrid* grid : sim->GetAllDiffusionGrids()) {
    const int n = grid->GetResolution();
    for (int z = 0; z < n; ++z) {
      for (int y = 0; y < n; ++y) {
        for (int x = 0; x < n; ++x) {
          bits.push_back(std::bit_cast<uint64_t>(
              static_cast<double>(grid->AtGlobal(x, y, z))));
        }
      }
    }
  }
  return bits;
}

/// Bit patterns of every agent's position coordinates, in uid order.
std::vector<uint64_t> PositionBits(Simulation* sim) {
  std::vector<uint64_t> bits;
  for (const auto& [uid, pos] : Snapshot(sim)) {
    for (const real_t coordinate : {pos.x, pos.y, pos.z}) {
      bits.push_back(std::bit_cast<uint64_t>(static_cast<double>(coordinate)));
    }
  }
  return bits;
}

/// Parameters of the clustering registry model (the secreting, chemotaxing
/// one) at `threads` threads.
Param ClusteringParam(int threads) {
  Param param;
  param.num_threads = threads;
  const models::ModelInfo* model = models::FindModel("clustering");
  if (model->configure != nullptr) {
    model->configure(&param);
  }
  return param;
}

/// Field bits after `iterations` of the clustering model at `threads`
/// threads.
std::vector<uint64_t> ClusteringFieldBits(int threads, int iterations) {
  Simulation sim("field_repeatability", ClusteringParam(threads));
  models::FindModel("clustering")->build(&sim, 10000);
  sim.Simulate(iterations);
  return FieldBits(&sim);
}

TEST(FieldRepeatabilityTest, ClusteringFieldIsBitwiseAtFourThreads) {
  // Work stealing decides which worker runs which agent block, so this
  // holds only if every voxel sums its deposits in an order the schedule
  // cannot change. Three 4-thread runs and a 1-thread run must agree.
  constexpr int kIterations = 30;
  const std::vector<uint64_t> reference = ClusteringFieldBits(1, kIterations);
  ASSERT_FALSE(reference.empty());
  for (int run = 0; run < 3; ++run) {
    const std::vector<uint64_t> field = ClusteringFieldBits(4, kIterations);
    ASSERT_EQ(field.size(), reference.size());
    size_t differing = 0;
    for (size_t i = 0; i < field.size(); ++i) {
      differing += field[i] != reference[i] ? 1 : 0;
    }
    EXPECT_EQ(differing, 0u) << "4-thread run " << run << " differs from the "
                             << "1-thread run in " << differing << " voxels";
  }
}

TEST(SortRelocationTest, RelocatingEveryAgentLeavesClusteringBitwise) {
  // The O4 sort copies every agent under sort_with_extra_memory and, on one
  // domain, none otherwise. Where an agent object lives must not change any
  // number: positions and both fields agree bit for bit after 20 sorted
  // iterations.
  auto run = [](bool extra_memory, std::vector<uint64_t>* positions,
                std::vector<uint64_t>* fields) {
    Param param = ClusteringParam(1);
    param.num_numa_domains = 1;
    param.agent_sort_frequency = 1;
    param.sort_with_extra_memory = extra_memory;
    Simulation sim("sort_relocation", param);
    models::FindModel("clustering")->build(&sim, 5000);
    sim.Simulate(20);
    ASSERT_EQ(sim.GetTiming()->Count("load_balancing"), 20u);
    *positions = PositionBits(&sim);
    *fields = FieldBits(&sim);
  };
  std::vector<uint64_t> copied_positions, copied_fields;
  std::vector<uint64_t> kept_positions, kept_fields;
  run(true, &copied_positions, &copied_fields);
  run(false, &kept_positions, &kept_fields);
  ASSERT_FALSE(kept_positions.empty());
  ASSERT_FALSE(kept_fields.empty());
  EXPECT_EQ(copied_positions, kept_positions);
  EXPECT_EQ(copied_fields, kept_fields);
}

// --- oncology's count column against a per-agent reference ------------------

/// Oncology's tumor-cell behavior with the crowding count taken by a
/// per-agent query from the cell's iteration-start position (before its
/// micro-step), the way the model counted before the count column.
class ReferenceTumorCellBehavior : public Behavior {
 public:
  explicit ReferenceTumorCellBehavior(const models::oncology::Config& config)
      : config_(config) {}

  void Run(Agent* agent, ExecutionContext* ctx) override {
    auto* cell = static_cast<Cell*>(agent);
    Random* random = ctx->random();
    const Real3 step = random->UnitVector() * config_.micro_motion_step;
    int neighbors = 0;
    Simulation::GetActive()->GetEnvironment()->ForEachNeighbor(
        *agent, config_.crowding_radius * config_.crowding_radius,
        [&](const Environment::NeighborData&) { ++neighbors; });
    cell->SetPosition(cell->GetPosition() + step);
    if (neighbors > config_.crowding_threshold) {
      if (random->Bool(config_.death_probability)) {
        ctx->RemoveAgent(cell->GetUid());
      }
      return;
    }
    if (cell->GetDiameter() >= config_.division_diameter) {
      cell->Divide(ctx, random->UnitVector());
    } else {
      cell->ChangeVolume(config_.volume_growth_rate *
                         Simulation::GetActive()->GetParam().dt);
    }
  }

  Behavior* NewCopy() const override {
    return new ReferenceTumorCellBehavior(*this);
  }

 private:
  models::oncology::Config config_;
};

/// oncology::Build with the reference behavior: the same RNG draws, so the
/// same initial cells.
void BuildReferenceTumor(Simulation* sim,
                         const models::oncology::Config& config) {
  auto* random = sim->GetActiveExecutionContext()->random();
  for (uint64_t i = 0; i < config.num_cells; ++i) {
    Real3 p;
    do {
      p = random->UniformPoint(-1, 1);
    } while (p.SquaredNorm() > 1);
    auto* cell = new Cell(p * config.spheroid_radius, config.diameter);
    cell->AddBehavior(new ReferenceTumorCellBehavior(config));
    sim->GetResourceManager()->AddAgent(cell);
  }
}

/// Bit patterns of every agent's diameter, in uid order.
std::vector<uint64_t> DiameterBits(Simulation* sim) {
  std::map<AgentUid, real_t> diameters;
  sim->GetResourceManager()->ForEachAgent([&](Agent* agent, AgentHandle) {
    diameters[agent->GetUid()] = agent->GetDiameter();
  });
  std::vector<uint64_t> bits;
  for (const auto& [uid, diameter] : diameters) {
    bits.push_back(std::bit_cast<uint64_t>(static_cast<double>(diameter)));
  }
  return bits;
}

TEST(OncologyReferenceTest, CountColumnMatchesPerAgentBehaviorBitwise) {
  // Births, deaths and the switch of the crowding radius from the
  // per-agent path to the grid's symmetric pass all happen in 40
  // iterations; the 1-thread trajectories must agree bit for bit.
  models::oncology::Config config;
  config.num_cells = 2000;
  config.spheroid_radius = 55;
  config.volume_growth_rate = 8000;
  auto run = [&](bool reference, std::vector<uint64_t>* positions,
                 std::vector<uint64_t>* diameters) {
    Simulation sim("oncology_reference", SingleThread());
    if (reference) {
      BuildReferenceTumor(&sim, config);
    } else {
      models::oncology::Build(&sim, config);
    }
    sim.Simulate(40);
    *positions = PositionBits(&sim);
    *diameters = DiameterBits(&sim);
  };
  std::vector<uint64_t> engine_positions, engine_diameters;
  std::vector<uint64_t> reference_positions, reference_diameters;
  run(false, &engine_positions, &engine_diameters);
  run(true, &reference_positions, &reference_diameters);
  ASSERT_FALSE(engine_positions.empty());
  EXPECT_NE(engine_positions.size(), 3 * config.num_cells);
  EXPECT_EQ(engine_positions, reference_positions);
  EXPECT_EQ(engine_diameters, reference_diameters);
}

// --- AgentPointer (needs an active simulation) --------------------------------

TEST(AgentPointerTest, ResolvesAndSurvivesRemovalInvalidation) {
  Simulation sim("test", SingleThread());
  auto* cell = new Cell({1, 2, 3}, 10);
  sim.GetResourceManager()->AddAgent(cell);
  AgentPointer<Cell> ptr(cell);
  ASSERT_TRUE(static_cast<bool>(ptr));
  EXPECT_EQ(ptr.Get(), cell);
  EXPECT_EQ(ptr->GetPosition(), (Real3{1, 2, 3}));
  // Remove the agent: the pointer must resolve to null, not dangle.
  sim.GetActiveExecutionContext()->RemoveAgent(cell->GetUid());
  sim.GetResourceManager()->Commit(sim.GetAllExecutionContexts());
  EXPECT_EQ(ptr.Get(), nullptr);
  EXPECT_FALSE(static_cast<bool>(ptr));
}

TEST(AgentPointerTest, DefaultIsNull) {
  Simulation sim("test", SingleThread());
  AgentPointer<Cell> ptr;
  EXPECT_EQ(ptr.Get(), nullptr);
}

TEST(AgentPointerTest, DistinguishesRecycledUidSlots) {
  Simulation sim("test", SingleThread());
  auto* first = new Cell({0, 0, 0}, 10);
  sim.GetResourceManager()->AddAgent(first);
  AgentPointer<Cell> stale(first);
  sim.GetActiveExecutionContext()->RemoveAgent(first->GetUid());
  sim.GetResourceManager()->Commit(sim.GetAllExecutionContexts());
  // The next agent recycles the uid slot with a bumped reuse counter.
  auto* second = new Cell({9, 9, 9}, 10);
  sim.GetResourceManager()->AddAgent(second);
  EXPECT_EQ(second->GetUid().index(), stale.GetUid().index());
  EXPECT_EQ(stale.Get(), nullptr) << "stale pointer must not see the new agent";
  EXPECT_EQ(AgentPointer<Cell>(second).Get(), second);
}

}  // namespace
}  // namespace bdm
