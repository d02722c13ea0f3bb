// Pair-symmetric mechanics engine (MechanicsFusedOp) tests: momentum
// conservation of the +F/-F scatter, exact agreement of the non-zero-force
// counts with the per-agent reference path on both scatter variants (grid
// fast path, generic environment traversal), the O6 static-pair skip, full-
// simulation equivalence of the two engines across all three environments,
// subclassed forces and the static-detection toggle, a concurrency check
// over the shared force rows and cross-slab logs (ctest label `tsan`), the
// force accumulator's sum-order contract, its cross-slab pair counter, and
// its thread-count-free footprint.
#include "physics/mechanics_fused_op.h"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/cell.h"
#include "core/resource_manager.h"
#include "core/scheduler.h"
#include "core/simulation.h"
#include "core/soa_store.h"
#include "env/environment.h"
#include "math/random.h"
#include "obs/metrics.h"
#include "physics/interaction_force.h"
#include "sched/numa_thread_pool.h"

namespace bdm {
namespace {

// Engine-level kernel checks. A dense random cluster -- diameter-10 cells
// at ~4 interacting neighbors each, so repulsion and adhesion branches are
// both exercised -- is indexed once; the per-agent reference and one engine
// pass then run over that same index. The engine's force rows stay in
// SoaStore::forces() after the pass (indexed by the environment's dense
// index, cross-slab log entries already added), which yields each agent's
// total force and non-zero-force count; the agents' positions yield the
// displacement the engine applied.
class PairForceTest : public ::testing::Test {
 protected:
  void Build(int threads, int domains, uint64_t n, real_t space) {
    param_.num_threads = threads;
    param_.num_numa_domains = domains;
    param_.agent_sort_frequency = 0;
    param_.use_bdm_memory_manager = false;
    sim_.reset();
    sim_ = std::make_unique<Simulation>("pair_forces", param_);
    Random random(7);
    for (uint64_t i = 0; i < n; ++i) {
      sim_->GetResourceManager()->AddAgent(
          new Cell(random.UniformPoint(0, space), 10));
    }
  }

  Environment* IndexAgents() {
    Environment* env = sim_->GetEnvironment();
    env->Update(*sim_->GetResourceManager(), sim_->GetThreadPool());
    return env;
  }

  struct Result {
    std::vector<Real3> displacement;
    std::vector<int> non_zero;
    Real3 net_force;
    double force_scale = 0;
  };

  // The per-agent reference: every dense agent runs CalculateDisplacement.
  Result RunPerAgent() {
    Environment* env = sim_->GetEnvironment();
    Result result;
    const uint64_t count = env->DenseAgentCount();
    Agent* const* dense = env->DenseAgents();
    result.displacement.resize(count);
    result.non_zero.resize(count, 0);
    for (uint64_t i = 0; i < count; ++i) {
      result.displacement[i] = dense[i]->CalculateDisplacement(
          sim_->GetInteractionForce(), env, sim_->GetParam(),
          &result.non_zero[i]);
    }
    return result;
  }

  // One engine pass over the current index.
  Result RunEngine() {
    Environment* env = sim_->GetEnvironment();
    const uint64_t count = env->DenseAgentCount();
    Agent* const* dense = env->DenseAgents();
    std::vector<Real3> before(count);
    for (uint64_t i = 0; i < count; ++i) {
      before[i] = dense[i]->GetPosition();
    }
    MechanicsFusedOp().Run(sim_.get());
    const SoaStore::ForceAccumulator& forces =
        sim_->GetResourceManager()->GetSoaStore().forces();
    Result result;
    result.displacement.resize(count);
    result.non_zero.resize(count, 0);
    for (uint64_t i = 0; i < count; ++i) {
      const Real3 total{forces.fx()[i], forces.fy()[i], forces.fz()[i]};
      result.non_zero[i] = static_cast<int>(forces.non_zero()[i]);
      result.net_force += total;
      result.force_scale += total.Norm();
      result.displacement[i] = dense[i]->GetPosition() - before[i];
    }
    return result;
  }

  static void ExpectSameDisplacement(const Real3& a, const Real3& b,
                                     uint64_t agent) {
    for (int c = 0; c < 3; ++c) {
      ASSERT_NEAR(a[c], b[c], 1e-9 + 1e-9 * std::abs(a[c]))
          << "agent " << agent << " component " << c;
    }
  }

  static void ExpectSameResults(const Result& reference, const Result& engine) {
    ASSERT_EQ(reference.non_zero.size(), engine.non_zero.size());
    for (size_t i = 0; i < reference.non_zero.size(); ++i) {
      // The force is exactly antisymmetric, so the counts must match to the
      // integer even though the engine evaluates each force only once.
      ASSERT_EQ(reference.non_zero[i], engine.non_zero[i]) << "agent " << i;
      ExpectSameDisplacement(reference.displacement[i],
                             engine.displacement[i], i);
    }
  }

  Param param_;
  std::unique_ptr<Simulation> sim_;
};

TEST_F(PairForceTest, MomentumIsConserved) {
  Build(4, 2, 2000, 160);
  IndexAgents();
  const Result engine = RunEngine();
  // +F/-F scatter: the forces cancel pair by pair, so the total over all
  // agents is zero up to summation rounding.
  EXPECT_LT(engine.net_force.Norm(), 1e-10 * std::max(1.0, engine.force_scale));
  EXPECT_GT(engine.force_scale, 0);  // the scene actually produced forces
}

// Both scatter variants on the grid: the store-backed fast path
// (soa_primary) and the generic traversal over the grid's legacy mirror.
class PairForceGridTest : public PairForceTest,
                          public ::testing::WithParamInterface<bool> {};

TEST_P(PairForceGridTest, HalfStencilMatchesPerAgentReference) {
  param_.soa_primary = GetParam();
  Build(4, 2, 2000, 160);
  IndexAgents();
  const Result reference = RunPerAgent();
  ExpectSameResults(reference, RunEngine());
}

TEST_F(PairForceTest, GenericTraversalMatchesPerAgentReference) {
  // kd-tree and octree have no half stencil; the Environment base class
  // searches around each agent and keeps pairs with j > i.
  for (EnvironmentType type :
       {EnvironmentType::kKdTree, EnvironmentType::kOctree}) {
    param_.environment = type;
    Build(4, 2, 500, 100);
    IndexAgents();
    const Result reference = RunPerAgent();
    ExpectSameResults(reference, RunEngine());
  }
}

TEST_P(PairForceGridTest, StaticPairsAreSkippedAwakeAgentsUnchanged) {
  param_.soa_primary = GetParam();
  param_.detect_static_agents = true;
  Build(2, 1, 1000, 130);
  // Make every third agent static (two promotions: next -> current) before
  // indexing, so the store copies the flags the fast path reads.
  sim_->GetResourceManager()->ForEachAgent([&](Agent* agent,
                                               AgentHandle handle) {
    if (handle.index % 3 == 0) {
      agent->UpdateStaticness();
      agent->UpdateStaticness();
      ASSERT_TRUE(agent->IsStatic());
    }
  });
  Environment* env = IndexAgents();
  const Result reference = RunPerAgent();
  const Result engine = RunEngine();
  const uint64_t count = env->DenseAgentCount();
  Agent* const* dense = env->DenseAgents();
  uint64_t awake = 0;
  uint64_t skipped_static_forces = 0;
  for (uint64_t i = 0; i < count; ++i) {
    if (dense[i]->IsStatic()) {
      // A static agent is neither woken nor displaced.
      EXPECT_EQ(engine.displacement[i], (Real3{0, 0, 0})) << "agent " << i;
      skipped_static_forces += static_cast<uint64_t>(reference.non_zero[i] -
                                                     engine.non_zero[i]);
      continue;
    }
    ++awake;
    // Awake agents must see every force -- including those against static
    // partners, which the both-static skip must not have dropped.
    ASSERT_EQ(reference.non_zero[i], engine.non_zero[i]) << "agent " << i;
    ExpectSameDisplacement(reference.displacement[i], engine.displacement[i],
                           i);
  }
  EXPECT_GT(awake, 0u);
  EXPECT_GT(skipped_static_forces, 0u);  // some both-static pair was skipped
}

INSTANTIATE_TEST_SUITE_P(SoaPrimary, PairForceGridTest, ::testing::Bool());

TEST_F(PairForceTest, ConcurrentAccumulationMatchesSerial) {
  // Concurrency check (tsan label): many threads scatter into the shared
  // rows of their own slabs and into cross-slab logs; the totals must agree
  // with a one-thread run up to summation order. Agents are matched by uid: both simulations
  // add the same agents in the same order.
  const auto run = [&](int threads, int domains) {
    Build(threads, domains, 3000, 180);
    Environment* env = IndexAgents();
    const Result engine = RunEngine();
    std::map<AgentUid, std::pair<int, Real3>> by_uid;
    for (uint64_t i = 0; i < env->DenseAgentCount(); ++i) {
      by_uid[env->DenseAgents()[i]->GetUid()] = {engine.non_zero[i],
                                                 engine.displacement[i]};
    }
    return by_uid;
  };
  const auto parallel = run(8, 2);
  const auto serial = run(1, 1);
  ASSERT_EQ(serial.size(), parallel.size());
  auto it = parallel.begin();
  for (const auto& [uid, value] : serial) {
    ASSERT_EQ(uid, it->first);
    ASSERT_EQ(value.first, it->second.first) << uid;
    ExpectSameDisplacement(value.second, it->second.second, uid.index());
    ++it;
  }
}

// --- force accumulator contract ----------------------------------------------

// Builds a scene whose pair forces span several orders of magnitude (deep
// overlaps of large cells next to faint adhesion between small ones), so a
// row's total depends on the order of its terms.
class ForceAccumulatorTest : public PairForceTest {
 protected:
  void BuildMixed(int threads, uint64_t n) {
    Build(threads, 1, 0, 0);
    Random random(31);
    for (uint64_t i = 0; i < n; ++i) {
      const real_t diameter = random.Uniform(0, 1) < 0.2 ? 24 : 3;
      sim_->GetResourceManager()->AddAgent(
          new Cell(random.UniformPoint(0, 160), diameter));
    }
  }

  /// One force term of a row: +F for a pair's first endpoint, -F for its
  /// second.
  struct Term {
    uint32_t row;
    Real3 force;
  };

  /// The terms every logical slab's pairs give, in walk order, for the pairs
  /// with a non-zero force.
  std::vector<std::vector<Term>> TermsBySlab() {
    Environment* env = sim_->GetEnvironment();
    std::vector<std::vector<Term>> by_slab(
        sim_->GetThreadPool()->NumLogicalSlabs());
    const InteractionForce* force = sim_->GetInteractionForce();
    const real_t radius = env->GetInteractionRadius();
    env->ForEachNeighborPair(
        radius * radius, sim_->GetThreadPool(),
        [&](const Environment::NeighborPair& pair, int slab) {
          const Real3 f =
              force->Calculate(pair.a, pair.a_position, pair.a_diameter,
                               pair.b, pair.b_position, pair.b_diameter);
          if (f.SquaredNorm() != 0) {
            by_slab[slab].push_back({pair.a_index, f});
            by_slab[slab].push_back({pair.b_index, f * real_t{-1}});
          }
        });
    return by_slab;
  }

  /// Force totals and counts of every row, given the environment's pair
  /// order: each row adds the terms its own slab's pairs give it in walk
  /// order, then those of the other slabs' pairs in (slab, walk order).
  void ContractTotals(std::vector<Real3>* totals,
                      std::vector<uint32_t>* counts) {
    const int64_t total =
        static_cast<int64_t>(sim_->GetEnvironment()->DenseAgentCount());
    const NumaThreadPool& pool = *sim_->GetThreadPool();
    const auto by_slab = TermsBySlab();
    totals->assign(total, Real3{});
    counts->assign(total, 0);
    for (const bool own_slab : {true, false}) {
      for (int slab = 0; slab < pool.NumLogicalSlabs(); ++slab) {
        for (const Term& term : by_slab[slab]) {
          const bool owned = pool.LogicalSlabOf(total, term.row) == slab;
          if (owned == own_slab) {
            (*totals)[term.row] += term.force;
            ++(*counts)[term.row];
          }
        }
      }
    }
  }
};

TEST_F(ForceAccumulatorTest, RowsFollowSumOrderContract) {
  // The engine's totals equal the contract's bitwise at one and four
  // threads (16 logical slabs) and at three (18 slabs). In the tsan and
  // determinism labels.
  for (const int threads : {1, 3, 4}) {
    BuildMixed(threads, 3000);
    IndexAgents();
    std::vector<Real3> expected;
    std::vector<uint32_t> expected_counts;
    ContractTotals(&expected, &expected_counts);
    if (threads == 1) {
      // Order matters in this scene: summing every row's terms in plain
      // (slab, walk) order, cross-slab terms where they come, differs from
      // the contract in the last bits on some row, so an engine that added
      // the log entries in another order would fail below.
      std::vector<Real3> walk_order(expected.size());
      for (const auto& terms : TermsBySlab()) {
        for (const Term& term : terms) {
          walk_order[term.row] += term.force;
        }
      }
      ASSERT_TRUE(walk_order != expected);
    }
    RunEngine();
    const SoaStore::ForceAccumulator& forces =
        sim_->GetResourceManager()->GetSoaStore().forces();
    ASSERT_GT(forces.LogEntries(), 0u) << threads << " threads";
    for (size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(forces.non_zero()[i], expected_counts[i]) << "row " << i;
      ASSERT_EQ(forces.fx()[i], expected[i].x) << "row " << i;
      ASSERT_EQ(forces.fy()[i], expected[i].y) << "row " << i;
      ASSERT_EQ(forces.fz()[i], expected[i].z) << "row " << i;
    }
  }
}

TEST_F(ForceAccumulatorTest, FootprintDoesNotDependOnThreadCount) {
  // Rows and logs follow the population and its pair set, not the team:
  // pools of one and four workers cut the same 16 logical slabs. Below the
  // grid's insert grain the box chains -- and with them which endpoint of
  // an own-box pair logs it -- are the same at both counts.
  const auto force_bytes = [&](int threads) {
    BuildMixed(threads, 3000);
    IndexAgents();
    RunEngine();
    return sim_->GetResourceManager()->GetSoaStore().forces().Bytes();
  };
  const uint64_t one = force_bytes(1);
  EXPECT_GT(one, 3000u * 28);
  EXPECT_EQ(force_bytes(4), one);
}

TEST_F(ForceAccumulatorTest, CrossSlabCounterMatchesBruteForce) {
  // forces.cross_slab_pairs counts the pairs with a non-zero force whose
  // endpoints lie in different logical slabs, on both scatter paths.
  for (const EnvironmentType type :
       {EnvironmentType::kUniformGrid, EnvironmentType::kKdTree}) {
    param_.environment = type;
    BuildMixed(4, 600);
    Environment* env = IndexAgents();
    const int64_t total = static_cast<int64_t>(env->DenseAgentCount());
    const NumaThreadPool& pool = *sim_->GetThreadPool();
    const real_t radius = env->GetInteractionRadius();
    const InteractionForce* force = sim_->GetInteractionForce();
    uint64_t expected = 0;
    for (int64_t i = 0; i < total; ++i) {
      const auto a = env->DenseSnapshot(static_cast<uint32_t>(i));
      for (int64_t j = i + 1; j < total; ++j) {
        const auto b = env->DenseSnapshot(static_cast<uint32_t>(j));
        if ((a.position - b.position).SquaredNorm() <= radius * radius &&
            pool.LogicalSlabOf(total, i) != pool.LogicalSlabOf(total, j) &&
            force->Calculate(a.agent, a.position, a.diameter, b.agent,
                             b.position, b.diameter)
                    .SquaredNorm() != 0) {
          ++expected;
        }
      }
    }
    MetricsRegistry& registry = MetricsRegistry::Get();
    registry.Reset();
    RunEngine();
    registry.FlushShards();
    EXPECT_GT(expected, 0u);
    EXPECT_EQ(registry.CounterTotal("forces.cross_slab_pairs"), expected)
        << sim_->GetEnvironment()->GetName();
  }
}

// --- full-simulation equivalence ---------------------------------------------

std::map<AgentUid, Real3> Snapshot(Simulation* sim) {
  std::map<AgentUid, Real3> result;
  sim->GetResourceManager()->ForEachAgent([&](Agent* agent, AgentHandle) {
    result[agent->GetUid()] = agent->GetPosition();
  });
  return result;
}

// A subclassed force the fast path cannot inline: type-blind repulsion, but
// adhesion scaled per pair (symmetric in lhs/rhs, so Newton's third law
// still holds). The engine must route it through the generic scatter.
class ParityAdhesionForce : public InteractionForce {
 public:
  ParityAdhesionForce(real_t even_scale, real_t odd_scale)
      : InteractionForce(2.0, 0.8, 0.3),
        even_scale_(even_scale),
        odd_scale_(odd_scale) {}

 protected:
  real_t AdhesionScale(const Agent* lhs, const Agent* rhs) const override {
    const bool even = (lhs->GetUid().index() + rhs->GetUid().index()) % 2 == 0;
    return even ? even_scale_ : odd_scale_;
  }

 private:
  real_t even_scale_;
  real_t odd_scale_;
};

/// Relaxes 300 random diameter-10 cells; `customize` (if set) adjusts the
/// simulation after the cells are added.
std::map<AgentUid, Real3> RunRelaxation(
    Param param, bool pair_engine, int iterations,
    const std::function<void(Simulation*)>& customize = nullptr) {
  param.num_threads = 1;
  param.num_numa_domains = 1;
  param.agent_sort_frequency = 0;
  param.use_bdm_memory_manager = false;
  param.pair_symmetric_forces = pair_engine;
  Simulation sim("pair_equivalence", param);
  Random random(11);
  for (int i = 0; i < 300; ++i) {
    sim.GetResourceManager()->AddAgent(
        new Cell(random.UniformPoint(0, 90), 10));
  }
  if (customize) {
    customize(&sim);
  }
  sim.Simulate(iterations);
  return Snapshot(&sim);
}

void ExpectNearTrajectories(const std::map<AgentUid, Real3>& a,
                            const std::map<AgentUid, Real3>& b,
                            real_t tolerance) {
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

// Every environment serves neighbors from its Update-time snapshot, which
// is also what the pair engine evaluates, so on each of them the two
// engines' trajectories agree up to force summation order. detect_static
// is an int, 0 or 1, so the struct has no padding: PairEngineCrossEnvironment
// is named after the parameter's bytes.
struct EngineCase {
  EnvironmentType environment;
  int detect_static;
};

class PairEngineEquivalence
    : public ::testing::TestWithParam<EngineCase> {};

TEST_P(PairEngineEquivalence, SameTrajectoriesAsPerAgentEngine) {
  Param param;
  param.environment = GetParam().environment;
  param.detect_static_agents = GetParam().detect_static != 0;
  const auto per_agent = RunRelaxation(param, false, 20);
  const auto pair = RunRelaxation(param, true, 20);
  ExpectNearTrajectories(per_agent, pair, 1e-6);
}

// The uniform grid cases keep their names from when this test ran on the
// grid alone (parameter: static detection on/off).
std::string EquivalenceCaseName(
    const ::testing::TestParamInfo<EngineCase>& info) {
  static const char* const kPrefixes[] = {"", "KdTree_", "Octree_"};
  return std::string(kPrefixes[static_cast<int>(info.param.environment)]) +
         (info.param.detect_static ? "true" : "false");
}

INSTANTIATE_TEST_SUITE_P(
    StaticDetection, PairEngineEquivalence,
    ::testing::Values(EngineCase{EnvironmentType::kUniformGrid, 0},
                      EngineCase{EnvironmentType::kUniformGrid, 1},
                      EngineCase{EnvironmentType::kKdTree, 0},
                      EngineCase{EnvironmentType::kKdTree, 1},
                      EngineCase{EnvironmentType::kOctree, 0},
                      EngineCase{EnvironmentType::kOctree, 1}),
    EquivalenceCaseName);

// The pair engine must integrate the same trajectory no matter which
// environment enumerates the pairs: half-stencil traversal (uniform grid)
// vs the generic j > i filter over radius searches (kd-tree, octree). All
// three use the same interaction radius (the largest diameter), so only
// pair enumeration order -- i.e. force summation order -- may differ.
class PairEngineCrossEnvironment
    : public ::testing::TestWithParam<EngineCase> {};

TEST_P(PairEngineCrossEnvironment, MatchesUniformGridTrajectories) {
  Param grid_param;
  grid_param.environment = EnvironmentType::kUniformGrid;
  grid_param.detect_static_agents = GetParam().detect_static != 0;
  Param tree_param = grid_param;
  tree_param.environment = GetParam().environment;
  const auto on_grid = RunRelaxation(grid_param, true, 20);
  const auto on_tree = RunRelaxation(tree_param, true, 20);
  ExpectNearTrajectories(on_grid, on_tree, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    Configurations, PairEngineCrossEnvironment,
    ::testing::Values(EngineCase{EnvironmentType::kKdTree, 0},
                      EngineCase{EnvironmentType::kKdTree, 1},
                      EngineCase{EnvironmentType::kOctree, 0},
                      EngineCase{EnvironmentType::kOctree, 1}));

// A subclassed force (AdhesionScale override) takes the engine's generic
// scatter on the uniform grid; it must integrate the same trajectories as
// the per-agent engine, which calls the same virtual Calculate.
TEST(PairEngineSubclassedForce, MatchesPerAgentEngine) {
  // Equal diameters would keep every pair inside contact distance (the
  // search radius is the largest diameter), where AdhesionScale is never
  // consulted; half-size cells open the adhesion zone.
  const auto with_force = [](real_t even_scale, real_t odd_scale) {
    return [=](Simulation* sim) {
      sim->GetResourceManager()->ForEachAgent([](Agent* agent, AgentHandle) {
        if (agent->GetUid().index() % 2 == 1) {
          agent->SetDiameter(6);
        }
      });
      sim->SetInteractionForce(
          std::make_unique<ParityAdhesionForce>(even_scale, odd_scale));
    };
  };
  Param param;
  param.environment = EnvironmentType::kUniformGrid;
  const auto per_agent = RunRelaxation(param, false, 20, with_force(3, 0.5));
  const auto pair = RunRelaxation(param, true, 20, with_force(3, 0.5));
  ExpectNearTrajectories(per_agent, pair, 1e-6);
  // The override really changed the trajectories, so the agreement above
  // is not the base coefficients agreeing with themselves.
  const auto unscaled = RunRelaxation(param, true, 20, with_force(1, 1));
  real_t max_difference = 0;
  auto it = unscaled.begin();
  for (const auto& [uid, pos] : pair) {
    max_difference = std::max(max_difference, pos.Distance(it->second));
    ++it;
  }
  EXPECT_GT(max_difference, 1e-3);
}

// Every environment x soa_primary combination schedules the one pair
// engine under the per-agent op's name, and it runs an empty population
// and an isolated overlapping pair. gtest and ctest name each case after
// the bytes of its parameter, so the struct has no padding (indeterminate
// bytes would make the names change from run to run): soa_primary is an
// int, 0 or 1.
struct SchedulingCase {
  EnvironmentType environment;
  int soa_primary;
};

class PairEngineScheduling : public ::testing::TestWithParam<SchedulingCase> {
};

TEST_P(PairEngineScheduling, FusedOpRunsEveryConfiguration) {
  Param param;
  param.num_threads = 2;
  param.num_numa_domains = 1;
  param.environment = GetParam().environment;
  param.soa_primary = GetParam().soa_primary != 0;
  Simulation sim("pair_scheduling", param);
  Scheduler* scheduler = sim.GetScheduler();
  EXPECT_NE(dynamic_cast<MechanicsFusedOp*>(scheduler->GetOp("mechanical_forces")),
            nullptr);
  sim.Simulate(3);  // empty population
  EXPECT_EQ(sim.GetResourceManager()->GetNumAgents(), 0u);

  auto* a = new Cell({0, 0, 0}, 10);
  auto* b = new Cell({6, 0, 0}, 10);
  sim.GetResourceManager()->AddAgent(a);
  sim.GetResourceManager()->AddAgent(b);
  sim.Simulate(20);
  // The overlapping pair separated, and moved symmetrically: both forces
  // come from one evaluation scattered +F/-F.
  EXPECT_GT(a->GetPosition().Distance(b->GetPosition()), 6);
  EXPECT_NEAR(a->GetPosition().x + b->GetPosition().x, 6.0, 1e-12);

  // Pipeline surgery (tests, ablation benches) addresses the mechanics stage
  // by name regardless of which engine is scheduled.
  EXPECT_TRUE(scheduler->RemoveOp("mechanical_forces"));
  EXPECT_EQ(scheduler->GetOp("mechanical_forces"), nullptr);
}

INSTANTIATE_TEST_SUITE_P(
    Configurations, PairEngineScheduling,
    ::testing::Values(SchedulingCase{EnvironmentType::kUniformGrid, 1},
                      SchedulingCase{EnvironmentType::kUniformGrid, 0},
                      SchedulingCase{EnvironmentType::kKdTree, 1},
                      SchedulingCase{EnvironmentType::kKdTree, 0},
                      SchedulingCase{EnvironmentType::kOctree, 1},
                      SchedulingCase{EnvironmentType::kOctree, 0}));

}  // namespace
}  // namespace bdm
