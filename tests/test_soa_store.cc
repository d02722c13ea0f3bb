// SoaStore correctness: equivalence with a fresh gather under add/remove
// churn (a commit that changes the population marks the store dirty, an
// empty one leaves it current), bitwise trajectory equality of the fused
// mechanics engine against the sequential reference across all
// environments, store-vs-grid audit violations being loud, and a
// multi-threaded pipeline run for the tsan build (this file is listed in
// BDM_TSAN_TESTS).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/behavior.h"
#include "core/cell.h"
#include "core/consistency_audit.h"
#include "core/resource_manager.h"
#include "core/scheduler.h"
#include "core/simulation.h"
#include "core/soa_dirty.h"
#include "env/uniform_grid.h"
#include "math/random.h"
#include "obs/metrics.h"

namespace bdm {
namespace {

uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Deterministic per-(uid, iteration) draw in [0, 1); keyed on the uid so
/// the decision stream is independent of agent storage order.
double Draw(const AgentUid& uid, uint64_t iteration) {
  const uint64_t key = (static_cast<uint64_t>(uid.index()) << 32) ^
                       uid.reused() ^ (iteration * 0xD1B54A32D192ED03ull);
  return static_cast<double>(SplitMix64(key) >> 11) * 0x1.0p-53;
}

uint64_t Counter(const std::string& name) {
  MetricsRegistry::Get().FlushShards();
  return MetricsRegistry::Get().CounterTotal(name);
}

class SoaStoreChurnTest : public ::testing::Test {
 protected:
  void Init(int threads, int domains, bool parallel_commit) {
    param_.num_threads = threads;
    param_.num_numa_domains = domains;
    param_.parallel_commit = parallel_commit;
    pool_ = std::make_unique<NumaThreadPool>(Topology(threads, domains));
    gen_ = std::make_unique<AgentUidGenerator>();
    rm_ = std::make_unique<ResourceManager>(param_, pool_.get(), gen_.get());
    contexts_.clear();
    context_ptrs_.clear();
    for (int slot = 0; slot < threads + 1; ++slot) {
      const int domain =
          slot == 0 ? 0 : pool_->topology().DomainOfThread(slot - 1);
      contexts_.push_back(
          std::make_unique<ExecutionContext>(domain, slot + 1, gen_.get()));
      context_ptrs_.push_back(contexts_.back().get());
    }
  }

  /// The store must mirror exactly what a fresh gather would produce:
  /// layout, slot-for-slot agent pointers, and (after EnsureCurrent cleared
  /// the behavior-dirty flag) bitwise geometry. CheckSoaStore re-derives
  /// all of it.
  void ExpectStoreMatchesGather(const std::string& context) {
    SoaStore& store = rm_->GetSoaStore();
    store.EnsureCurrent(*rm_, pool_.get());
    const auto violations = ConsistencyAudit::CheckSoaStore(*rm_, nullptr);
    ASSERT_TRUE(violations.empty())
        << context << ": " << violations.size()
        << " violation(s), first: " << violations.front();
    // The arithmetic handle -> dense map walks the rows in order.
    uint64_t dense = 0;
    for (int d = 0; d < store.NumDomains(); ++d) {
      const uint64_t count = rm_->GetNumAgents(d);
      for (uint64_t i = 0; i < count; ++i, ++dense) {
        ASSERT_EQ(store.DenseIndex({static_cast<uint16_t>(d), i}), dense);
      }
    }
    ASSERT_EQ(dense, store.TotalAgents());
  }

  /// A commit that changes no live agent -- nothing buffered, or only an
  /// addition removed again in the same iteration -- must leave a current
  /// store current: no structure-dirty mark, and the next EnsureCurrent
  /// gathers nothing.
  void ExpectEmptyCommitsKeepStoreCurrent(const std::string& context) {
    SoaStore& store = rm_->GetSoaStore();
    ASSERT_FALSE(store.IsStructureDirty()) << context;
    const uint64_t rebuilds = Counter("soa/full_rebuilds");
    rm_->Commit(context_ptrs_);
    EXPECT_FALSE(store.IsStructureDirty()) << context;
    Agent* cancelled = new Cell({1, 2, 3}, 10);
    context_ptrs_[0]->AddAgent(cancelled);
    context_ptrs_[0]->RemoveAgent(cancelled->GetUid());
    rm_->Commit(context_ptrs_);
    EXPECT_FALSE(store.IsStructureDirty()) << context << ", cancelled add";
    store.EnsureCurrent(*rm_, pool_.get());
    EXPECT_EQ(Counter("soa/full_rebuilds"), rebuilds) << context;
  }

  /// Hash-driven add/remove churn (the test_commit_churn scenario), checked
  /// against a fresh gather after every commit.
  void RunChurn(uint64_t initial, uint64_t iterations, double churn_rate) {
    for (uint64_t i = 0; i < initial; ++i) {
      rm_->AddAgent(new Cell({static_cast<real_t>(i % 17),
                              static_cast<real_t>(i % 13),
                              static_cast<real_t>(i % 11)},
                             10));
    }
    SoaStore& store = rm_->GetSoaStore();
    store.EnsureCurrent(*rm_, pool_.get());  // initial full build
    const uint64_t rebuilds_before = Counter("soa/full_rebuilds");
    ExecutionContext* ctx = context_ptrs_[0];
    for (uint64_t iter = 0; iter < iterations; ++iter) {
      std::vector<AgentUid> uids;
      rm_->ForEachAgent(
          [&](Agent* agent, AgentHandle) { uids.push_back(agent->GetUid()); });
      std::sort(uids.begin(), uids.end());
      for (const AgentUid& uid : uids) {
        const double draw = Draw(uid, iter);
        if (draw < churn_rate) {
          ctx->RemoveAgent(uid);
        } else if (draw > 1.0 - churn_rate) {
          ctx->AddAgent(new Cell({1, 2, 3}, 10));
        }
      }
      const std::string context = "iteration " + std::to_string(iter);
      const auto [added, removed] = rm_->Commit(context_ptrs_);
      ASSERT_GT(added + removed, 0u) << context;
      // The layout changed, so the store must not claim to be current.
      EXPECT_TRUE(store.IsStructureDirty()) << context;
      ExpectStoreMatchesGather("after " + context);
      ExpectEmptyCommitsKeepStoreCurrent("empty commits after " + context);
    }
    // One gather per changing commit, none for the empty ones.
    EXPECT_EQ(Counter("soa/full_rebuilds"), rebuilds_before + iterations);
  }

  Param param_;
  std::unique_ptr<AgentUidGenerator> gen_;
  std::unique_ptr<NumaThreadPool> pool_;
  std::unique_ptr<ResourceManager> rm_;
  std::vector<std::unique_ptr<ExecutionContext>> contexts_;
  std::vector<ExecutionContext*> context_ptrs_;
};

TEST_F(SoaStoreChurnTest, SerialCommitKeepsStoreEquivalent) {
  Init(1, 1, /*parallel_commit=*/false);
  RunChurn(2000, 10, 0.2);
}

TEST_F(SoaStoreChurnTest, ParallelCommitKeepsStoreEquivalent) {
  // 25% deaths drives the batched removal path past its serial-fallback
  // threshold, exercising the parallel swap step under tsan.
  Init(4, 2, /*parallel_commit=*/true);
  RunChurn(4000, 10, 0.25);
}

TEST_F(SoaStoreChurnTest, MultiDomainCommitKeepsStoreEquivalent) {
  // Low churn keeps commits small (serial removal path) while domain-size
  // changes shift every later domain's dense range.
  Init(4, 4, /*parallel_commit=*/false);
  RunChurn(3000, 10, 0.05);
}

TEST_F(SoaStoreChurnTest, DirectAddForcesRebuildThenRecovers) {
  Init(2, 1, false);
  for (int i = 0; i < 100; ++i) {
    rm_->AddAgent(new Cell({static_cast<real_t>(i), 0, 0}, 10));
  }
  SoaStore& store = rm_->GetSoaStore();
  store.EnsureCurrent(*rm_, pool_.get());
  EXPECT_FALSE(store.IsStructureDirty());
  // Direct AddAgent must raise the structure-dirty flag, and the next
  // EnsureCurrent must recover.
  rm_->AddAgent(new Cell({5, 5, 5}, 10));
  EXPECT_TRUE(store.IsStructureDirty());
  ExpectStoreMatchesGather("after direct AddAgent");
  EXPECT_EQ(store.TotalAgents(), 101u);
}

// --- audit loudness ----------------------------------------------------------

TEST(SoaStoreAudit, GeometryCorruptionIsDetectedAndCounted) {
  Param param;
  param.num_threads = 1;
  param.num_numa_domains = 1;
  NumaThreadPool pool(Topology(1, 1));
  AgentUidGenerator gen;
  ResourceManager rm(param, &pool, &gen);
  for (int i = 0; i < 50; ++i) {
    rm.AddAgent(new Cell({static_cast<real_t>(3 * i), 0, 0}, 10));
  }
  SoaStore& store = rm.GetSoaStore();
  store.EnsureCurrent(rm, &pool);
  ASSERT_TRUE(ConsistencyAudit::CheckSoaStore(rm, nullptr).empty());
  const uint64_t mismatches_before = Counter("audit.store_mismatches");
  // An engine write-back that deviates from the AoS agent is exactly the
  // corruption the audit exists for.
  store.WriteBackPosition(7, {999, 999, 999});
  const auto violations = ConsistencyAudit::CheckSoaStore(rm, nullptr);
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations.front().find("geometry diverged"), std::string::npos);
  EXPECT_GT(Counter("audit.store_mismatches"), mismatches_before);
}

TEST(SoaStoreAudit, StoreGridCountDisagreementIsLoud) {
  Param param;
  param.num_threads = 1;
  param.num_numa_domains = 1;
  NumaThreadPool pool(Topology(1, 1));
  AgentUidGenerator gen;
  ResourceManager rm(param, &pool, &gen);
  for (int i = 0; i < 64; ++i) {
    rm.AddAgent(new Cell({static_cast<real_t>(2 * i), 0, 0}, 10));
  }
  UniformGridEnvironment grid(param);
  grid.Update(rm, &pool);  // binds the grid's dense index to the store
  SoaStore& store = rm.GetSoaStore();
  ASSERT_EQ(grid.DenseAgents(), store.agents());
  ASSERT_TRUE(ConsistencyAudit::CheckSoaStore(rm, &grid).empty());
  // Advance the store without updating the grid (1.5x headroom keeps the
  // array pointers stable, so the grid still serves the store's arrays but
  // with a stale count): the audit must flag the disagreement loudly.
  rm.AddAgent(new Cell({1, 1, 1}, 10));
  store.EnsureCurrent(rm, &pool);
  const uint64_t mismatches_before = Counter("audit.store_mismatches");
  const auto violations = ConsistencyAudit::CheckSoaStore(rm, &grid);
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations.front().find("environment dense index"),
            std::string::npos);
  EXPECT_GT(Counter("audit.store_mismatches"), mismatches_before);
}

// --- fused engine vs sequential reference ------------------------------------

std::map<AgentUid, Real3> Snapshot(Simulation* sim) {
  std::map<AgentUid, Real3> result;
  sim->GetResourceManager()->ForEachAgent([&](Agent* agent, AgentHandle) {
    result[agent->GetUid()] = agent->GetPosition();
  });
  return result;
}

/// One relaxation run. Single-threaded on purpose: with one worker the
/// grid's CAS insert order -- and with it every pair-enumeration and force-
/// summation order -- is deterministic, which is what makes the fused-vs-
/// reference comparison BITWISE instead of tolerance-based.
std::map<AgentUid, Real3> RunRelaxation(EnvironmentType environment,
                                        bool soa_primary, bool detect_static,
                                        int iterations) {
  Param param;
  param.environment = environment;
  param.num_threads = 1;
  param.num_numa_domains = 1;
  param.agent_sort_frequency = 0;
  param.use_bdm_memory_manager = false;
  param.pair_symmetric_forces = true;
  param.soa_primary = soa_primary;
  param.detect_static_agents = detect_static;
  Simulation sim(soa_primary ? "soa_fused" : "soa_reference", param);
  Random random(23);
  for (int i = 0; i < 300; ++i) {
    sim.GetResourceManager()->AddAgent(
        new Cell(random.UniformPoint(0, 90), 10));
  }
  sim.Simulate(iterations);
  return Snapshot(&sim);
}

void ExpectBitwiseTrajectories(const std::map<AgentUid, Real3>& a,
                               const std::map<AgentUid, Real3>& b) {
  ASSERT_EQ(a.size(), b.size());
  auto it = b.begin();
  bool moved = false;
  for (const auto& [uid, pos] : a) {
    ASSERT_EQ(uid, it->first);
    // Exact comparison -- the fused engine's contract is bitwise equality,
    // not closeness (physics/force_kernel.h documents every grouping).
    EXPECT_EQ(pos.x, it->second.x) << uid;
    EXPECT_EQ(pos.y, it->second.y) << uid;
    EXPECT_EQ(pos.z, it->second.z) << uid;
    moved |= pos.x != 0 || pos.y != 0 || pos.z != 0;
    ++it;
  }
  EXPECT_TRUE(moved);  // the scene actually relaxed
}

struct FusedCase {
  EnvironmentType environment;
  bool detect_static;
};

class FusedEngineBitwise : public ::testing::TestWithParam<FusedCase> {};

TEST_P(FusedEngineBitwise, MatchesSequentialReferenceTrajectories) {
  const auto reference = RunRelaxation(GetParam().environment,
                                       /*soa_primary=*/false,
                                       GetParam().detect_static, 20);
  const auto fused = RunRelaxation(GetParam().environment,
                                   /*soa_primary=*/true,
                                   GetParam().detect_static, 20);
  ExpectBitwiseTrajectories(reference, fused);
}

// kd-tree/octree take MechanicsFusedOp's fallback route (no uniform grid):
// bitwise equality there certifies that soa_primary changes NOTHING when
// the fast path does not apply.
INSTANTIATE_TEST_SUITE_P(
    Environments, FusedEngineBitwise,
    ::testing::Values(FusedCase{EnvironmentType::kUniformGrid, false},
                      FusedCase{EnvironmentType::kUniformGrid, true},
                      FusedCase{EnvironmentType::kKdTree, false},
                      FusedCase{EnvironmentType::kOctree, false}));

// --- concurrent pipeline (tsan) ----------------------------------------------

/// Behavior mix for the threaded run: movement (AoS-dirty refresh path),
/// growth (diameter refresh), proliferation and death (commit rebuilds under
/// parallel contexts).
class ChurnBehavior : public Behavior {
 public:
  Behavior* NewCopy() const override { return new ChurnBehavior(*this); }
  void Run(Agent* agent, ExecutionContext* ctx) override {
    auto* cell = dynamic_cast<Cell*>(agent);
    const double draw = Draw(agent->GetUid(), iteration_);
    if (draw < 0.05) {
      ctx->RemoveAgent(agent->GetUid());
    } else if (draw > 0.95) {
      ctx->AddAgent(new Cell(agent->GetPosition() + Real3{1, 0, 0}, 9));
    } else if (draw > 0.5) {
      cell->SetDiameter(cell->GetDiameter() + 0.01);
    } else {
      agent->SetPosition(agent->GetPosition() + Real3{0.1, -0.1, 0.05});
    }
    ++iteration_;
  }

 private:
  uint64_t iteration_ = 0;
};

TEST(SoaStoreConcurrency, ThreadedPipelineStaysAuditClean) {
  Param param;
  param.environment = EnvironmentType::kUniformGrid;
  param.num_threads = 4;
  param.num_numa_domains = 2;
  param.parallel_commit = true;
  param.use_bdm_memory_manager = false;
  param.soa_primary = true;
  param.detect_static_agents = true;
  param.audit_interval = 1;  // store <-> uid-map <-> grid agreement per step
  Simulation sim("soa_threaded", param);
  Random random(31);
  auto* rm = sim.GetResourceManager();
  for (int i = 0; i < 1500; ++i) {
    auto* cell = new Cell(random.UniformPoint(0, 120), 10);
    cell->AddBehavior(new ChurnBehavior());
    rm->AddAgent(cell);
  }
  // Concurrently: behaviors mutate geometry and churn the population while
  // the fused engine scatters into shared shards and writes positions back
  // through the store. The per-iteration audit throws on any divergence.
  ASSERT_NO_THROW(sim.Simulate(8));
  EXPECT_GT(rm->GetNumAgents(), 0u);
}

}  // namespace
}  // namespace bdm
