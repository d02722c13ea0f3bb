// Functional tests for the spatially-sharded engine (src/shard/): ghost
// lifecycle across halo exchanges, ownership migration with uid remapping,
// single-shard degeneration, per-shard op timing, and a multi-iteration
// migration churn run with concurrent per-shard commits. Listed in
// BDM_TSAN_TESTS: sanitizer builds run the churn under tsan with
// BDM_AUDIT_INTERVAL=1, so every iteration passes both the per-shard
// ConsistencyAudit and the cross-shard CheckShards.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "continuum/diffusion_grid.h"
#include "core/cell.h"
#include "core/consistency_audit.h"
#include "core/resource_manager.h"
#include "core/simulation.h"
#include "core/timing.h"
#include "io/agent_record.h"
#include "io/checkpoint.h"
#include "obs/metrics.h"
#include "shard/sharded_simulation.h"
#include "spatial/shard_partition.h"
#include "support/json_balanced.h"
#include "support/temp_path.h"

namespace bdm::shard {
namespace {

uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Deterministic drift keyed on a per-behavior step counter: agents wander
/// through the volume (forcing boundary crossings and halo churn) on a path
/// independent of uid remapping and thread assignment. The counter is
/// serialized, so the walk continues seamlessly across a migration.
class DriftBehavior : public Behavior {
 public:
  DriftBehavior() = default;
  explicit DriftBehavior(uint64_t seed) : seed_(seed) {}

  void Run(Agent* agent, ExecutionContext*) override {
    const uint64_t base = SplitMix64(seed_ ^ (step_ * 0xD1B54A32D192ED03ull));
    Real3 position = agent->GetPosition();
    position.x += Jitter(base);
    position.y += Jitter(SplitMix64(base));
    position.z += Jitter(SplitMix64(SplitMix64(base)));
    position.x = Clamp(position.x);
    position.y = Clamp(position.y);
    position.z = Clamp(position.z);
    agent->SetPosition(position);
    ++step_;
  }

  Behavior* NewCopy() const override { return new DriftBehavior(*this); }

  void WriteState(std::ostream& out) const override {
    io::WriteScalar(out, seed_);
    io::WriteScalar(out, step_);
  }
  void ReadState(std::istream& in) override {
    seed_ = io::ReadScalar<uint64_t>(in);
    step_ = io::ReadScalar<uint64_t>(in);
  }

 private:
  static real_t Jitter(uint64_t bits) {
    // [-4, 4): large enough to cross a shard boundary within a few steps.
    return static_cast<real_t>(static_cast<double>(bits >> 11) * 0x1.0p-53 *
                                   8.0 -
                               4.0);
  }
  static real_t Clamp(real_t v) {
    return v < 1 ? 1 : (v > 99 ? real_t{99} : v);
  }

  uint64_t seed_ = 0;
  uint64_t step_ = 0;
};

BDM_REGISTER_BEHAVIOR(DriftBehavior);

/// Deposits into the active shard's "oxygen" grid every step; stateless, so
/// it migrates with its agent unchanged.
class SecreteOxygen : public Behavior {
 public:
  void Run(Agent* agent, ExecutionContext*) override {
    DiffusionGrid* grid = Simulation::GetActive()->GetDiffusionGrid("oxygen");
    grid->IncreaseConcentrationBy(agent->GetPosition(), real_t{0.05});
  }
  Behavior* NewCopy() const override { return new SecreteOxygen(*this); }
};

BDM_REGISTER_BEHAVIOR(SecreteOxygen);

Param ShardParam() {
  Param param;
  param.num_threads = 4;
  param.num_numa_domains = 1;
  param.fixed_box_length = 10;
  return param;
}

void ExpectCleanShards(ShardedSimulation* sim, const std::string& context) {
  const auto violations = ConsistencyAudit::CheckShards(sim);
  EXPECT_TRUE(violations.empty())
      << context << ": " << violations.size()
      << " violation(s), first: " << violations.front();
}

TEST(ShardPartitionTest, UniformExtentsTileTheVolume) {
  const auto extents =
      spatial::UniformShardExtents({0, 0, 0}, {100, 100, 100}, 8);
  ASSERT_EQ(extents.size(), 8u);
  for (uint64_t i = 0; i < 500; ++i) {
    const Real3 p{static_cast<real_t>(SplitMix64(i) % 1000) / 10,
                  static_cast<real_t>(SplitMix64(i + 7777) % 1000) / 10,
                  static_cast<real_t>(SplitMix64(i + 991) % 1000) / 10};
    const int owner = spatial::LocateShard(extents, p);
    ASSERT_GE(owner, 0);
    EXPECT_EQ(spatial::DistanceToExtent(extents[owner], p), 0);
  }
  // Global boundary faces (including the closed upper face) have an owner.
  EXPECT_NO_THROW(spatial::LocateShard(extents, {100, 100, 100}));
  EXPECT_NO_THROW(spatial::LocateShard(extents, {0, 50, 100}));
  // Out-of-volume positions clamp to the nearest shard instead of throwing.
  EXPECT_NO_THROW(spatial::LocateShard(extents, {-5, 50, 105}));
}

TEST(ShardedSimulationTest, SingleShardHasNoExchange) {
  ShardedSimulation sim("single", ShardParam(), {0, 0, 0}, {100, 100, 100},
                        1);
  for (int i = 0; i < 10; ++i) {
    auto* cell = new Cell({static_cast<real_t>(10 + i * 8), 50, 50}, 8);
    cell->AddBehavior(new DriftBehavior(i));
    sim.AddAgent(cell);
  }
  sim.Simulate(3);
  EXPECT_EQ(sim.TotalOwned(), 10u);
  EXPECT_EQ(sim.TotalGhosts(), 0u);
  EXPECT_EQ(sim.GetTransport()->TotalBytesSent(), 0u);
}

TEST(ShardedSimulationTest, ObservabilityJsonReportsEveryShard) {
  // BDM_OBS_JSON on a sharded run: one document with each local shard's
  // timing section next to the process-global counters.
  const std::string path = test::TempPath("sharded_obs.json");
  setenv("BDM_OBS_JSON", path.c_str(), 1);
  {
    ShardedSimulation sim("obs", ShardParam(), {0, 0, 0}, {100, 100, 100},
                          2);
    for (int i = 0; i < 10; ++i) {
      auto* cell = new Cell({static_cast<real_t>(10 + i * 8), 50, 50}, 8);
      cell->AddBehavior(new DriftBehavior(i));
      sim.AddAgent(cell);
    }
    sim.Simulate(3);
  }  // dtor writes the document
  unsetenv("BDM_OBS_JSON");
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "BDM_OBS_JSON did not produce " << path;
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_TRUE(test::JsonBalanced(text)) << text;
  EXPECT_NE(text.find("\"shards\""), std::string::npos);
  for (const char* shard : {"\"obs_shard0\"", "\"obs_shard1\""}) {
    const size_t at = text.find(shard);
    ASSERT_NE(at, std::string::npos) << shard;
    // The shard's own section follows its name: iterations, grand total and
    // per-op timing.
    const size_t iterations = text.find("\"iterations\": 3", at);
    const size_t timing = text.find("\"agent_ops\"", at);
    EXPECT_NE(iterations, std::string::npos) << shard;
    EXPECT_NE(timing, std::string::npos) << shard;
  }
  EXPECT_NE(text.find("\"counters\""), std::string::npos);
  EXPECT_NE(text.find("\"shard/migrations\""), std::string::npos);
  EXPECT_NE(text.find("\"gauges\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(ShardedSimulationTest, EveryShardTimesItsOwnOps) {
  // Each shard's TimingAggregator has one writer: the lane stepping that
  // shard runs its ops' timers, and the main thread times its field step
  // after the lanes join. Every due op and the field step must be counted
  // once per iteration in every shard; a tsan build checks the writes race
  // with nothing.
  const uint64_t iterations = 6;
  for (int num_shards : {2, 4}) {
    ShardedSimulation sim("timed", ShardParam(), {0, 0, 0}, {100, 100, 100},
                          num_shards);
    sim.AddDiffusionGrid([] {
      auto grid = std::make_unique<DiffusionGrid>(
          "oxygen", /*diffusion_coefficient=*/40, /*decay=*/0, 16);
      grid->SetBoundaryCondition(DiffusionGrid::BoundaryCondition::kClosed);
      return grid;
    });
    for (uint64_t i = 0; i < 200; ++i) {
      const Real3 position{
          static_cast<real_t>(1 + (i * 2654435761ull) % 98),
          static_cast<real_t>(1 + (i * 40503ull + 7) % 98),
          static_cast<real_t>(1 + (i * 69069ull + 13) % 98)};
      auto* cell = new Cell(position, 8);
      cell->AddBehavior(new DriftBehavior(i));
      cell->AddBehavior(new SecreteOxygen());
      sim.AddAgent(cell);
    }
    sim.Simulate(iterations);
    for (int s = 0; s < num_shards; ++s) {
      const TimingAggregator* timing = sim.GetShard(s)->sim()->GetTiming();
      for (const char* name : {"environment_update", "agent_ops",
                               "mechanical_forces", "commit",
                               "diffusion/oxygen"}) {
        EXPECT_EQ(timing->Count(name), iterations)
            << "S=" << num_shards << " shard " << s << " " << name;
      }
      EXPECT_GT(timing->GrandTotalSeconds(), 0)
          << "S=" << num_shards << " shard " << s;
    }
  }
}

TEST(ShardTraceTest, LaneTraceIsWellFormedAndNamesShardLaneTracks) {
  // BDM_TRACE on an in-process S=2 run: the shards step concurrently on two
  // lanes, and each shard's "step" spans land on a track of its own.
  const std::string path = test::TempPath("shard_lanes.trace.json");
  setenv("BDM_TRACE", path.c_str(), 1);
  {
    ShardedSimulation sim("lane_trace", ShardParam(), {0, 0, 0},
                          {100, 100, 100}, 2);
    for (int i = 0; i < 20; ++i) {
      auto* cell = new Cell({static_cast<real_t>(5 + i * 4.5), 50, 50}, 8);
      cell->AddBehavior(new DriftBehavior(i));
      sim.AddAgent(cell);
    }
    sim.Simulate(4);
  }  // dtor stops the recorder and writes the file
  unsetenv("BDM_TRACE");
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "BDM_TRACE did not produce " << path;
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_TRUE(test::JsonBalanced(text));
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(text.find("shard lane 0"), std::string::npos);
  std::set<std::string> step_tracks;
  const std::string step = "{\"name\": \"step\", ";
  for (size_t pos = text.find(step); pos != std::string::npos;
       pos = text.find(step, pos + 1)) {
    const size_t tid = text.find("\"tid\": ", pos);
    ASSERT_NE(tid, std::string::npos);
    const size_t end = text.find_first_of(",}", tid);
    step_tracks.insert(text.substr(tid + 7, end - tid - 7));
  }
  EXPECT_GE(step_tracks.size(), 2u);
  std::remove(path.c_str());
}

TEST(ShardedSimulationTest, HaloGhostAppearsUpdatesAndRetires) {
  ShardedSimulation sim("halo", ShardParam(), {0, 0, 0}, {100, 100, 100}, 2);
  auto* cell = new Cell({45, 50, 50}, 8);  // 5 from the x=50 split plane
  sim.AddAgent(cell);
  ASSERT_EQ(sim.GetShard(0)->NumOwned(), 1u);

  sim.Exchange();
  EXPECT_EQ(sim.GetShard(1)->NumGhosts(), 1u);
  ASSERT_EQ(sim.GetShard(1)->Ghosts()[0].size(), 1u);
  const auto& entry = sim.GetShard(1)->Ghosts()[0].begin()->second;
  const Agent* ghost =
      sim.GetShard(1)->sim()->GetResourceManager()->GetAgent(entry.local_uid);
  ASSERT_NE(ghost, nullptr);
  EXPECT_TRUE(ghost->IsGhost());
  EXPECT_EQ(io::RealBits(ghost->GetPosition().x),
            io::RealBits(cell->GetPosition().x));
  EXPECT_EQ(io::RealBits(ghost->GetDiameter()),
            io::RealBits(cell->GetDiameter()));
  ExpectCleanShards(&sim, "after first exchange");

  // The owner moves within the halo zone: the ghost must follow bitwise.
  Simulation* previous = Simulation::SetActive(sim.GetShard(0)->sim());
  cell->SetPosition({43.25, 51.5, 49.75});
  Simulation::SetActive(previous);
  sim.Exchange();
  EXPECT_EQ(sim.GetShard(1)->NumGhosts(), 1u);
  EXPECT_EQ(io::RealBits(ghost->GetPosition().x), io::RealBits(real_t{43.25}));
  ExpectCleanShards(&sim, "after moving within the halo");

  // The owner leaves the halo zone: the ghost must retire.
  previous = Simulation::SetActive(sim.GetShard(0)->sim());
  cell->SetPosition({10, 50, 50});
  Simulation::SetActive(previous);
  sim.Exchange();
  EXPECT_EQ(sim.GetShard(1)->NumGhosts(), 0u);
  EXPECT_EQ(sim.GetShard(1)->sim()->GetResourceManager()->GetNumAgents(), 0u);
  ExpectCleanShards(&sim, "after leaving the halo");
}

TEST(ShardedSimulationTest, HaloWidthCoversOversizedAgents) {
  // Param::fixed_box_length (10 here) fixes the neighbor-search radius, but
  // an agent whose diameter exceeds it reaches past one box of neighbors.
  // The halo width must be max(fixed_box_length, max diameter) or this
  // agent's boundary pairs are silently dropped: it sits 15 from the x=50
  // split plane -- outside the old fixed_box_length-only halo -- yet its
  // 40-diameter body overlaps agents across the seam.
  ShardedSimulation sim("oversized", ShardParam(), {0, 0, 0}, {100, 100, 100},
                        2);
  sim.AddAgent(new Cell({35, 50, 50}, 40));
  ASSERT_EQ(sim.GetShard(0)->NumOwned(), 1u);

  sim.Exchange();
  EXPECT_EQ(sim.GetShard(1)->NumGhosts(), 1u)
      << "oversized agent was not published across the shard seam";
  ExpectCleanShards(&sim, "after oversized-agent exchange");
}

TEST(ShardedSimulationTest, MigrationTransfersOwnershipAndBehaviors) {
  ShardedSimulation sim("migrate", ShardParam(), {0, 0, 0}, {100, 100, 100},
                        2);
  auto* cell = new Cell({45, 50, 50}, 8);
  cell->AddBehavior(new DriftBehavior(99));
  sim.AddAgent(cell);
  const AgentUid old_uid = cell->GetUid();

  // Step across the x=50 split plane, then exchange.
  Simulation* previous = Simulation::SetActive(sim.GetShard(0)->sim());
  cell->SetPosition({55, 50, 50});
  Simulation::SetActive(previous);
  sim.Exchange();

  EXPECT_EQ(sim.GetShard(0)->NumOwned(), 0u);
  EXPECT_EQ(sim.GetShard(1)->NumOwned(), 1u);
  EXPECT_EQ(sim.TotalOwned(), 1u);
  Agent* migrated = nullptr;
  sim.GetShard(1)->sim()->GetResourceManager()->ForEachAgent(
      [&](Agent* agent, AgentHandle) {
        if (!agent->IsGhost()) {
          migrated = agent;
        }
      });
  ASSERT_NE(migrated, nullptr);
  EXPECT_NE(migrated->GetUid(), old_uid);  // remapped to a fresh uid
  EXPECT_EQ(io::RealBits(migrated->GetPosition().x), io::RealBits(real_t{55}));
  ASSERT_EQ(migrated->GetAllBehaviors().size(), 1u);
  EXPECT_NE(dynamic_cast<DriftBehavior*>(migrated->GetAllBehaviors()[0]),
            nullptr);
  ExpectCleanShards(&sim, "after migration");

  // The new owner now publishes the agent back into shard 0's halo zone.
  EXPECT_EQ(sim.GetShard(0)->NumGhosts(), 1u);
}

TEST(ShardedSimulationTest, MigrationChurnConservesAgentsAcrossShards) {
  // The tsan-certified churn: 4 shards, every agent wanders (concurrent
  // behavior phase -> buffered commits on the shared pool), crossing shard
  // boundaries continuously. audit_interval=1 makes Simulate run CheckShards
  // after every exchange (and, in sanitizer builds, BDM_AUDIT_INTERVAL=1
  // additionally audits each shard's rm/env/store every iteration).
  Param param = ShardParam();
  param.audit_interval = 1;
  ShardedSimulation sim("churn", param, {0, 0, 0}, {100, 100, 100}, 4);
  const uint64_t n = 150;
  for (uint64_t i = 0; i < n; ++i) {
    const Real3 position{
        static_cast<real_t>(1 + SplitMix64(i) % 98),
        static_cast<real_t>(1 + SplitMix64(i + 123456) % 98),
        static_cast<real_t>(1 + SplitMix64(i + 654321) % 98)};
    auto* cell = new Cell(position, 8);
    cell->AddBehavior(new DriftBehavior(i));
    sim.AddAgent(cell);
  }
  ASSERT_EQ(sim.TotalOwned(), n);

  sim.Simulate(12);  // throws internally if any CheckShards round fails

  EXPECT_EQ(sim.TotalOwned(), n);
  EXPECT_GT(MetricsRegistry::Get().CounterTotal("shard/migrations"), 0u);
  sim.Exchange();
  ExpectCleanShards(&sim, "after final exchange");
  EXPECT_EQ(sim.TotalOwned(), n);

  // Every shard's own population must also be internally consistent.
  for (int s = 0; s < sim.NumShards(); ++s) {
    Simulation* previous = Simulation::SetActive(sim.GetShard(s)->sim());
    const auto violations = ConsistencyAudit::CheckAll(sim.GetShard(s)->sim());
    Simulation::SetActive(previous);
    EXPECT_TRUE(violations.empty())
        << "shard " << s << ": " << violations.size()
        << " violation(s), first: " << violations.front();
  }
}

}  // namespace
}  // namespace bdm::shard
