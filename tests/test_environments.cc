// Environment correctness: each implementation must return exactly the
// brute-force neighbor set, and all three must agree with each other
// (precondition for the Figure 11 performance comparison being meaningful).
// Queries answer from the Update-time snapshot, also while behaviors move
// agents on other workers (the NeighborQueryUnderMovement runs, ctest label
// `tsan`), and so does the neighbor-count column filled after each Update.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <map>
#include <memory>
#include <ostream>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/cell.h"
#include "core/operation.h"
#include "core/resource_manager.h"
#include "core/scheduler.h"
#include "core/simulation.h"
#include "env/kd_tree.h"
#include "env/octree.h"
#include "env/uniform_grid.h"
#include "math/random.h"
#include "models/oncology.h"
#include "models/registry.h"

namespace bdm {
namespace {

class EnvFixture {
 public:
  EnvFixture(int threads = 2, int domains = 1) {
    param_.num_threads = threads;
    param_.num_numa_domains = domains;
    pool_ = std::make_unique<NumaThreadPool>(Topology(threads, domains));
    rm_ = std::make_unique<ResourceManager>(param_, pool_.get(), &gen_);
  }

  void AddRandomCells(int n, real_t space, real_t diameter, uint64_t seed) {
    Random random(seed);
    for (int i = 0; i < n; ++i) {
      rm_->AddAgent(new Cell(random.UniformPoint(0, space), diameter));
    }
  }

  std::multiset<AgentUid> BruteForceNeighbors(const Agent& query,
                                              real_t squared_radius) const {
    std::multiset<AgentUid> result;
    rm_->ForEachAgent([&](Agent* agent, AgentHandle) {
      if (agent != &query &&
          agent->GetPosition().SquaredDistance(query.GetPosition()) <=
              squared_radius) {
        result.insert(agent->GetUid());
      }
    });
    return result;
  }

  std::multiset<AgentUid> EnvNeighbors(Environment* env, const Agent& query,
                                       real_t squared_radius) const {
    std::multiset<AgentUid> result;
    env->ForEachNeighbor(
        query, squared_radius, [&](const Environment::NeighborData& nb) {
          EXPECT_LE(nb.squared_distance, squared_radius);
          EXPECT_NEAR(nb.squared_distance,
                      nb.agent->GetPosition().SquaredDistance(
                          query.GetPosition()),
                      1e-9);
          result.insert(nb.agent->GetUid());
        });
    return result;
  }

  Param param_;
  AgentUidGenerator gen_;
  std::unique_ptr<NumaThreadPool> pool_;
  std::unique_ptr<ResourceManager> rm_;
};

struct EnvCase {
  EnvironmentType type;
  int num_agents;
  real_t space;
  real_t radius_factor;  // query radius = factor * diameter
  uint64_t seed;
};

std::unique_ptr<Environment> MakeEnvironment(const Param& param,
                                             EnvironmentType type) {
  switch (type) {
    case EnvironmentType::kUniformGrid:
      return std::make_unique<UniformGridEnvironment>(param);
    case EnvironmentType::kKdTree:
      return std::make_unique<KdTreeEnvironment>(param);
    case EnvironmentType::kOctree:
      return std::make_unique<OctreeEnvironment>(param);
  }
  return nullptr;
}

std::string EnvironmentName(
    const ::testing::TestParamInfo<EnvironmentType>& info) {
  return MakeEnvironment(Param{}, info.param)->GetName();
}

class EnvironmentCorrectness : public ::testing::TestWithParam<EnvCase> {};

TEST_P(EnvironmentCorrectness, MatchesBruteForce) {
  const EnvCase c = GetParam();
  EnvFixture fix;
  fix.AddRandomCells(c.num_agents, c.space, 10, c.seed);
  auto env = MakeEnvironment(fix.param_, c.type);
  env->Update(*fix.rm_, fix.pool_.get());
  const real_t radius = 10 * c.radius_factor;
  const real_t squared_radius = radius * radius;
  fix.rm_->ForEachAgent([&](Agent* query, AgentHandle) {
    ASSERT_EQ(fix.EnvNeighbors(env.get(), *query, squared_radius),
              fix.BruteForceNeighbors(*query, squared_radius))
        << "query uid " << query->GetUid();
  });
}

TEST_P(EnvironmentCorrectness, PositionAnchoredSearchMatches) {
  const EnvCase c = GetParam();
  EnvFixture fix;
  fix.AddRandomCells(c.num_agents, c.space, 10, c.seed);
  auto env = MakeEnvironment(fix.param_, c.type);
  env->Update(*fix.rm_, fix.pool_.get());
  Random random(c.seed * 31 + 7);
  const real_t squared_radius = 100 * c.radius_factor * c.radius_factor;
  for (int i = 0; i < 20; ++i) {
    const Real3 probe = random.UniformPoint(-0.1 * c.space, 1.1 * c.space);
    std::multiset<AgentUid> expected;
    fix.rm_->ForEachAgent([&](Agent* agent, AgentHandle) {
      if (agent->GetPosition().SquaredDistance(probe) <= squared_radius) {
        expected.insert(agent->GetUid());
      }
    });
    std::multiset<AgentUid> actual;
    env->ForEachNeighbor(probe, squared_radius,
                         [&](const Environment::NeighborData& nb) {
                           actual.insert(nb.agent->GetUid());
                         });
    ASSERT_EQ(actual, expected);
  }
}

// Every query answers from the Update-time snapshot: an agent moved and
// resized after Update is still reported where it was indexed, with its
// old diameter and the distance to that old position, and every payload's
// dense index addresses the environment's dense agent array.
TEST_P(EnvironmentCorrectness, QueriesReportUpdateTimeSnapshot) {
  const EnvCase c = GetParam();
  EnvFixture fix;
  fix.AddRandomCells(c.num_agents, c.space, 10, c.seed);
  auto env = MakeEnvironment(fix.param_, c.type);
  env->Update(*fix.rm_, fix.pool_.get());
  std::map<const Agent*, std::pair<Real3, real_t>> snapshot;
  Agent* moved = nullptr;
  fix.rm_->ForEachAgent([&](Agent* agent, AgentHandle) {
    snapshot[agent] = {agent->GetPosition(), agent->GetDiameter()};
    moved = agent;
  });
  const Real3 indexed_at = moved->GetPosition();
  moved->SetPosition(indexed_at + Real3{3 * c.space, 0, 0});
  moved->SetDiameter(25);

  const real_t radius = 10 * c.radius_factor;
  const real_t squared_radius = radius * radius;
  Agent* const* dense = env->DenseAgents();
  fix.rm_->ForEachAgent([&](Agent* query, AgentHandle) {
    std::set<const Agent*> expected;
    for (const auto& [agent, geometry] : snapshot) {
      if (agent != query &&
          geometry.first.SquaredDistance(query->GetPosition()) <=
              squared_radius) {
        expected.insert(agent);
      }
    }
    std::set<const Agent*> actual;
    env->ForEachNeighbor(
        *query, squared_radius, [&](const Environment::NeighborData& nb) {
          ASSERT_LT(nb.index, env->DenseAgentCount());
          EXPECT_EQ(dense[nb.index], nb.agent);
          EXPECT_EQ(nb.position, snapshot.at(nb.agent).first);
          EXPECT_EQ(nb.diameter, snapshot.at(nb.agent).second);
          EXPECT_NEAR(nb.squared_distance,
                      nb.position.SquaredDistance(query->GetPosition()), 1e-9);
          actual.insert(nb.agent);
        });
    ASSERT_EQ(actual, expected) << "query uid " << query->GetUid();
  });

  int found = 0;
  env->ForEachNeighbor(indexed_at, 1, [&](const Environment::NeighborData& nb) {
    if (nb.agent == moved) {
      ++found;
      EXPECT_EQ(nb.squared_distance, 0);
      EXPECT_EQ(nb.diameter, 10);
    }
  });
  EXPECT_EQ(found, 1);
  env->ForEachNeighbor(moved->GetPosition(), 1,
                       [&](const Environment::NeighborData& nb) {
                         EXPECT_NE(nb.agent, moved);
                       });
}

TEST_P(EnvironmentCorrectness, EmptySimulationIsSafe) {
  EnvFixture fix;
  auto env = MakeEnvironment(fix.param_, GetParam().type);
  env->Update(*fix.rm_, fix.pool_.get());
  int calls = 0;
  env->ForEachNeighbor(Real3{0, 0, 0}, 100,
                       [&](const Environment::NeighborData&) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST_P(EnvironmentCorrectness, BoundsCoverAllAgents) {
  const EnvCase c = GetParam();
  EnvFixture fix;
  fix.AddRandomCells(c.num_agents, c.space, 10, c.seed);
  auto env = MakeEnvironment(fix.param_, c.type);
  env->Update(*fix.rm_, fix.pool_.get());
  const Real3 lower = env->GetLowerBound();
  const Real3 upper = env->GetUpperBound();
  fix.rm_->ForEachAgent([&](Agent* agent, AgentHandle) {
    for (int i = 0; i < 3; ++i) {
      EXPECT_GE(agent->GetPosition()[i], lower[i] - 1e-9);
      EXPECT_LE(agent->GetPosition()[i], upper[i] + 1e-9);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    Grid, EnvironmentCorrectness,
    ::testing::Values(EnvCase{EnvironmentType::kUniformGrid, 50, 100, 1, 1},
                      EnvCase{EnvironmentType::kUniformGrid, 300, 150, 1, 2},
                      EnvCase{EnvironmentType::kUniformGrid, 300, 150, 2.5, 3},
                      EnvCase{EnvironmentType::kUniformGrid, 1000, 60, 0.7, 4}));

INSTANTIATE_TEST_SUITE_P(
    KdTree, EnvironmentCorrectness,
    ::testing::Values(EnvCase{EnvironmentType::kKdTree, 50, 100, 1, 5},
                      EnvCase{EnvironmentType::kKdTree, 300, 150, 1, 6},
                      EnvCase{EnvironmentType::kKdTree, 1000, 60, 0.7, 7}));

INSTANTIATE_TEST_SUITE_P(
    Octree, EnvironmentCorrectness,
    ::testing::Values(EnvCase{EnvironmentType::kOctree, 50, 100, 1, 8},
                      EnvCase{EnvironmentType::kOctree, 300, 150, 1, 9},
                      EnvCase{EnvironmentType::kOctree, 1000, 60, 0.7, 10}));

// --- uniform grid specifics -------------------------------------------------

TEST(UniformGridTest, TimestampReuseAcrossUpdates) {
  EnvFixture fix;
  fix.AddRandomCells(200, 100, 10, 11);
  UniformGridEnvironment grid(fix.param_);
  // Many updates without moving agents must keep producing correct counts
  // (exercises the timestamp-based lazy clearing).
  for (int update = 0; update < 5; ++update) {
    grid.Update(*fix.rm_, fix.pool_.get());
    uint64_t total = 0;
    for (int64_t b = 0; b < grid.GetNumBoxes(); ++b) {
      total += grid.GetBoxCount(b);
    }
    ASSERT_EQ(total, fix.rm_->GetNumAgents());
  }
}

TEST(UniformGridTest, BoxIterationVisitsEachAgentOnce) {
  EnvFixture fix;
  fix.AddRandomCells(500, 120, 10, 13);
  UniformGridEnvironment grid(fix.param_);
  grid.Update(*fix.rm_, fix.pool_.get());
  std::multiset<AgentUid> visited;
  for (int64_t b = 0; b < grid.GetNumBoxes(); ++b) {
    grid.ForEachAgentInBox(b, [&](Agent* agent) { visited.insert(agent->GetUid()); });
  }
  EXPECT_EQ(visited.size(), fix.rm_->GetNumAgents());
  // multiset: duplicates would show as size mismatch vs the unique set
  std::set<AgentUid> unique(visited.begin(), visited.end());
  EXPECT_EQ(unique.size(), visited.size());
}

TEST(UniformGridTest, BoxLengthTracksLargestAgent) {
  EnvFixture fix;
  fix.AddRandomCells(20, 100, 10, 17);
  fix.rm_->AddAgent(new Cell({50, 50, 50}, 25));  // one big agent
  UniformGridEnvironment grid(fix.param_);
  grid.Update(*fix.rm_, fix.pool_.get());
  EXPECT_DOUBLE_EQ(grid.GetBoxLength(), 25);
  EXPECT_DOUBLE_EQ(grid.GetInteractionRadius(), 25);
}

TEST(UniformGridTest, FixedBoxLengthOverrides) {
  EnvFixture fix;
  fix.param_.fixed_box_length = 40;
  fix.AddRandomCells(20, 100, 10, 19);
  UniformGridEnvironment grid(fix.param_);
  grid.Update(*fix.rm_, fix.pool_.get());
  EXPECT_DOUBLE_EQ(grid.GetBoxLength(), 40);
}

TEST(UniformGridTest, SingleAgentGrid) {
  EnvFixture fix;
  fix.rm_->AddAgent(new Cell({5, 5, 5}, 10));
  UniformGridEnvironment grid(fix.param_);
  grid.Update(*fix.rm_, fix.pool_.get());
  EXPECT_EQ(grid.GetNumBoxes(), 1);
  EXPECT_EQ(grid.GetBoxCount(0), 1u);
}

TEST(UniformGridTest, DimensionChangeReallocates) {
  EnvFixture fix;
  auto* wanderer = new Cell({0, 0, 0}, 10);
  fix.rm_->AddAgent(wanderer);
  fix.rm_->AddAgent(new Cell({50, 50, 50}, 10));
  UniformGridEnvironment grid(fix.param_);
  grid.Update(*fix.rm_, fix.pool_.get());
  const int64_t boxes_before = grid.GetNumBoxes();
  wanderer->SetPosition({500, 0, 0});  // stretches the bounding box
  grid.Update(*fix.rm_, fix.pool_.get());
  EXPECT_GT(grid.GetNumBoxes(), boxes_before);
  // Counts stay exact after reallocation.
  uint64_t total = 0;
  for (int64_t b = 0; b < grid.GetNumBoxes(); ++b) {
    total += grid.GetBoxCount(b);
  }
  EXPECT_EQ(total, 2u);
}

// Drives the 16-bit timestamp across the wrap point (0xFFFF -> clear -> 1).
// Without the wrap-clear, boxes stamped in the pre-wrap era would read as
// populated again once the counter coincides, corrupting searches.
TEST(UniformGridTest, TimestampWrapKeepsSearchesCorrect) {
  EnvFixture fix;
  fix.AddRandomCells(300, 120, 10, 31);
  UniformGridEnvironment grid(fix.param_);
  grid.Update(*fix.rm_, fix.pool_.get());  // fresh boxes array, timestamp 1
  grid.SetTimestampForTesting(0xFFFE);
  const real_t squared_radius = 100;
  for (int update = 0; update < 4; ++update) {
    grid.Update(*fix.rm_, fix.pool_.get());  // 0xFFFF, wrap-clear to 1, 2, 3
    uint64_t total = 0;
    for (int64_t b = 0; b < grid.GetNumBoxes(); ++b) {
      total += grid.GetBoxCount(b);
    }
    ASSERT_EQ(total, fix.rm_->GetNumAgents()) << "update " << update;
    fix.rm_->ForEachAgent([&](Agent* query, AgentHandle) {
      ASSERT_EQ(fix.EnvNeighbors(&grid, *query, squared_radius),
                fix.BruteForceNeighbors(*query, squared_radius))
          << "update " << update << " query uid " << query->GetUid();
    });
  }
}

// Pins the search at radius == box length against a brute-force reference
// on an 11^3 grid: interior queries visit up to 3^3 boxes of the bounding
// cube, boundary queries the part of it the grid clamps to.
TEST(UniformGridTest, FastPathMatchesReferenceScan) {
  EnvFixture fix;
  fix.param_.fixed_box_length = 10;
  fix.AddRandomCells(800, 110, 8, 37);
  UniformGridEnvironment grid(fix.param_);
  grid.Update(*fix.rm_, fix.pool_.get());
  ASSERT_GE(grid.GetDimensions()[0], 3);  // interior boxes exist
  const real_t squared_radius = grid.GetBoxLength() * grid.GetBoxLength();
  fix.rm_->ForEachAgent([&](Agent* query, AgentHandle) {
    ASSERT_EQ(fix.EnvNeighbors(&grid, *query, squared_radius),
              fix.BruteForceNeighbors(*query, squared_radius))
        << "query uid " << query->GetUid();
  });
}

// --- scan-order contract ----------------------------------------------------
// The grid's scans collect hits branch-free and report them afterwards; the
// reported sequence must still be the visit order of a plain scan -- boxes
// in (z, y, x) order, each box in ForEachAgentInBox order -- with the same
// d2. That order is what keeps force sums and trajectories bitwise, so the
// references below rebuild it from the public box iteration.

struct ScanHit {
  uint32_t owner;  // query agent (Search) or chain/stencil owner i (pairs)
  uint32_t index;
  real_t d2;
  bool operator==(const ScanHit&) const = default;
};

void PrintTo(const ScanHit& hit, std::ostream* os) {
  *os << "(" << hit.owner << ", " << hit.index << ", " << hit.d2 << ")";
}

// Reference view of a grid after Update: dense index of every agent and the
// box coordinates the grid assigns, computed with the grid's expressions.
struct GridReference {
  explicit GridReference(const UniformGridEnvironment& grid) : grid(grid) {
    for (uint32_t i = 0; i < grid.DenseAgentCount(); ++i) {
      dense_index[grid.DenseAgents()[i]] = i;
    }
  }

  // Unclamped, like Search; the pair traversal clamps.
  std::array<int64_t, 3> Box(const Real3& p) const {
    const real_t inv = real_t{1} / grid.GetBoxLength();
    const Real3 lower = grid.GetLowerBound();
    return {static_cast<int64_t>(std::floor((p.x - lower.x) * inv)),
            static_cast<int64_t>(std::floor((p.y - lower.y) * inv)),
            static_cast<int64_t>(std::floor((p.z - lower.z) * inv))};
  }

  bool Inside(int64_t x, int64_t y, int64_t z) const {
    const auto n = grid.GetDimensions();
    return x >= 0 && x < n[0] && y >= 0 && y < n[1] && z >= 0 && z < n[2];
  }

  // Appends box (x, y, z)'s agents within the radius of `q`, in box order,
  // skipping `skip` and every agent up to and including `after` if given.
  void AppendBoxHits(int64_t x, int64_t y, int64_t z, const Real3& q,
                     real_t sr, uint32_t owner, const Agent* skip,
                     const Agent* after, std::vector<ScanHit>* out) const {
    bool open = after == nullptr;
    grid.ForEachAgentInBox(grid.FlatBoxIndex(x, y, z), [&](Agent* agent) {
      if (!open) {
        open = agent == after;
        return;
      }
      const uint32_t j = dense_index.at(agent);
      const Real3 p = grid.DenseSnapshot(j).position;
      const real_t dx = p.x - q.x;
      const real_t dy = p.y - q.y;
      const real_t dz = p.z - q.z;
      const real_t d2 = dx * dx + dy * dy + dz * dz;
      if (d2 <= sr && agent != skip) {
        out->push_back({owner, j, d2});
      }
    });
  }

  const UniformGridEnvironment& grid;
  std::map<const Agent*, uint32_t> dense_index;
};

TEST(UniformGridTest, SearchReportsNeighborsInScanOrder) {
  EnvFixture fix;
  fix.param_.fixed_box_length = 10;
  fix.AddRandomCells(4000, 80, 8, 43);
  UniformGridEnvironment grid(fix.param_);
  grid.Update(*fix.rm_, fix.pool_.get());
  const GridReference ref(grid);
  const auto n = grid.GetDimensions();
  // Radii below, at and above the box length: reach 1 on the stencil and
  // clamped paths, and reach 2 on the general cube.
  for (const real_t radius : {6.0, 10.0, 15.0}) {
    const real_t sr = radius * radius;
    const int64_t reach = static_cast<int64_t>(std::ceil(radius / 10));
    int interior = 0;
    int boundary = 0;
    size_t most_hits = 0;
    fix.rm_->ForEachAgent([&](Agent* query, AgentHandle) {
      const uint32_t owner = ref.dense_index.at(query);
      const Real3 q = query->GetPosition();
      const auto c = ref.Box(q);
      const bool inner = c[0] >= 1 && c[0] + 1 < n[0] && c[1] >= 1 &&
                         c[1] + 1 < n[1] && c[2] >= 1 && c[2] + 1 < n[2];
      ++(inner ? interior : boundary);
      std::vector<ScanHit> expected;
      for (int64_t z = c[2] - reach; z <= c[2] + reach; ++z) {
        for (int64_t y = c[1] - reach; y <= c[1] + reach; ++y) {
          for (int64_t x = c[0] - reach; x <= c[0] + reach; ++x) {
            if (ref.Inside(x, y, z)) {
              ref.AppendBoxHits(x, y, z, q, sr, owner, query, nullptr,
                                &expected);
            }
          }
        }
      }
      std::vector<ScanHit> actual;
      grid.ForEachNeighbor(*query, sr,
                           [&](const Environment::NeighborData& nb) {
                             EXPECT_EQ(nb.agent, grid.DenseAgents()[nb.index]);
                             actual.push_back(
                                 {owner, nb.index, nb.squared_distance});
                           });
      most_hits = std::max(most_hits, actual.size());
      ASSERT_EQ(actual, expected) << "radius " << radius << " query uid "
                                  << query->GetUid();
    });
    EXPECT_GT(interior, 0) << "radius " << radius;
    EXPECT_GT(boundary, 0) << "radius " << radius;
    if (radius == 15.0) {
      // Some queries report more hits than one buffer holds.
      EXPECT_GT(most_hits, UniformGridEnvironment::kHitCapacity);
    }
  }
}

TEST(UniformGridTest, PairTraversalReportsPairsInScanOrder) {
  EnvFixture fix;
  fix.param_.fixed_box_length = 10;
  fix.AddRandomCells(3000, 70, 8, 47);
  UniformGridEnvironment grid(fix.param_);
  grid.Update(*fix.rm_, fix.pool_.get());
  const GridReference ref(grid);
  const auto n = grid.GetDimensions();
  for (const real_t radius : {7.0, 10.0}) {
    const real_t sr = radius * radius;
    std::vector<ScanHit> expected;
    for (uint32_t i = 0; i < grid.DenseAgentCount(); ++i) {
      const Real3 q = grid.DenseSnapshot(i).position;
      auto c = ref.Box(q);
      for (int k = 0; k < 3; ++k) {
        c[k] = std::clamp<int64_t>(c[k], 0, n[k] - 1);
      }
      // Own box: the agents after i in box order.
      ref.AppendBoxHits(c[0], c[1], c[2], q, sr, i, nullptr,
                        grid.DenseAgents()[i], &expected);
      // The 13 forward boxes in (dz, dy, dx) order.
      for (int64_t dz = -1; dz <= 1; ++dz) {
        for (int64_t dy = -1; dy <= 1; ++dy) {
          for (int64_t dx = -1; dx <= 1; ++dx) {
            const bool forward =
                dz > 0 || (dz == 0 && (dy > 0 || (dy == 0 && dx > 0)));
            if (forward && ref.Inside(c[0] + dx, c[1] + dy, c[2] + dz)) {
              ref.AppendBoxHits(c[0] + dx, c[1] + dy, c[2] + dz, q, sr, i,
                                nullptr, nullptr, &expected);
            }
          }
        }
      }
    }
    std::vector<ScanHit> actual;
    grid.ForEachNeighborPairInSlab(
        sr, 0, static_cast<int64_t>(grid.DenseAgentCount()),
        [&](uint32_t i, uint32_t j, real_t d2) {
          actual.push_back({i, j, d2});
        });
    ASSERT_FALSE(expected.empty());
    EXPECT_EQ(actual, expected) << "radius " << radius;
  }
}

// The half stencil covers radii up to the box length and no further: a pair
// two boxes apart can lie within any radius above it. Here the pair
// (9.9999995, 20.0000005) is 10.000001 apart, in boxes 0 and 2, within
// r^2 = 100.00005; a tolerance on the box-length test used to drop it.
TEST(UniformGridTest, PairTraversalJustAboveBoxLengthFindsEveryPair) {
  EnvFixture fix;
  fix.param_.fixed_box_length = 10;
  for (const real_t x : {0.0, 9.9999995, 20.0000005}) {
    fix.rm_->AddAgent(new Cell({x, 0, 0}, 1));
  }
  UniformGridEnvironment grid(fix.param_);
  grid.Update(*fix.rm_, fix.pool_.get());
  ASSERT_EQ(grid.GetDimensions()[0], 3);
  const real_t squared_radius = 100.00005;
  ASSERT_FALSE(grid.HalfStencilCovers(squared_radius));
  int query_hits = 0;
  fix.rm_->ForEachAgent([&](Agent* query, AgentHandle) {
    grid.ForEachNeighbor(*query, squared_radius,
                         [&](const Environment::NeighborData&) {
                           ++query_hits;
                         });
  });
  EXPECT_EQ(query_hits, 4);  // two pairs, each found from both ends
  std::atomic<int> pairs{0};
  grid.ForEachNeighborPair(
      squared_radius, fix.pool_.get(),
      [&](const Environment::NeighborPair&, int) { ++pairs; });
  EXPECT_EQ(pairs.load(), 2);
}

// Two tiny agents at opposite corners of a 1e12-sized space: the naive box
// count (extent / diameter per dimension, cubed) would overflow int64. The
// guard must coarsen the grid instead of overflowing or allocating.
TEST(UniformGridTest, HugeSparseSpaceDoesNotOverflow) {
  EnvFixture fix;
  auto* origin = new Cell({0, 0, 0}, 1e-3);
  fix.rm_->AddAgent(origin);
  fix.rm_->AddAgent(new Cell({1e12, 1e12, 1e12}, 1e-3));
  UniformGridEnvironment grid(fix.param_);
  grid.Update(*fix.rm_, fix.pool_.get());
  const auto dims = grid.GetDimensions();
  EXPECT_GT(dims[0], 0);
  EXPECT_LE(grid.GetNumBoxes(), int64_t{1} << 22);  // cap plus headroom
  // Searches stay correct on the coarsened grid.
  int neighbors = 0;
  grid.ForEachNeighbor(*origin, 1.0,
                       [&](const Environment::NeighborData&) { ++neighbors; });
  EXPECT_EQ(neighbors, 0);
  int found = 0;
  grid.ForEachNeighbor(Real3{0.1, 0, 0}, 1.0,
                       [&](const Environment::NeighborData& nb) {
                         EXPECT_EQ(nb.agent, origin);
                         ++found;
                       });
  EXPECT_EQ(found, 1);
}

// A box's agent count is 16 bits wide: the 65,536th agent in one box would
// wrap it to 0 and the whole box would read as empty. Update must throw
// instead, naming the box, while 65,535 agents in one box still index.
TEST(UniformGridTest, BoxCountOverflowThrows) {
  EnvFixture fix;
  for (int i = 0; i < 0xFFFF; ++i) {
    fix.rm_->AddAgent(new Cell({1, 2, 3}, 10));
  }
  UniformGridEnvironment grid(fix.param_);
  grid.Update(*fix.rm_, fix.pool_.get());
  ASSERT_EQ(grid.GetNumBoxes(), 1);
  EXPECT_EQ(grid.GetBoxCount(0), 0xFFFFu);
  for (int i = 0; i < 5000; ++i) {
    fix.rm_->AddAgent(new Cell({1, 2, 3}, 10));
  }
  try {
    grid.Update(*fix.rm_, fix.pool_.get());
    FAIL() << "70,535 agents in one box must not index";
  } catch (const std::overflow_error& error) {
    EXPECT_NE(std::string(error.what()).find("box 0 (0, 0, 0)"),
              std::string::npos)
        << error.what();
  }
}

// Footprint ownership after the SoA-primary store: in store mode the grid
// owns only its successor links (geometry lives in the ResourceManager's
// SoaStore, reported via soa/mirror_bytes -- ONE copy in the engine); in
// legacy mode the grid still owns the full mirror.
TEST(UniformGridTest, MemoryFootprintCoversSoAMirror) {
  EnvFixture fix;
  fix.AddRandomCells(1000, 100, 10, 41);
  {
    UniformGridEnvironment grid(fix.param_);
    grid.Update(*fix.rm_, fix.pool_.get());
    EXPECT_GE(grid.MemoryFootprint(),
              fix.rm_->GetNumAgents() * sizeof(uint32_t));
    const size_t store_per_agent =
        sizeof(Agent*) + 4 * sizeof(real_t) + sizeof(uint8_t);
    EXPECT_GE(fix.rm_->GetSoaStore().MemoryFootprintBytes(),
              fix.rm_->GetNumAgents() * store_per_agent);
  }
  fix.param_.soa_primary = false;
  UniformGridEnvironment legacy(fix.param_);
  legacy.Update(*fix.rm_, fix.pool_.get());
  const size_t per_agent =
      sizeof(Agent*) + sizeof(uint32_t) + 4 * sizeof(real_t);
  EXPECT_GE(legacy.MemoryFootprint(), fix.rm_->GetNumAgents() * per_agent);
}

TEST(UniformGridTest, MemoryFootprintGrowsWithAgents) {
  EnvFixture fix;
  fix.AddRandomCells(100, 100, 10, 23);
  UniformGridEnvironment grid(fix.param_);
  grid.Update(*fix.rm_, fix.pool_.get());
  const size_t small = grid.MemoryFootprint();
  fix.AddRandomCells(10000, 100, 10, 29);
  grid.Update(*fix.rm_, fix.pool_.get());
  EXPECT_GT(grid.MemoryFootprint(), small);
}

// --- neighbor queries under concurrent movement (ctest label: tsan) ---------

// Behaviors query neighbors while other workers move, resize, divide and
// remove agents. Queries read only the Update-time snapshot, so a
// thread-sanitizer build must find no race here: cell_sorting steers every
// cell by its neighbors' positions, oncology reads its crowding count,
// makes a random move and then grows, divides or removes the cell.
class NeighborQueryUnderMovement
    : public ::testing::TestWithParam<std::string> {};

TEST_P(NeighborQueryUnderMovement, RegistryModelAtFourThreads) {
  const models::ModelInfo* model = models::FindModel(GetParam());
  ASSERT_NE(model, nullptr);
  Param param;
  param.num_threads = 4;
  if (model->configure != nullptr) {
    model->configure(&param);
  }
  Simulation sim("neighbor_query_race", param);
  model->build(&sim, 2000);
  ASSERT_GT(sim.GetResourceManager()->GetNumAgents(), 1000u);
  sim.Simulate(10);
  EXPECT_GT(sim.GetResourceManager()->GetNumAgents(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Models, NeighborQueryUnderMovement,
    ::testing::Values("cell_sorting", "oncology"),
    [](const ::testing::TestParamInfo<std::string>& info) { return info.param; });

// Runs after every environment update and checks each agent's entry of
// the count column against a per-agent count at its Update-time position.
class CountColumnCheckOp : public StandaloneOperation {
 public:
  explicit CountColumnCheckOp(real_t squared_radius)
      : StandaloneOperation("count_column_check", 1),
        squared_radius_(squared_radius) {}

  void Run(Simulation* sim) override {
    Environment* env = sim->GetEnvironment();
    if (auto* grid = dynamic_cast<UniformGridEnvironment*>(env)) {
      ++(grid->HalfStencilCovers(squared_radius_) ? symmetric_
                                                  : per_agent_);
    }
    const uint32_t* column = env->NeighborCountColumn(squared_radius_);
    if (column == nullptr) {
      ++unfilled_;
      return;
    }
    ++checked_;
    uint64_t row = 0;
    sim->GetResourceManager()->ForEachAgent([&](Agent* agent, AgentHandle) {
      uint32_t expected = 0;
      env->ForEachNeighbor(*agent, squared_radius_,
                           [&](const Environment::NeighborData&) {
                             ++expected;
                           });
      mismatches_ += column[row++] != expected ? 1 : 0;
    });
  }

  real_t squared_radius_;
  int unfilled_ = 0;
  int checked_ = 0;
  int symmetric_ = 0;
  int per_agent_ = 0;
  uint64_t mismatches_ = 0;
};

// The oncology model fills its crowding column while cells are born and
// die and behaviors read it on four workers (ctest label: tsan). The first
// iteration registers the radius; every later one must match per agent.
// On the grid the growing box length moves the crowding radius from the
// per-agent path to the symmetric pass during the run.
class NeighborCountColumnUnderChurn
    : public ::testing::TestWithParam<EnvironmentType> {};

TEST_P(NeighborCountColumnUnderChurn, OncologyAtFourThreads) {
  Param param;
  param.num_threads = 4;
  param.environment = GetParam();
  Simulation sim("count_column_churn", param);
  models::oncology::Config config;
  config.num_cells = 1500;
  config.spheroid_radius = 50;
  config.volume_growth_rate = 8000;
  models::oncology::Build(&sim, config);
  std::set<AgentUid> initial;
  sim.GetResourceManager()->ForEachAgent([&](Agent* agent, AgentHandle) {
    initial.insert(agent->GetUid());
  });
  auto check = std::make_unique<CountColumnCheckOp>(config.crowding_radius *
                                                    config.crowding_radius);
  CountColumnCheckOp* op = check.get();
  sim.GetScheduler()->AppendPreOp(std::move(check));
  sim.Simulate(20);
  EXPECT_EQ(op->unfilled_, 1);
  EXPECT_EQ(op->checked_, 19);
  EXPECT_EQ(op->mismatches_, 0u);
  size_t survivors = 0;
  size_t born = 0;
  sim.GetResourceManager()->ForEachAgent([&](Agent* agent, AgentHandle) {
    ++(initial.count(agent->GetUid()) > 0 ? survivors : born);
  });
  EXPECT_LT(survivors, initial.size());  // cells died
  EXPECT_GT(born, 0u);                   // cells were born
  if (GetParam() == EnvironmentType::kUniformGrid) {
    EXPECT_GT(op->per_agent_, 0);
    EXPECT_GT(op->symmetric_, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Environments, NeighborCountColumnUnderChurn,
                         ::testing::Values(EnvironmentType::kUniformGrid,
                                           EnvironmentType::kKdTree,
                                           EnvironmentType::kOctree),
                         EnvironmentName);

// --- pair traversal and count column, all environments ---------------------

// ForEachNeighborPair emits every unordered pair within the radius exactly
// once, from either endpoint: the grid's half stencil emits (owner,
// partner) with no order between the dense indices, the generic traversal
// (kd-tree, octree, the grid above its box length) a_index < b_index.
class NeighborPairContract : public ::testing::TestWithParam<EnvironmentType> {
};

TEST_P(NeighborPairContract, EachUnorderedPairComesOnce) {
  EnvFixture fix(4);
  fix.AddRandomCells(1500, 80, 10, 53);
  auto env = MakeEnvironment(fix.param_, GetParam());
  env->Update(*fix.rm_, fix.pool_.get());
  std::vector<Agent*> agents;
  fix.rm_->ForEachAgent([&](Agent* agent, AgentHandle) {
    agents.push_back(agent);
  });
  using AgentPair = std::pair<const Agent*, const Agent*>;
  const auto unordered = [](const Agent* a, const Agent* b) {
    return a < b ? AgentPair{a, b} : AgentPair{b, a};
  };
  // Radii below, at and above the box length (the largest diameter, 10).
  for (const real_t radius : {7.0, 10.0, 14.0}) {
    const real_t squared_radius = radius * radius;
    std::set<AgentPair> expected;
    for (size_t i = 0; i < agents.size(); ++i) {
      for (size_t j = i + 1; j < agents.size(); ++j) {
        if (agents[i]->GetPosition().SquaredDistance(
                agents[j]->GetPosition()) <= squared_radius) {
          expected.insert(unordered(agents[i], agents[j]));
        }
      }
    }
    std::vector<std::vector<AgentPair>> per_slab(
        fix.pool_->NumLogicalSlabs());
    env->ForEachNeighborPair(
        squared_radius, fix.pool_.get(),
        [&](const Environment::NeighborPair& pair, int slab) {
          per_slab[slab].push_back(unordered(pair.a, pair.b));
        });
    std::vector<AgentPair> emitted;
    for (const auto& slab : per_slab) {
      emitted.insert(emitted.end(), slab.begin(), slab.end());
    }
    std::sort(emitted.begin(), emitted.end());
    EXPECT_EQ(std::adjacent_find(emitted.begin(), emitted.end()),
              emitted.end())
        << "a pair came twice at radius " << radius;
    EXPECT_EQ(std::set<AgentPair>(emitted.begin(), emitted.end()), expected)
        << "radius " << radius;
  }
}

INSTANTIATE_TEST_SUITE_P(Environments, NeighborPairContract,
                         ::testing::Values(EnvironmentType::kUniformGrid,
                                           EnvironmentType::kKdTree,
                                           EnvironmentType::kOctree),
                         EnvironmentName);

/// Row of the agent at `handle`: the resource manager's domain-major order.
uint64_t RowOf(const ResourceManager& rm, AgentHandle handle) {
  uint64_t row = handle.index;
  for (int d = 0; d < handle.numa_domain; ++d) {
    row += rm.GetNumAgents(d);
  }
  return row;
}

// The count column holds, for every agent, the number of other agents
// within the radius of its Update-time position. Radii below and at the
// grid's box length take the grid's symmetric pass, the radius above it
// the per-agent path; the population spans interior and boundary boxes and
// two NUMA domains, so rows are not the dense order of the trees.
class NeighborCountColumn : public ::testing::TestWithParam<EnvironmentType> {
};

TEST_P(NeighborCountColumn, MatchesPerAgentCounts) {
  EnvFixture fix(4, 2);
  fix.param_.fixed_box_length = 10;
  fix.AddRandomCells(2000, 90, 8, 61);
  auto env = MakeEnvironment(fix.param_, GetParam());
  env->Update(*fix.rm_, fix.pool_.get());
  std::vector<std::pair<Agent*, AgentHandle>> agents;
  fix.rm_->ForEachAgent([&](Agent* agent, AgentHandle handle) {
    agents.emplace_back(agent, handle);
  });
  const std::vector<real_t> radii = {6.0, 10.0, 13.0};
  std::map<real_t, std::vector<uint32_t>> expected;
  for (const real_t radius : radii) {
    const real_t squared_radius = radius * radius;
    std::vector<uint32_t>& counts = expected[squared_radius];
    counts.assign(agents.size(), 0);
    for (const auto& [agent, handle] : agents) {
      for (const auto& [other, other_handle] : agents) {
        if (other != agent && other->GetPosition().SquaredDistance(
                                  agent->GetPosition()) <= squared_radius) {
          ++counts[RowOf(*fix.rm_, handle)];
        }
      }
    }
    // First requests register the radius and answer per agent.
    EXPECT_EQ(env->NeighborCountColumn(squared_radius), nullptr);
    for (const auto& [agent, handle] : agents) {
      ASSERT_EQ(env->CountNeighbors(*agent, handle, squared_radius),
                counts[RowOf(*fix.rm_, handle)])
          << "radius " << radius << " uid " << agent->GetUid();
    }
  }
  for (int update = 0; update < 2; ++update) {
    env->Update(*fix.rm_, fix.pool_.get());
    for (const real_t radius : radii) {
      EXPECT_EQ(env->NeighborCountColumn(radius * radius), nullptr);
    }
    env->FillNeighborCounts(fix.pool_.get());
    for (const real_t radius : radii) {
      const real_t squared_radius = radius * radius;
      const uint32_t* column = env->NeighborCountColumn(squared_radius);
      ASSERT_NE(column, nullptr) << "radius " << radius;
      EXPECT_EQ(std::vector<uint32_t>(column, column + agents.size()),
                expected[squared_radius])
          << "radius " << radius;
      for (const auto& [agent, handle] : agents) {
        ASSERT_EQ(env->CountNeighbors(*agent, handle, squared_radius),
                  expected[squared_radius][RowOf(*fix.rm_, handle)]);
      }
    }
  }
  if (GetParam() == EnvironmentType::kUniformGrid) {
    auto* grid = static_cast<UniformGridEnvironment*>(env.get());
    ASSERT_EQ(grid->GetBoxLength(), 10);
    const auto dims = grid->GetDimensions();
    EXPECT_GE(std::min({dims[0], dims[1], dims[2]}), 3);  // interior boxes
    EXPECT_TRUE(grid->HalfStencilCovers(100));
    EXPECT_FALSE(grid->HalfStencilCovers(169));
    // Legacy mode flattens its own mirror in the same domain-major order.
    fix.param_.soa_primary = false;
    UniformGridEnvironment legacy(fix.param_);
    legacy.Update(*fix.rm_, fix.pool_.get());
    for (const real_t radius : radii) {
      legacy.CountNeighbors(*agents[0].first, agents[0].second,
                            radius * radius);
    }
    legacy.FillNeighborCounts(fix.pool_.get());
    for (const real_t radius : radii) {
      const real_t squared_radius = radius * radius;
      const uint32_t* column = legacy.NeighborCountColumn(squared_radius);
      ASSERT_NE(column, nullptr) << "radius " << radius;
      EXPECT_EQ(std::vector<uint32_t>(column, column + agents.size()),
                expected[squared_radius])
          << "legacy mode, radius " << radius;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Environments, NeighborCountColumn,
                         ::testing::Values(EnvironmentType::kUniformGrid,
                                           EnvironmentType::kKdTree,
                                           EnvironmentType::kOctree),
                         EnvironmentName);

// The grid's symmetric pass adds with relaxed atomics, in an order the
// schedule decides; integer counts make the column identical at any thread
// count (ctest label: determinism).
TEST(NeighborCountColumnTest, IdenticalAtOneAndFourThreads) {
  const auto column = [](int threads, real_t squared_radius) {
    EnvFixture fix(threads);
    fix.AddRandomCells(20000, 160, 10, 67);
    UniformGridEnvironment grid(fix.param_);
    grid.Update(*fix.rm_, fix.pool_.get());
    Agent* first = fix.rm_->GetAgentVector(0)[0];
    grid.CountNeighbors(*first, AgentHandle{0, 0}, squared_radius);
    grid.FillNeighborCounts(fix.pool_.get());
    const uint32_t* counts = grid.NeighborCountColumn(squared_radius);
    return std::vector<uint32_t>(counts, counts + grid.DenseAgentCount());
  };
  for (const real_t radius : {8.0, 10.0, 12.0}) {
    const std::vector<uint32_t> reference = column(1, radius * radius);
    ASSERT_EQ(reference.size(), 20000u);
    EXPECT_GT(*std::max_element(reference.begin(), reference.end()), 0u);
    for (int run = 0; run < 3; ++run) {
      EXPECT_EQ(column(4, radius * radius), reference) << "radius " << radius;
    }
  }
}

TEST(EnvironmentNames, AreDistinct) {
  Param param;
  UniformGridEnvironment g(param);
  KdTreeEnvironment k(param);
  OctreeEnvironment o(param);
  std::set<std::string> names = {g.GetName(), k.GetName(), o.GetName()};
  EXPECT_EQ(names.size(), 3u);
}

}  // namespace
}  // namespace bdm
