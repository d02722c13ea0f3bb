#include "continuum/diffusion_grid.h"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>
#include <vector>

#include "core/cell.h"
#include "core/resource_manager.h"
#include "core/simulation.h"
#include "sched/numa_thread_pool.h"

namespace bdm {
namespace {

TEST(DiffusionGridTest, StartsAtZeroConcentration) {
  DiffusionGrid grid("s", 10, 0, 16);
  grid.Initialize({0, 0, 0}, {100, 100, 100});
  EXPECT_EQ(grid.GetConcentration({50, 50, 50}), 0);
  EXPECT_EQ(grid.GetNumVolumes(), 16 * 16 * 16);
}

TEST(DiffusionGridTest, DepositIsReadBack) {
  DiffusionGrid grid("s", 10, 0, 16);
  grid.Initialize({0, 0, 0}, {100, 100, 100});
  grid.IncreaseConcentrationBy({50, 50, 50}, 3.5);
  EXPECT_DOUBLE_EQ(grid.GetConcentration({50, 50, 50}), 3.5);
}

TEST(DiffusionGridTest, DepositsAccumulate) {
  DiffusionGrid grid("s", 10, 0, 16);
  grid.Initialize({0, 0, 0}, {100, 100, 100});
  grid.IncreaseConcentrationBy({50, 50, 50}, 1);
  grid.IncreaseConcentrationBy({50, 50, 50}, 2);
  EXPECT_DOUBLE_EQ(grid.GetConcentration({50, 50, 50}), 3);
}

TEST(DiffusionGridTest, MassConservedWithoutDecay) {
  NumaThreadPool pool(Topology(2, 1));
  DiffusionGrid grid("s", 50, 0, 16);
  grid.Initialize({0, 0, 0}, {100, 100, 100});
  grid.IncreaseConcentrationBy({50, 50, 50}, 100);
  auto total_mass = [&] {
    double total = 0;
    for (int64_t x = 0; x < 16; ++x) {
      for (int64_t y = 0; y < 16; ++y) {
        for (int64_t z = 0; z < 16; ++z) {
          const Real3 p = {x * 100.0 / 15, y * 100.0 / 15, z * 100.0 / 15};
          total += grid.GetConcentration(p);
        }
      }
    }
    return total;
  };
  const double before = total_mass();
  for (int i = 0; i < 20; ++i) {
    grid.Step(0.05, &pool);
  }
  // Zero-flux boundaries: total mass is invariant without decay.
  EXPECT_NEAR(total_mass(), before, before * 1e-9);
}

TEST(DiffusionGridTest, PeakSpreadsToNeighbors) {
  NumaThreadPool pool(Topology(2, 1));
  DiffusionGrid grid("s", 100, 0, 16);
  grid.Initialize({0, 0, 0}, {100, 100, 100});
  grid.IncreaseConcentrationBy({50, 50, 50}, 100);
  const real_t peak_before = grid.GetConcentration({50, 50, 50});
  grid.Step(0.1, &pool);
  EXPECT_LT(grid.GetConcentration({50, 50, 50}), peak_before);
  EXPECT_GT(grid.GetConcentration({57, 50, 50}), 0);
}

TEST(DiffusionGridTest, DecayReducesMass) {
  NumaThreadPool pool(Topology(1, 1));
  DiffusionGrid grid("s", 0, 0.5, 8);  // decay only, no diffusion
  grid.Initialize({0, 0, 0}, {10, 10, 10});
  grid.IncreaseConcentrationBy({5, 5, 5}, 10);
  grid.Step(0.1, &pool);
  // c *= (1 - 0.5*0.1)
  EXPECT_NEAR(grid.GetConcentration({5, 5, 5}), 10 * 0.95, 1e-9);
}

TEST(DiffusionGridTest, GradientPointsTowardPeak) {
  NumaThreadPool pool(Topology(2, 1));
  DiffusionGrid grid("s", 100, 0, 16);
  grid.Initialize({0, 0, 0}, {100, 100, 100});
  grid.IncreaseConcentrationBy({80, 50, 50}, 100);
  for (int i = 0; i < 10; ++i) {
    grid.Step(0.05, &pool);
  }
  // A probe left of the peak must see a positive x gradient.
  const Real3 g = grid.GetGradient({55, 50, 50});
  EXPECT_GT(g.x, 0);
  EXPECT_NEAR(g.y, 0, std::fabs(g.x));
}

TEST(DiffusionGridTest, GradientOfUniformFieldIsZero) {
  DiffusionGrid grid("s", 10, 0, 8);
  grid.Initialize({0, 0, 0}, {10, 10, 10});
  for (int x = 0; x < 8; ++x) {
    for (int y = 0; y < 8; ++y) {
      for (int z = 0; z < 8; ++z) {
        grid.IncreaseConcentrationBy(
            {x * 10.0 / 7, y * 10.0 / 7, z * 10.0 / 7}, 5);
      }
    }
  }
  const Real3 g = grid.GetGradient({5, 5, 5});
  EXPECT_NEAR(g.Norm(), 0, 1e-12);
}

TEST(DiffusionGridTest, StabilityUnderLargeTimestep) {
  // dt far above the explicit-Euler bound must still produce finite,
  // non-negative values (internal substepping).
  NumaThreadPool pool(Topology(2, 1));
  DiffusionGrid grid("s", 1000, 0.1, 12);
  grid.Initialize({0, 0, 0}, {50, 50, 50});
  grid.IncreaseConcentrationBy({25, 25, 25}, 1000);
  for (int i = 0; i < 5; ++i) {
    grid.Step(1.0, &pool);
  }
  for (int x = 0; x < 12; ++x) {
    const Real3 p = {x * 50.0 / 11, 25, 25};
    const real_t c = grid.GetConcentration(p);
    ASSERT_TRUE(std::isfinite(c));
    ASSERT_GE(c, -1e-9);
  }
}

TEST(DiffusionGridTest, SerialAndParallelAgree) {
  auto run = [](NumaThreadPool* pool) {
    DiffusionGrid grid("s", 80, 0.02, 16);
    grid.Initialize({0, 0, 0}, {100, 100, 100});
    grid.IncreaseConcentrationBy({30, 60, 50}, 100);
    for (int i = 0; i < 10; ++i) {
      grid.Step(0.05, pool);
    }
    std::vector<real_t> samples;
    for (int x = 0; x < 16; ++x) {
      samples.push_back(grid.GetConcentration({x * 100.0 / 15, 60, 50}));
    }
    return samples;
  };
  NumaThreadPool pool(Topology(4, 2));
  const auto parallel = run(&pool);
  const auto serial = run(nullptr);
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_DOUBLE_EQ(parallel[i], serial[i]);
  }
}

TEST(DiffusionGridTest, AbsorbingBoundaryLeaksMass) {
  NumaThreadPool pool(Topology(2, 1));
  DiffusionGrid grid("s", 100, 0, 8);
  grid.Initialize({0, 0, 0}, {10, 10, 10});
  grid.SetBoundaryCondition(DiffusionGrid::BoundaryCondition::kAbsorbing);
  grid.SetInitialValue([](const Real3&) { return 1.0; });
  auto total = [&] {
    double sum = 0;
    for (int x = 0; x < 8; ++x) {
      for (int y = 0; y < 8; ++y) {
        for (int z = 0; z < 8; ++z) {
          sum += grid.GetConcentration(
              {x * 10.0 / 7, y * 10.0 / 7, z * 10.0 / 7});
        }
      }
    }
    return sum;
  };
  const double before = total();
  grid.Step(0.01, &pool);
  EXPECT_LT(total(), before);  // substance leaves through the rim
}

TEST(DiffusionGridTest, SetInitialValueEvaluatesAtVoxelCenters) {
  DiffusionGrid grid("s", 10, 0, 4);
  grid.Initialize({0, 0, 0}, {3, 3, 3});  // voxel length 1
  grid.SetInitialValue([](const Real3& p) { return p.x; });
  EXPECT_DOUBLE_EQ(grid.GetConcentration({0, 0, 0}), 0);
  EXPECT_DOUBLE_EQ(grid.GetConcentration({2, 0, 0}), 2);
  EXPECT_DOUBLE_EQ(grid.GetConcentration({3, 3, 3}), 3);
}

TEST(DiffusionGridTest, GaussianSpreadMatchesAnalyticWidth) {
  // A point release under free diffusion acquires variance 2 D t per axis;
  // with closed boundaries and a short horizon the analytic law applies.
  NumaThreadPool pool(Topology(2, 1));
  const real_t diffusion = 200;
  DiffusionGrid grid("s", diffusion, 0, 33);
  grid.Initialize({0, 0, 0}, {100, 100, 100});
  grid.IncreaseConcentrationBy({50, 50, 50}, 1000);
  const real_t t = 0.5;
  for (int i = 0; i < 10; ++i) {
    grid.Step(t / 10, &pool);
  }
  // Measure the empirical variance along x through the center plane.
  double mass = 0;
  double second_moment = 0;
  for (int x = 0; x < 33; ++x) {
    const double pos = x * 100.0 / 32;
    const double c = grid.GetConcentration({pos, 50, 50});
    mass += c;
    second_moment += c * (pos - 50) * (pos - 50);
  }
  const double variance = second_moment / mass;
  EXPECT_NEAR(variance, 2 * diffusion * t, 2 * diffusion * t * 0.25);
}

// --- decay substep bound (regression) --------------------------------------

TEST(DiffusionGridTest, LargeDecayTimesDtStaysPhysical) {
  // decay * dt = 1.5 > 1: the seed kernel's decay factor 1 - decay*dt went
  // negative, flipping the field's sign every step. The bound dt <= 1/decay
  // now forces substepping (here: 2 substeps with factor 0.25).
  DiffusionGrid grid("s", 0, 7.5, 8);  // decay only, no diffusion
  grid.Initialize({0, 0, 0}, {10, 10, 10});
  grid.IncreaseConcentrationBy({5, 5, 5}, 8);
  real_t prev = grid.GetConcentration({5, 5, 5});
  EXPECT_DOUBLE_EQ(prev, 8);
  for (int i = 0; i < 4; ++i) {
    grid.Step(0.2, nullptr);
    const real_t c = grid.GetConcentration({5, 5, 5});
    EXPECT_GE(c, 0);       // never unphysical
    EXPECT_LE(c, prev);    // monotone decay, no oscillation
    prev = c;
  }
  EXPECT_LT(prev, 8 * 0.1);  // decay actually happened
}

// --- kernel equivalence -----------------------------------------------------

namespace kernel_ab {

std::vector<real_t> Run(DiffusionGrid::KernelMode mode, NumaThreadPool* pool,
                        DiffusionGrid::BoundaryCondition bc) {
  const int res = 20;
  DiffusionGrid grid("s", 120, 0.3, res);
  grid.SetKernelMode(mode);
  grid.SetBoundaryCondition(bc);
  grid.Initialize({0, 0, 0}, {100, 100, 100}, pool);
  grid.SetInitialValue(
      [](const Real3& p) {
        return std::sin(p.x * 0.13) + real_t{0.5} * std::cos(p.y * 0.07) +
               p.z * 0.01 + 1;
      },
      pool);
  for (int i = 0; i < 5; ++i) {
    grid.Step(0.25, pool);
  }
  std::vector<real_t> samples;
  const real_t h = grid.GetVoxelLength();
  for (int z = 0; z < res; ++z) {
    for (int y = 0; y < res; ++y) {
      for (int x = 0; x < res; ++x) {
        samples.push_back(grid.GetConcentration({x * h, y * h, z * h}));
      }
    }
  }
  return samples;
}

}  // namespace kernel_ab

TEST(DiffusionGridTest, PeeledKernelBitwiseMatchesBranchyReference) {
  NumaThreadPool pool(Topology(4, 2));
  for (auto bc : {DiffusionGrid::BoundaryCondition::kClosed,
                  DiffusionGrid::BoundaryCondition::kAbsorbing}) {
    const auto reference =
        kernel_ab::Run(DiffusionGrid::KernelMode::kBranchyReference, nullptr, bc);
    const auto peeled_serial =
        kernel_ab::Run(DiffusionGrid::KernelMode::kPeeledVectorized, nullptr, bc);
    const auto peeled_pool =
        kernel_ab::Run(DiffusionGrid::KernelMode::kPeeledVectorized, &pool, bc);
    ASSERT_EQ(reference.size(), peeled_serial.size());
    for (size_t i = 0; i < reference.size(); ++i) {
      // Bitwise equality: same expression, same association order.
      ASSERT_EQ(reference[i], peeled_serial[i]) << "voxel " << i;
      ASSERT_EQ(reference[i], peeled_pool[i]) << "voxel " << i;
    }
  }
}

TEST(DiffusionGridTest, EmptySlabsWhenThreadsExceedPlanes) {
  // More workers than z-planes: some slabs are empty, the barrier must
  // still complete and results must match the serial sweep.
  NumaThreadPool pool(Topology(8, 2));
  auto run = [&](NumaThreadPool* p) {
    DiffusionGrid grid("s", 60, 0, 3);
    grid.Initialize({0, 0, 0}, {10, 10, 10}, p);
    grid.IncreaseConcentrationBy({5, 5, 5}, 12);
    for (int i = 0; i < 3; ++i) {
      grid.Step(0.05, p);
    }
    std::vector<real_t> out;
    for (int x = 0; x < 3; ++x) {
      out.push_back(grid.GetConcentration({x * 5.0, 5, 5}));
    }
    return out;
  };
  const auto parallel = run(&pool);
  const auto serial = run(nullptr);
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_DOUBLE_EQ(parallel[i], serial[i]);
  }
}

// --- parallel SetInitialValue ----------------------------------------------

TEST(DiffusionGridTest, SetInitialValueParallelMatchesSerial) {
  NumaThreadPool pool(Topology(4, 2));
  auto field = [](const Real3& p) { return p.x * 2 + p.y * 0.5 - p.z; };
  DiffusionGrid parallel_grid("s", 10, 0, 16);
  parallel_grid.Initialize({0, 0, 0}, {30, 30, 30}, &pool);
  parallel_grid.SetInitialValue(field, &pool);
  DiffusionGrid serial_grid("s", 10, 0, 16);
  serial_grid.Initialize({0, 0, 0}, {30, 30, 30});
  serial_grid.SetInitialValue(field);
  const real_t h = serial_grid.GetVoxelLength();
  for (int z = 0; z < 16; ++z) {
    for (int y = 0; y < 16; ++y) {
      for (int x = 0; x < 16; ++x) {
        const Real3 p = {x * h, y * h, z * h};
        ASSERT_DOUBLE_EQ(parallel_grid.GetConcentration(p),
                         serial_grid.GetConcentration(p));
      }
    }
  }
}

// --- mass budget: closed + decay vs absorbing -------------------------------

TEST(DiffusionGridTest, ClosedBoundaryFollowsExactDecayLawAbsorbingLeaksMore) {
  // dt below both substep bounds -> exactly one substep, so the closed grid
  // must scale total mass by exactly (1 - decay*dt); the absorbing grid
  // additionally loses substance through the rim.
  const real_t decay = 0.4;
  const real_t dt = 0.1;
  auto make = [&](DiffusionGrid::BoundaryCondition bc) {
    auto grid = std::make_unique<DiffusionGrid>("s", 40, decay, 12);
    grid->SetBoundaryCondition(bc);
    grid->Initialize({0, 0, 0}, {60, 60, 60});
    grid->SetInitialValue(
        [](const Real3& p) { return 1 + 0.01 * p.x + 0.02 * p.y; });
    return grid;
  };
  auto mass = [](const DiffusionGrid& grid) {
    const real_t h = grid.GetVoxelLength();
    double total = 0;
    for (int z = 0; z < 12; ++z) {
      for (int y = 0; y < 12; ++y) {
        for (int x = 0; x < 12; ++x) {
          total += grid.GetConcentration({x * h, y * h, z * h});
        }
      }
    }
    return total;
  };
  auto closed = make(DiffusionGrid::BoundaryCondition::kClosed);
  auto absorbing = make(DiffusionGrid::BoundaryCondition::kAbsorbing);
  const double before = mass(*closed);
  ASSERT_DOUBLE_EQ(before, mass(*absorbing));
  closed->Step(dt, nullptr);
  absorbing->Step(dt, nullptr);
  const double expected = before * (1 - decay * dt);
  EXPECT_NEAR(mass(*closed), expected, std::abs(expected) * 1e-9);
  EXPECT_LT(mass(*absorbing), expected * (1 - 1e-6));
}

// --- concurrent deposits (tsan-labeled binary) ------------------------------

TEST(DiffusionGridTest, ConcurrentDepositsFlushLosslesslyThroughStep) {
  constexpr int kThreads = 4;
  constexpr int kDepositsPerThread = 1000;
  NumaThreadPool pool(Topology(kThreads, 2));
  DiffusionGrid grid("s", 0, 0, 16);  // identity stencil: pure flush check
  grid.Initialize({0, 0, 0}, {15, 15, 15}, &pool);
  pool.Run([&](int tid) {
    for (int k = 0; k < kDepositsPerThread; ++k) {
      // Overlapping targets across threads to stress the flush reduction.
      const real_t x = static_cast<real_t>((k + tid) % 16);
      const real_t y = static_cast<real_t>(k % 16);
      grid.IncreaseConcentrationBy({x, y, 7}, 0.5);
    }
  });
  grid.Step(0.1, &pool);  // parallel slab-partitioned flush
  double total = 0;
  for (int z = 0; z < 16; ++z) {
    for (int y = 0; y < 16; ++y) {
      for (int x = 0; x < 16; ++x) {
        total += grid.GetConcentration({static_cast<real_t>(x),
                                        static_cast<real_t>(y),
                                        static_cast<real_t>(z)});
      }
    }
  }
  // Powers of two sum exactly: nothing may be lost or double-applied.
  EXPECT_DOUBLE_EQ(total, kThreads * kDepositsPerThread * 0.5);
}

TEST(DiffusionGridTest, ConcurrentDepositsFlushLosslesslyThroughRead) {
  constexpr int kThreads = 4;
  constexpr int kDepositsPerThread = 500;
  NumaThreadPool pool(Topology(kThreads, 2));
  DiffusionGrid grid("s", 0, 0, 8);
  grid.Initialize({0, 0, 0}, {7, 7, 7}, &pool);
  pool.Run([&](int tid) {
    for (int k = 0; k < kDepositsPerThread; ++k) {
      grid.IncreaseConcentrationBy(
          {static_cast<real_t>((k + tid) % 8), 3, 3}, 0.25);
    }
  });
  // First out-of-pool read triggers the serial lazy flush.
  double total = 0;
  for (int x = 0; x < 8; ++x) {
    total += grid.GetConcentration({static_cast<real_t>(x), 3, 3});
  }
  EXPECT_DOUBLE_EQ(total, kThreads * kDepositsPerThread * 0.25);
}

// --- deposit fold order ------------------------------------------------------

/// A 4-thread simulation whose agents deposit through ForEachAgentParallel.
/// Small iteration blocks give work stealing many blocks to reorder.
struct DepositFixture {
  static constexpr int kAgents = 3000;
  Simulation sim{"deposit_order", [] {
                   Param param;
                   param.num_threads = 4;
                   param.iteration_block_size = 16;
                   return param;
                 }()};

  explicit DepositFixture(const std::function<Real3(int)>& position) {
    for (int i = 0; i < kAgents; ++i) {
      sim.GetResourceManager()->AddAgent(new Cell(position(i), 1));
    }
  }

  /// Amount agent i deposits: mixed signs, magnitudes from 2^-20 up to
  /// 1e16, so a voxel's sum depends on the order its deposits are added in.
  static real_t Amount(uint64_t i) {
    const real_t mantissa = 1 + static_cast<real_t>(i % 97) / 97;
    const real_t magnitude =
        i % 5 == 0 ? real_t{1e16} * mantissa
                   : std::ldexp(mantissa, static_cast<int>(i % 41) - 20);
    return i % 2 == 0 ? magnitude : -magnitude;
  }

  void DepositAll(DiffusionGrid* grid) {
    sim.GetResourceManager()->ForEachAgentParallel(
        [&](Agent* agent, AgentHandle handle, int) {
          grid->IncreaseConcentrationBy(agent->GetPosition(),
                                        Amount(handle.index));
        });
  }
};

TEST(DiffusionGridTest, OrderSensitiveDepositsFoldInDenseOrder) {
  DepositFixture fixture([](int) { return Real3{3, 3, 3}; });
  NumaThreadPool* pool = fixture.sim.GetThreadPool();
  ASSERT_EQ(pool->NumThreads(), 4);
  DiffusionGrid grid("s", 0, 0, 8);  // identity stencil: pure flush check
  grid.Initialize({0, 0, 0}, {7, 7, 7}, pool);
  // The serial fold in dense agent order, starting from an empty voxel.
  real_t expected = 0;
  for (uint64_t i = 0; i < DepositFixture::kAgents; ++i) {
    expected += DepositFixture::Amount(i);
  }
  for (int round = 0; round < 5; ++round) {
    // Serial flush on the first out-of-pool read.
    DiffusionGrid lazy("s", 0, 0, 8);
    lazy.Initialize({0, 0, 0}, {7, 7, 7}, pool);
    fixture.DepositAll(&lazy);
    EXPECT_EQ(lazy.GetConcentration({3, 3, 3}), expected) << round;
    // Slab-parallel flush at the start of Step.
    grid.SetInitialValue([](const Real3&) { return real_t{0}; }, pool);
    fixture.DepositAll(&grid);
    grid.Step(0.1, pool);
    EXPECT_EQ(grid.GetConcentration({3, 3, 3}), expected) << round;
  }
}

TEST(DiffusionGridTest, ShardViewOutboundDepositsKeepDenseOrder) {
  // A shard view owning x planes [0, 4) of an 8^3 lattice with 2 ghost
  // planes past x = 4; every agent deposits into a ghost voxel.
  DepositFixture fixture([](int i) {
    return Real3{static_cast<real_t>(4 + i % 2), static_cast<real_t>(i % 8),
                 static_cast<real_t>(i / 8 % 8)};
  });
  NumaThreadPool* pool = fixture.sim.GetThreadPool();
  const int64_t owned_lo[3] = {0, 0, 0};
  const int64_t owned_hi[3] = {4, 8, 8};
  const int64_t ghost_lo[3] = {0, 0, 0};
  const int64_t ghost_hi[3] = {2, 0, 0};
  // Deposits in dense agent order: the one order the flush may emit.
  std::vector<DiffusionGrid::OutboundDeposit> expected;
  fixture.sim.GetResourceManager()->ForEachAgent(
      [&](Agent* agent, AgentHandle handle) {
        const Real3& p = agent->GetPosition();
        expected.push_back({static_cast<int64_t>(p.x),
                            static_cast<int64_t>(p.y),
                            static_cast<int64_t>(p.z),
                            DepositFixture::Amount(handle.index)});
      });
  for (int round = 0; round < 5; ++round) {
    DiffusionGrid grid("s", 0, 0, 8);
    grid.InitializeShardView({0, 0, 0}, {7, 7, 7}, owned_lo, owned_hi,
                             ghost_lo, ghost_hi, pool);
    fixture.DepositAll(&grid);
    grid.FlushDeposits();
    const auto outbound = grid.DrainOutboundDeposits();
    ASSERT_EQ(outbound.size(), expected.size()) << round;
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(outbound[i].x, expected[i].x) << round << " #" << i;
      EXPECT_EQ(outbound[i].y, expected[i].y) << round << " #" << i;
      EXPECT_EQ(outbound[i].z, expected[i].z) << round << " #" << i;
      EXPECT_EQ(outbound[i].amount, expected[i].amount) << round << " #" << i;
    }
  }
}

TEST(DiffusionGridTest, DepositsBeyondOneLogChunkFoldInOrder) {
  // 10000 deposits from one thread fill several pooled log chunks; the
  // second flush cycle runs on chunks returned to the pool by the first.
  DiffusionGrid grid("s", 0, 0, 8);
  grid.Initialize({0, 0, 0}, {7, 7, 7});
  real_t expected = 0;
  for (int round = 0; round < 2; ++round) {
    for (uint64_t i = 0; i < 10000; ++i) {
      grid.IncreaseConcentrationBy({3, 3, 3}, DepositFixture::Amount(i));
      expected += DepositFixture::Amount(i);
    }
    EXPECT_EQ(grid.GetConcentration({3, 3, 3}), expected) << round;
  }
}

class DiffusionResolutionSweep : public ::testing::TestWithParam<int> {};

TEST_P(DiffusionResolutionSweep, VoxelIndexRoundTripsGridPoints) {
  const int res = GetParam();
  DiffusionGrid grid("s", 10, 0, res);
  grid.Initialize({0, 0, 0}, {100, 100, 100});
  EXPECT_EQ(grid.GetNumVolumes(), static_cast<int64_t>(res) * res * res);
  // Corner positions map to distinct voxels.
  EXPECT_NE(grid.VoxelIndex({0, 0, 0}), grid.VoxelIndex({100, 100, 100}));
}

INSTANTIATE_TEST_SUITE_P(Resolutions, DiffusionResolutionSweep,
                         ::testing::Values(2, 4, 8, 16, 33));

}  // namespace
}  // namespace bdm
