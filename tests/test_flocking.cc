#include "models/flocking.h"

#include <gtest/gtest.h>

#include "core/resource_manager.h"
#include "core/simulation.h"
#include "io/checkpoint.h"
#include "support/temp_path.h"

namespace bdm {
namespace {

Param FlockParam() {
  Param param;
  param.num_threads = 2;
  param.num_numa_domains = 1;
  param.agent_sort_frequency = 0;
  param.use_bdm_memory_manager = false;
  param.fixed_box_length = 30;  // match the perception radius
  return param;
}

TEST(FlockingTest, BoidVelocityState) {
  models::flocking::Boid boid({0, 0, 0}, 4);
  boid.SetVelocity({1, 2, 3});
  EXPECT_EQ(boid.GetVelocity(), (Real3{1, 2, 3}));
  // Copies keep the velocity (needed by the sorting operation).
  std::unique_ptr<Agent> copy(boid.NewCopy());
  EXPECT_EQ(static_cast<models::flocking::Boid*>(copy.get())->GetVelocity(),
            (Real3{1, 2, 3}));
}

TEST(FlockingTest, PolarizationOfRandomHeadingsIsLow) {
  Simulation sim("flock", FlockParam());
  models::flocking::Config config;
  config.num_boids = 500;
  models::flocking::Build(&sim, config);
  EXPECT_LT(models::flocking::Polarization(&sim), 0.2);
}

TEST(FlockingTest, FlockAligns) {
  Simulation sim("flock", FlockParam());
  models::flocking::Config config;
  config.num_boids = 400;
  config.space = 150;  // dense enough that neighborhoods overlap
  models::flocking::Build(&sim, config);
  const real_t before = models::flocking::Polarization(&sim);
  sim.Simulate(120);
  const real_t after = models::flocking::Polarization(&sim);
  EXPECT_GT(after, before + 0.3) << "flock failed to align";
}

TEST(FlockingTest, FlockStaysInsideBounds) {
  Simulation sim("flock", FlockParam());
  models::flocking::Config config;
  config.num_boids = 200;
  config.space = 120;
  models::flocking::Build(&sim, config);
  sim.Simulate(100);
  sim.GetResourceManager()->ForEachAgent([&](Agent* agent, AgentHandle) {
    for (int c = 0; c < 3; ++c) {
      // One max_speed step of slack: ReflectiveBounds runs after movement.
      EXPECT_GE(agent->GetPosition()[c], -config.max_speed);
      EXPECT_LE(agent->GetPosition()[c], config.space + config.max_speed);
    }
  });
}

TEST(FlockingTest, SpeedStaysClamped) {
  Simulation sim("flock", FlockParam());
  models::flocking::Config config;
  config.num_boids = 200;
  config.space = 120;
  models::flocking::Build(&sim, config);
  sim.Simulate(50);
  sim.GetResourceManager()->ForEachAgent([&](Agent* agent, AgentHandle) {
    auto* boid = static_cast<models::flocking::Boid*>(agent);
    EXPECT_LE(boid->GetVelocity().Norm(), config.max_speed * 1.0001);
  });
}

TEST(FlockingTest, CheckpointRoundTripKeepsVelocities) {
  const std::string path = test::TempPath("flock_ckpt.bin");
  real_t polarization_at_save = 0;
  {
    Simulation sim("flock", FlockParam());
    models::flocking::Config config;
    config.num_boids = 100;
    config.space = 100;
    models::flocking::Build(&sim, config);
    sim.Simulate(60);
    polarization_at_save = models::flocking::Polarization(&sim);
    io::Checkpoint::Save(&sim, path);
  }
  {
    Simulation sim("flock", FlockParam());
    io::Checkpoint::Load(&sim, path);
    // Velocities survived, so the order parameter is identical.
    EXPECT_NEAR(models::flocking::Polarization(&sim), polarization_at_save,
                1e-12);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace bdm
