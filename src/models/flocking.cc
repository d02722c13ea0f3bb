#include "models/flocking.h"

#include <cmath>

#include "core/execution_context.h"
#include "core/resource_manager.h"
#include "core/simulation.h"
#include "env/environment.h"
#include "io/binary.h"
#include "io/checkpoint.h"
#include "models/common_behaviors.h"

namespace bdm::models::flocking {

void Boid::WriteState(std::ostream& out) const {
  Cell::WriteState(out);
  io::WriteReal3(out, velocity_);
}

void Boid::ReadState(std::istream& in) {
  Cell::ReadState(in);
  velocity_ = io::ReadReal3(in);
}

namespace {

class FlockingBehavior : public Behavior {
 public:
  FlockingBehavior() = default;
  explicit FlockingBehavior(const Config& config) : config_(config) {}

  void Run(Agent* agent, ExecutionContext* ctx) override {
    (void)ctx;
    auto* boid = static_cast<Boid*>(agent);
    auto* env = Simulation::GetActive()->GetEnvironment();

    Real3 separation{};
    Real3 alignment{};
    Real3 cohesion{};
    int neighbors = 0;
    const real_t r2 = config_.perception_radius * config_.perception_radius;
    const real_t sep2 = config_.separation_radius * config_.separation_radius;
    env->ForEachNeighbor(*agent, r2, [&](const Environment::NeighborData& nb) {
      ++neighbors;
      alignment += static_cast<Boid*>(nb.agent)->GetVelocity();
      cohesion += nb.position;
      const real_t d2 = nb.squared_distance;
      if (d2 < sep2 && d2 > kEpsilon) {
        // Push away, weighted by inverse distance.
        separation += (agent->GetPosition() - nb.position) / std::sqrt(d2);
      }
    });

    Real3 velocity = boid->GetVelocity();
    if (neighbors > 0) {
      const Real3 mean_velocity = alignment / static_cast<real_t>(neighbors);
      const Real3 center = cohesion / static_cast<real_t>(neighbors);
      velocity += separation * config_.separation_weight;
      velocity += (mean_velocity - velocity) * config_.alignment_weight;
      velocity += (center - agent->GetPosition()) * config_.cohesion_weight;
    }
    // Clamp speed to [max_speed / 2, max_speed]. The floor is the speed
    // boids start at (Reynolds boids never stall): without it, alignment's
    // averaging of random headings slows the flock to a crawl before it
    // polarizes.
    const real_t speed = velocity.Norm();
    const real_t min_speed = config_.max_speed / 2;
    if (speed > config_.max_speed) {
      velocity *= config_.max_speed / speed;
    } else if (speed > kEpsilon && speed < min_speed) {
      velocity *= min_speed / speed;
    } else if (speed < kEpsilon) {
      velocity = {config_.max_speed, 0, 0};
    }
    boid->SetVelocity(velocity);
    boid->SetPosition(boid->GetPosition() + velocity);
  }

  Behavior* NewCopy() const override { return new FlockingBehavior(*this); }

  void WriteState(std::ostream& out) const override {
    io::WriteScalar(out, config_);
  }
  void ReadState(std::istream& in) override {
    config_ = io::ReadScalar<Config>(in);
  }

 private:
  Config config_;
};

BDM_REGISTER_AGENT(Boid);
BDM_REGISTER_BEHAVIOR(FlockingBehavior);

}  // namespace

void Build(Simulation* sim, const Config& config) {
  auto* rm = sim->GetResourceManager();
  auto* random = sim->GetActiveExecutionContext()->random();
  for (uint64_t i = 0; i < config.num_boids; ++i) {
    auto* boid = new Boid(random->UniformPoint(0, config.space), config.diameter);
    boid->SetVelocity(random->UnitVector() * (config.max_speed / 2));
    boid->AddBehavior(new FlockingBehavior(config));
    boid->AddBehavior(new ReflectiveBounds(0, config.space));
    rm->AddAgent(boid);
  }
}

real_t Polarization(Simulation* sim) {
  Real3 sum{};
  uint64_t count = 0;
  sim->GetResourceManager()->ForEachAgent([&](Agent* agent, AgentHandle) {
    auto* boid = dynamic_cast<Boid*>(agent);
    if (boid != nullptr && boid->GetVelocity().SquaredNorm() > kEpsilon) {
      sum += boid->GetVelocity().Normalized();
      ++count;
    }
  });
  return count > 0 ? sum.Norm() / static_cast<real_t>(count) : real_t{0};
}

}  // namespace bdm::models::flocking
