#include "models/epidemiology.h"

#include <algorithm>

#include "core/cell.h"
#include "io/binary.h"
#include "io/checkpoint.h"
#include "core/execution_context.h"
#include "core/resource_manager.h"
#include "core/simulation.h"
#include "env/environment.h"
#include "models/common_behaviors.h"

namespace bdm::models::epidemiology {

namespace {

/// SIR state machine; reads neighbor states through the environment index.
class SirBehavior : public Behavior {
 public:
  SirBehavior() = default;
  explicit SirBehavior(const Config& config)
      : infection_radius_(config.infection_radius),
        infection_probability_(config.infection_probability),
        recovery_time_(config.recovery_time) {}

  void Run(Agent* agent, ExecutionContext* ctx) override {
    auto* person = static_cast<Cell*>(agent);
    switch (person->GetCellType()) {
      case kInfected:
        if (++infected_for_ >= recovery_time_) {
          person->SetCellType(kRecovered);
        }
        break;
      case kSusceptible: {
        auto* env = Simulation::GetActive()->GetEnvironment();
        bool exposed = false;
        env->ForEachNeighbor(*agent, infection_radius_ * infection_radius_,
                             [&](const Environment::NeighborData& nb) {
                               exposed |= static_cast<Cell*>(nb.agent)
                                              ->GetCellType() == kInfected;
                             });
        if (exposed && ctx->random()->Bool(infection_probability_)) {
          person->SetCellType(kInfected);
        }
        break;
      }
      default:
        break;  // recovered agents stay recovered
    }
  }

  Behavior* NewCopy() const override { return new SirBehavior(*this); }

  void WriteState(std::ostream& out) const override {
    io::WriteScalar(out, infection_radius_);
    io::WriteScalar(out, infection_probability_);
    io::WriteScalar<int32_t>(out, recovery_time_);
    io::WriteScalar<int32_t>(out, infected_for_);
  }
  void ReadState(std::istream& in) override {
    infection_radius_ = io::ReadScalar<real_t>(in);
    infection_probability_ = io::ReadScalar<real_t>(in);
    recovery_time_ = io::ReadScalar<int32_t>(in);
    infected_for_ = io::ReadScalar<int32_t>(in);
  }

 private:
  real_t infection_radius_ = 10;
  real_t infection_probability_ = 0.25;
  int recovery_time_ = 50;
  int infected_for_ = 0;
};

BDM_REGISTER_BEHAVIOR(SirBehavior);

}  // namespace

void Build(Simulation* sim, const Config& config) {
  auto* rm = sim->GetResourceManager();
  auto* random = sim->GetActiveExecutionContext()->random();
  const Real3 center = {config.space / 2, config.space / 2, config.space / 2};
  for (uint64_t i = 0; i < config.num_persons; ++i) {
    Real3 position;
    if (random->Uniform() < config.urban_fraction) {
      // Dense cluster: gaussian blob around the center (load imbalance).
      const real_t sigma = config.space / 20;
      position = center + Real3{random->Gaussian(0, sigma),
                                random->Gaussian(0, sigma),
                                random->Gaussian(0, sigma)};
      for (int c = 0; c < 3; ++c) {
        position[c] = std::clamp<real_t>(position[c], 0, config.space);
      }
    } else {
      position = random->UniformPoint(0, config.space);
    }
    auto* person = new Cell(position, config.diameter);
    person->SetCellType(random->Uniform() < config.initial_infected_fraction
                            ? kInfected
                            : kSusceptible);
    person->AddBehavior(new SirBehavior(config));
    person->AddBehavior(new RandomWalk(config.step_length));
    person->AddBehavior(new ReflectiveBounds(0, config.space));
    rm->AddAgent(person);
  }
}

std::array<uint64_t, 3> CountStates(Simulation* sim) {
  std::array<uint64_t, 3> counts = {0, 0, 0};
  sim->GetResourceManager()->ForEachAgent([&](Agent* agent, AgentHandle) {
    const int state = static_cast<Cell*>(agent)->GetCellType();
    if (state >= 0 && state < 3) {
      ++counts[state];
    }
  });
  return counts;
}

}  // namespace bdm::models::epidemiology
