#include "models/cell_sorting.h"

#include <memory>

#include "core/cell.h"
#include "io/binary.h"
#include "io/checkpoint.h"
#include "core/resource_manager.h"
#include "core/simulation.h"
#include "env/environment.h"
#include "models/common_behaviors.h"

namespace bdm::models::cell_sorting {

namespace {

/// Differential-adhesion motility: cells drift toward their same-type
/// neighborhood and away from cross-type contacts (see Config comment).
class SameTypeAttraction : public Behavior {
 public:
  SameTypeAttraction() = default;
  SameTypeAttraction(real_t speed, real_t radius)
      : speed_(speed), radius_(radius) {}

  void Run(Agent* agent, ExecutionContext*) override {
    auto* cell = static_cast<Cell*>(agent);
    auto* sim = Simulation::GetActive();
    Real3 direction{};
    sim->GetEnvironment()->ForEachNeighbor(
        *agent, radius_ * radius_, [&](const Environment::NeighborData& nb) {
          const Real3 towards = nb.position - agent->GetPosition();
          const bool same = static_cast<Cell*>(nb.agent)->GetCellType() ==
                            cell->GetCellType();
          direction += same ? towards : -towards;
        });
    if (direction.SquaredNorm() > kEpsilon) {
      cell->SetPosition(cell->GetPosition() +
                        direction.Normalized() * (speed_ * sim->GetParam().dt));
    }
  }

  Behavior* NewCopy() const override { return new SameTypeAttraction(*this); }

  void WriteState(std::ostream& out) const override {
    io::WriteScalar(out, speed_);
    io::WriteScalar(out, radius_);
  }
  void ReadState(std::istream& in) override {
    speed_ = io::ReadScalar<real_t>(in);
    radius_ = io::ReadScalar<real_t>(in);
  }

 private:
  real_t speed_ = 20;
  real_t radius_ = 15;
};

BDM_REGISTER_BEHAVIOR(SameTypeAttraction);

}  // namespace

real_t AdhesiveForce::AdhesionScale(const Agent* lhs, const Agent* rhs) const {
  const auto* a = static_cast<const Cell*>(lhs);
  const auto* b = static_cast<const Cell*>(rhs);
  return a->GetCellType() == b->GetCellType() ? same_type_adhesion_ : real_t{1};
}

void Build(Simulation* sim, const Config& config) {
  sim->SetInteractionForce(
      std::make_unique<AdhesiveForce>(config.same_type_adhesion));
  auto* rm = sim->GetResourceManager();
  auto* random = sim->GetActiveExecutionContext()->random();
  for (uint64_t i = 0; i < config.num_cells; ++i) {
    auto* cell = new Cell(random->UniformPoint(0, config.space), config.diameter);
    cell->SetCellType(static_cast<int>(i % 2));
    // Micro-motion anneals the sorting (thermal fluctuation analogue).
    cell->AddBehavior(new RandomWalk(config.micro_motion_step));
    cell->AddBehavior(new SameTypeAttraction(config.attraction_speed,
                                             config.perception_radius));
    cell->AddBehavior(new ReflectiveBounds(0, config.space));
    rm->AddAgent(cell);
  }
}

real_t SortingIndex(Simulation* sim, real_t radius) {
  auto* rm = sim->GetResourceManager();
  auto* env = sim->GetEnvironment();
  env->Update(*rm, sim->GetThreadPool());
  double same = 0;
  double total = 0;
  rm->ForEachAgent([&](Agent* agent, AgentHandle) {
    auto* cell = static_cast<Cell*>(agent);
    env->ForEachNeighbor(
        *agent, radius * radius, [&](const Environment::NeighborData& nb) {
          total += 1;
          if (static_cast<Cell*>(nb.agent)->GetCellType() ==
              cell->GetCellType()) {
            same += 1;
          }
        });
  });
  return total > 0 ? static_cast<real_t>(same / total) : real_t{0};
}

}  // namespace bdm::models::cell_sorting
