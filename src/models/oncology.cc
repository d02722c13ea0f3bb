#include "models/oncology.h"

#include <cmath>

#include "core/cell.h"
#include "io/binary.h"
#include "io/checkpoint.h"
#include "core/execution_context.h"
#include "core/resource_manager.h"
#include "core/simulation.h"
#include "env/environment.h"
#include "models/common_behaviors.h"

namespace bdm::models::oncology {

namespace {

class TumorCellBehavior : public Behavior {
 public:
  TumorCellBehavior() = default;
  explicit TumorCellBehavior(const Config& config) : config_(config) {}

  void Run(Agent* agent, ExecutionContext* ctx) override {
    auto* cell = static_cast<Cell*>(agent);
    Random* random = ctx->random();

    const Real3 step = random->UnitVector() * config_.micro_motion_step;

    // Hypoxia is judged at the iteration-start position, before the
    // micro-step: crowded cells die with some probability and are removed.
    // The environment counts every cell's neighbors in one pass right after
    // its update; this reads the cell's own entry.
    auto* env = Simulation::GetActive()->GetEnvironment();
    const int neighbors = static_cast<int>(env->CountNeighbors(
        *agent, ctx->agent_handle(),
        config_.crowding_radius * config_.crowding_radius));

    // Random micro-motion.
    cell->SetPosition(cell->GetPosition() + step);

    if (neighbors > config_.crowding_threshold) {
      if (random->Bool(config_.death_probability)) {
        ctx->RemoveAgent(cell->GetUid());
        return;
      }
      return;  // hypoxic cells are quiescent: no growth
    }

    // Rim cells grow and divide.
    if (cell->GetDiameter() >= config_.division_diameter) {
      cell->Divide(ctx, random->UnitVector());
    } else {
      cell->ChangeVolume(config_.volume_growth_rate *
                         Simulation::GetActive()->GetParam().dt);
    }
  }

  Behavior* NewCopy() const override { return new TumorCellBehavior(*this); }

  void WriteState(std::ostream& out) const override {
    io::WriteScalar(out, config_);  // trivially copyable aggregate
  }
  void ReadState(std::istream& in) override {
    config_ = io::ReadScalar<Config>(in);
  }

 private:
  Config config_;
};

BDM_REGISTER_BEHAVIOR(TumorCellBehavior);

}  // namespace

void Build(Simulation* sim, const Config& config) {
  auto* rm = sim->GetResourceManager();
  auto* random = sim->GetActiveExecutionContext()->random();
  for (uint64_t i = 0; i < config.num_cells; ++i) {
    // Uniform sample inside the spheroid via rejection on the unit ball.
    Real3 p;
    do {
      p = random->UniformPoint(-1, 1);
    } while (p.SquaredNorm() > 1);
    auto* cell = new Cell(p * config.spheroid_radius, config.diameter);
    cell->AddBehavior(new TumorCellBehavior(config));
    rm->AddAgent(cell);
  }
}

}  // namespace bdm::models::oncology
