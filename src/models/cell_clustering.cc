#include "models/cell_clustering.h"

#include <memory>

#include "continuum/diffusion_grid.h"
#include "core/cell.h"
#include "core/resource_manager.h"
#include "core/simulation.h"
#include "env/environment.h"
#include "models/common_behaviors.h"

namespace bdm::models::clustering {

void Build(Simulation* sim, const Config& config) {
  auto* rm = sim->GetResourceManager();
  auto* random = sim->GetActiveExecutionContext()->random();

  const Real3 lower = {0, 0, 0};
  const Real3 upper = {config.space, config.space, config.space};
  DiffusionGrid* substances[2];
  substances[0] = sim->AddDiffusionGrid(
      std::make_unique<DiffusionGrid>("substance_0", config.diffusion_coefficient,
                                      config.decay, config.substance_resolution),
      lower, upper);
  substances[1] = sim->AddDiffusionGrid(
      std::make_unique<DiffusionGrid>("substance_1", config.diffusion_coefficient,
                                      config.decay, config.substance_resolution),
      lower, upper);

  for (uint64_t i = 0; i < config.num_cells; ++i) {
    const int type = static_cast<int>(i % 2);
    auto* cell = new Cell(random->UniformPoint(0, config.space), config.diameter);
    cell->SetCellType(type);
    cell->AddBehavior(new Secretion(substances[type], config.secretion_rate));
    cell->AddBehavior(new Chemotaxis(substances[type], config.chemotaxis_speed));
    rm->AddAgent(cell);
  }
}

real_t SameTypeNeighborFraction(Simulation* sim, real_t radius) {
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

}  // namespace bdm::models::clustering
