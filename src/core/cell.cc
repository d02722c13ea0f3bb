#include "core/cell.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "core/execution_context.h"
#include "core/param.h"
#include "env/environment.h"
#include "io/binary.h"
#include "physics/interaction_force.h"

namespace bdm {

namespace {
constexpr real_t kMinDiameter = 1e-2;
}  // namespace

real_t Cell::GetVolume() const {
  const real_t r = diameter_ * real_t{0.5};
  return real_t{4.0 / 3.0} * std::numbers::pi_v<real_t> * r * r * r;
}

void Cell::ChangeVolume(real_t delta) {
  const real_t volume = std::max<real_t>(GetVolume() + delta, 0);
  const real_t diameter =
      std::cbrt(volume * real_t{6} / std::numbers::pi_v<real_t>);
  SetDiameter(std::max(diameter, kMinDiameter));
}

Cell* Cell::Divide(ExecutionContext* ctx, const Real3& axis, real_t volume_ratio) {
  // Conservation of volume: mother keeps (1 - ratio), daughter gets ratio.
  const real_t mother_volume = GetVolume();
  const real_t daughter_volume = mother_volume * volume_ratio;

  auto* daughter = new Cell(*this);
  daughter->SetUid(AgentUid{});  // the copy must not share the mother's uid
  daughter->ClearBehaviors();
  CopyBehaviorsTo(daughter);

  const Real3 dir = axis.Normalized();
  const real_t offset = GetDiameter() * real_t{0.25};
  daughter->SetPosition(GetPosition() + dir * offset);
  SetPosition(GetPosition() - dir * offset);

  // Update volumes (SetDiameter handles the staticness flags).
  const real_t pi = std::numbers::pi_v<real_t>;
  daughter->SetDiameter(std::cbrt(daughter_volume * real_t{6} / pi));
  SetDiameter(std::cbrt((mother_volume - daughter_volume) * real_t{6} / pi));

  ctx->AddAgent(daughter);
  return daughter;
}

void Cell::WriteState(std::ostream& out) const {
  Agent::WriteState(out);
  io::WriteScalar(out, diameter_);
  io::WriteScalar<int32_t>(out, cell_type_);
}

void Cell::ReadState(std::istream& in) {
  Agent::ReadState(in);
  diameter_ = io::ReadScalar<real_t>(in);
  cell_type_ = io::ReadScalar<int32_t>(in);
}

Real3 Cell::CalculateDisplacement(const InteractionForce* force, Environment* env,
                                  const Param& param, int* non_zero_forces) {
  const real_t radius = env->GetInteractionRadius();
  const real_t squared_radius = radius * radius;
  Real3 total{};
  int non_zero = 0;
  // Neighbor position and diameter come from the environment's Update-time
  // snapshot, so the dominant kernel of an iteration never chases the
  // neighbor Agent* for geometry.
  const Real3& my_pos = GetPosition();
  const real_t my_diameter = GetDiameter();
  env->ForEachNeighbor(
      *this, squared_radius, [&](const Environment::NeighborData& nb) {
        const Real3 f = force->Calculate(this, my_pos, my_diameter, nb.agent,
                                         nb.position, nb.diameter);
        if (f.SquaredNorm() > 0) {
          ++non_zero;
          total += f;
        }
      });
  *non_zero_forces = non_zero;
  if (total.SquaredNorm() < param.force_threshold_squared) {
    return {0, 0, 0};
  }
  Real3 displacement = total * (param.dt / param.viscosity);
  const real_t norm = displacement.Norm();
  if (norm > param.max_displacement) {
    displacement *= param.max_displacement / norm;
  }
  return displacement;
}

}  // namespace bdm
