#include "neuro/neurite_element.h"

#include <cmath>

#include "core/execution_context.h"
#include "core/param.h"
#include "env/environment.h"
#include "io/binary.h"
#include "physics/interaction_force.h"

namespace bdm::neuro {

void NeuriteElement::ElongateTerminalEnd(real_t speed, const Real3& direction,
                                         real_t dt) {
  // Blend the requested direction into the current axis; growth cones steer
  // gradually rather than turning on the spot.
  const Real3 new_axis =
      (spring_axis_ * real_t{0.8} + direction.Normalized() * real_t{0.2})
          .Normalized();
  // Anchor point first: it depends on the *old* axis and length.
  const Real3 proximal = GetProximalEnd();
  actual_length_ += speed * dt;
  resting_length_ = actual_length_;  // tips grow tension-free
  spring_axis_ = new_axis;
  SetPosition(proximal + spring_axis_ * actual_length_);
}

NeuriteElement* NeuriteElement::MakeDaughter(ExecutionContext* ctx,
                                             const Real3& direction) {
  auto* daughter = new NeuriteElement(*this);
  daughter->SetUid(AgentUid{});
  daughter->ClearBehaviors();
  daughter->mother_ = AgentPointer<Agent>(this);
  daughter->daughter_left_ = {};
  daughter->daughter_right_ = {};
  daughter->spring_axis_ = direction.Normalized();
  daughter->actual_length_ = real_t{0.5};
  daughter->resting_length_ = real_t{0.5};
  ctx->AddAgent(daughter);
  daughter->SetPosition(GetPosition() +
                        daughter->spring_axis_ * daughter->actual_length_);
  return daughter;
}

NeuriteElement* NeuriteElement::ProlongToDaughter(ExecutionContext* ctx) {
  if (!IsTerminal()) {
    return nullptr;
  }
  NeuriteElement* daughter = MakeDaughter(ctx, spring_axis_);
  daughter->branch_order_ = branch_order_;
  daughter_left_ = AgentPointer<NeuriteElement>(daughter->GetUid());
  return daughter;
}

void NeuriteElement::Bifurcate(ExecutionContext* ctx, real_t angle, Random* random,
                               NeuriteElement** left, NeuriteElement** right) {
  // Two directions tilted +-angle around a random axis perpendicular to the
  // current growth direction.
  Real3 perp = Perpendicular(spring_axis_);
  const real_t rot = random->Uniform(0, 2 * real_t{3.14159265358979});
  const Real3 perp2 = spring_axis_.Cross(perp).Normalized();
  perp = (perp * std::cos(rot) + perp2 * std::sin(rot)).Normalized();
  const real_t c = std::cos(angle);
  const real_t s = std::sin(angle);
  const Real3 dir_left = (spring_axis_ * c + perp * s).Normalized();
  const Real3 dir_right = (spring_axis_ * c - perp * s).Normalized();

  *left = MakeDaughter(ctx, dir_left);
  *right = MakeDaughter(ctx, dir_right);
  (*left)->branch_order_ = branch_order_ + 1;
  (*right)->branch_order_ = branch_order_ + 1;
  daughter_left_ = AgentPointer<NeuriteElement>((*left)->GetUid());
  daughter_right_ = AgentPointer<NeuriteElement>((*right)->GetUid());
}

Real3 NeuriteElement::CalculateDisplacement(const InteractionForce* force,
                                            Environment* env, const Param& param,
                                            int* non_zero_forces) {
  Real3 total{};
  int non_zero = 0;

  // Spring along the axis: restores the resting length against stretching
  // introduced by displacement of either end (Cortex3D mechanics).
  if (resting_length_ > kEpsilon) {
    const real_t strain = (actual_length_ - resting_length_) / resting_length_;
    const Real3 spring_force = spring_axis_ * (-spring_constant_ * strain);
    if (spring_force.SquaredNorm() > 0) {
      total += spring_force;
      ++non_zero;
    }
  }

  // Collision forces with unrelated neighbors (sphere approximation at the
  // distal point). Mother and daughters are mechanically coupled through
  // the spring and are excluded from the collision term.
  const real_t radius = env->GetInteractionRadius();
  Agent* mother = mother_.Get();
  Agent* left = daughter_left_.GetUid().IsValid()
                    ? static_cast<Agent*>(daughter_left_.Get())
                    : nullptr;
  Agent* right = daughter_right_.GetUid().IsValid()
                     ? static_cast<Agent*>(daughter_right_.Get())
                     : nullptr;
  const Real3& my_pos = GetPosition();
  const real_t my_diameter = GetDiameter();
  env->ForEachNeighbor(
      *this, radius * radius, [&](const Environment::NeighborData& nb) {
        if (nb.agent == mother || nb.agent == left || nb.agent == right) {
          return;
        }
        const Real3 f = force->Calculate(this, my_pos, my_diameter, nb.agent,
                                         nb.position, nb.diameter);
        if (f.SquaredNorm() > 0) {
          total += f;
          ++non_zero;
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

void NeuriteElement::WriteState(std::ostream& out) const {
  Agent::WriteState(out);
  io::WriteScalar(out, diameter_);
  io::WriteScalar(out, actual_length_);
  io::WriteScalar(out, resting_length_);
  io::WriteScalar(out, spring_constant_);
  io::WriteScalar<int32_t>(out, branch_order_);
  io::WriteReal3(out, spring_axis_);
  io::WriteScalar(out, mother_.GetUid());
  io::WriteScalar(out, daughter_left_.GetUid());
  io::WriteScalar(out, daughter_right_.GetUid());
}

void NeuriteElement::ReadState(std::istream& in) {
  Agent::ReadState(in);
  diameter_ = io::ReadScalar<real_t>(in);
  actual_length_ = io::ReadScalar<real_t>(in);
  resting_length_ = io::ReadScalar<real_t>(in);
  spring_constant_ = io::ReadScalar<real_t>(in);
  branch_order_ = io::ReadScalar<int32_t>(in);
  spring_axis_ = io::ReadReal3(in);
  mother_ = AgentPointer<Agent>(io::ReadScalar<AgentUid>(in));
  daughter_left_ = AgentPointer<NeuriteElement>(io::ReadScalar<AgentUid>(in));
  daughter_right_ = AgentPointer<NeuriteElement>(io::ReadScalar<AgentUid>(in));
}

void NeuriteElement::ApplyDisplacement(const Real3& displacement,
                                       const Param& param) {
  (void)param;
  const Real3 proximal = GetProximalEnd();
  SetPosition(GetPosition() + displacement);
  const Real3 new_axis = GetPosition() - proximal;
  actual_length_ = std::max(new_axis.Norm(), kEpsilon);
  spring_axis_ = new_axis / actual_length_;
}

}  // namespace bdm::neuro
