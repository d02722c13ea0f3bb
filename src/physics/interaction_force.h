// Pairwise mechanical interaction force (paper Section 5).
//
// "By default, BioDynaMo uses the force calculation method detailed in the
// Cortex3D paper": spheres repel proportionally to their overlap and adhere
// weakly inside an attraction zone just beyond contact. The force is purely
// pairwise and radial, so Newton's third law holds and the static-agent
// conditions of Section 5 apply. Models with type-dependent adhesion (the
// Biocellion cell-sorting model) subclass and override the coefficients.
#ifndef BDM_PHYSICS_INTERACTION_FORCE_H_
#define BDM_PHYSICS_INTERACTION_FORCE_H_

#include "math/real3.h"

namespace bdm {

class Agent;

class InteractionForce {
 public:
  InteractionForce() = default;
  InteractionForce(real_t repulsion, real_t attraction, real_t attraction_range)
      : repulsion_(repulsion),
        attraction_(attraction),
        attraction_range_(attraction_range) {}
  virtual ~InteractionForce() = default;

  /// Force exerted on `lhs` by `rhs`. Returns the zero vector when the
  /// agents are out of interaction range. Convenience wrapper that reads
  /// position and diameter from the agents and forwards to the virtual
  /// geometry overload below.
  Real3 Calculate(const Agent* lhs, const Agent* rhs) const;

  /// The virtual core: positions and diameters are passed explicitly so hot
  /// callers (the mechanical-forces kernel fed by the environment's
  /// Update-time snapshot, see Environment::NeighborData) never re-read
  /// them through the Agent objects. The agent pointers remain available for
  /// non-geometric state (e.g. the AdhesionScale hook reads cell types).
  /// Force implementations override THIS overload.
  virtual Real3 Calculate(const Agent* lhs, const Real3& lhs_pos,
                          real_t lhs_diameter, const Agent* rhs,
                          const Real3& rhs_pos, real_t rhs_diameter) const;

  real_t repulsion() const { return repulsion_; }
  real_t attraction() const { return attraction_; }
  real_t attraction_range() const { return attraction_range_; }

 protected:
  /// Hook for type-dependent adhesion: scales the attractive part for this
  /// specific pair. The default is type-blind.
  virtual real_t AdhesionScale(const Agent* lhs, const Agent* rhs) const {
    (void)lhs;
    (void)rhs;
    return 1;
  }

 private:
  real_t repulsion_ = 2.0;
  /// Attraction coefficient inside the adhesion zone (Cortex3D uses a weak
  /// sqrt-shaped attraction; a linear ramp keeps the same sign structure).
  real_t attraction_ = 0.4;
  /// Width of the adhesion zone beyond sphere contact, as a fraction of the
  /// summed radii.
  real_t attraction_range_ = 0.1;
};

}  // namespace bdm

#endif  // BDM_PHYSICS_INTERACTION_FORCE_H_
