// Environment: the neighbor-search interface (paper Section 2).
//
// "BioDynaMo provides a common interface for different neighbor search
// algorithms called environment." Three implementations exist, matching the
// paper's Section 6.9 comparison: the optimized uniform grid, a kd-tree, and
// an octree. The scheduler rebuilds the environment at the beginning of
// every iteration (pre-standalone operation).
#ifndef BDM_ENV_ENVIRONMENT_H_
#define BDM_ENV_ENVIRONMENT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/function_ref.h"
#include "math/real.h"
#include "math/real3.h"

namespace bdm {

class Agent;
class ResourceManager;
class NumaThreadPool;

class Environment {
 public:
  /// Callback invoked once per neighbor with the neighbor agent and the
  /// squared distance between the query position and the neighbor position.
  using NeighborFn = FunctionRef<void(Agent*, real_t)>;

  /// Neighbor attributes served from the environment's own index storage.
  /// The uniform grid fills position/diameter from its SoA mirror, so a
  /// consumer that only needs geometry never dereferences the neighbor
  /// `Agent*` (one dependent cache miss per neighbor avoided). `agent` is
  /// still provided for state outside the mirror (cell type, staticness).
  struct NeighborData {
    Agent* agent;
    Real3 position;
    real_t diameter;
    real_t squared_distance;
  };
  using NeighborDataFn = FunctionRef<void(const NeighborData&)>;

  virtual ~Environment() = default;

  /// Rebuilds the search index from the current agent positions.
  virtual void Update(const ResourceManager& rm, NumaThreadPool* pool) = 0;

  /// Invokes `fn` for every agent (excluding `query` itself) whose position
  /// is within sqrt(squared_radius) of `query`'s position.
  virtual void ForEachNeighbor(const Agent& query, real_t squared_radius,
                               NeighborFn fn) const = 0;

  /// Same search anchored at an arbitrary position (no self-exclusion).
  virtual void ForEachNeighbor(const Real3& position, real_t squared_radius,
                               NeighborFn fn) const = 0;

  /// Index-aware variant of ForEachNeighbor for hot consumers (the
  /// mechanical-forces kernel): neighbor position and diameter come bundled
  /// in NeighborData. The base implementation forwards to ForEachNeighbor
  /// and reads both from the agent (kd-tree and octree use it); the uniform
  /// grid overrides it to serve them from its SoA mirror instead.
  virtual void ForEachNeighborData(const Agent& query, real_t squared_radius,
                                   NeighborDataFn fn) const;

  /// One unordered agent pair emitted by ForEachNeighborPair. The indices
  /// address the environment's dense agent array (DenseAgents()), which is
  /// what the pair-symmetric force engine keys its force shards on.
  struct NeighborPair {
    uint32_t a_index;
    uint32_t b_index;
    Agent* a;
    Agent* b;
    Real3 a_position;
    Real3 b_position;
    real_t a_diameter;
    real_t b_diameter;
    real_t squared_distance;
  };
  /// Pair callback; the int is the index of the traversal slab that emitted
  /// the pair (selects the caller's per-slab accumulator). It is NOT the id
  /// of the executing worker: under a partial team one worker runs several
  /// slabs.
  using NeighborPairFn = FunctionRef<void(const NeighborPair&, int)>;

  /// Dense agent array backing the pair traversal: DenseAgents()[i] is the
  /// agent with dense index i, valid until the next Update. Returns nullptr
  /// when the environment exposes no dense index (consumers must then fall
  /// back to per-agent iteration).
  virtual Agent* const* DenseAgents() const { return nullptr; }
  virtual uint64_t DenseAgentCount() const { return 0; }

  /// Visits every unordered agent pair within sqrt(squared_radius) exactly
  /// once, in parallel over the pool's workers (each worker owns a
  /// contiguous slab of dense indices a_index). Within a pair, a_index <
  /// b_index always holds. The base implementation runs each slab agent's
  /// ForEachNeighbor and keeps only forward partners (kd-tree and octree
  /// use it); the uniform grid overrides it with the half-stencil box
  /// traversal that never tests a candidate twice.
  virtual void ForEachNeighborPair(real_t squared_radius, NumaThreadPool* pool,
                                   NeighborPairFn fn) const;

  /// Default interaction radius: derived from the largest agent diameter
  /// observed during the last Update. The mechanical-forces operation uses
  /// its square as the search radius.
  virtual real_t GetInteractionRadius() const = 0;

  /// Lower and upper corner of the axis-aligned bounding box of all agents
  /// seen at the last Update.
  virtual Real3 GetLowerBound() const = 0;
  virtual Real3 GetUpperBound() const = 0;

  /// Approximate heap footprint of the index in bytes (Figure 11, bottom).
  virtual size_t MemoryFootprint() const = 0;

  virtual std::string GetName() const = 0;

  /// ConsistencyAudit hook: appends one human-readable line per
  /// inconsistency between the environment's internal index and the
  /// resource manager's current state. Must run on a quiesced simulation
  /// right after Update (before behaviors move agents). The base
  /// implementation checks nothing; indexes with persistent per-iteration
  /// state (the uniform grid's SoA mirror and box chains) override it.
  virtual void AuditConsistency(const ResourceManager&,
                                std::vector<std::string>*) const {}
};

}  // namespace bdm

#endif  // BDM_ENV_ENVIRONMENT_H_
