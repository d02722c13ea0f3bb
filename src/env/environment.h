// Environment: the neighbor-search interface (paper Section 2).
//
// "BioDynaMo provides a common interface for different neighbor search
// algorithms called environment." Three implementations exist, matching the
// paper's Section 6.9 comparison: the optimized uniform grid, a kd-tree, and
// an octree. The scheduler rebuilds the environment at the beginning of
// every iteration (pre-standalone operation).
//
// Every query answers from the snapshot the environment indexed at that
// Update: a neighbor's position and diameter are never read from the live
// agent, only the querying agent's own position is. Behaviors that move
// agents mid-iteration therefore all see the iteration-start geometry of
// their neighbors, which no concurrent SetPosition can race with.
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
  /// One neighbor as the environment indexed it at the last Update. Every
  /// field but `agent` comes from that Update-time snapshot, so position,
  /// diameter and distance agree with each other even while behaviors move
  /// agents, and a consumer that needs only geometry never dereferences the
  /// neighbor `Agent*`. `agent` stays available for state outside the
  /// snapshot (cell type, staticness); `index` is its dense index
  /// (DenseAgents()[index] == agent).
  struct NeighborData {
    Agent* agent;
    uint32_t index;
    Real3 position;
    real_t diameter;
    real_t squared_distance;
  };
  using NeighborFn = FunctionRef<void(const NeighborData&)>;

  virtual ~Environment() = default;

  /// Rebuilds the search index from the current agent positions.
  virtual void Update(const ResourceManager& rm, NumaThreadPool* pool) = 0;

  /// Invokes `fn` for every agent other than `query` whose Update-time
  /// position lies within sqrt(squared_radius) of `query`'s current
  /// position.
  void ForEachNeighbor(const Agent& query, real_t squared_radius,
                       NeighborFn fn) const;

  /// Same search anchored at an arbitrary position (no self-exclusion).
  void ForEachNeighbor(const Real3& position, real_t squared_radius,
                       NeighborFn fn) const {
    Search(position, squared_radius, nullptr, fn);
  }

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

  /// Dense agent array of the last Update: DenseAgents()[i] is the agent
  /// with dense index i, valid until the next Update.
  virtual Agent* const* DenseAgents() const = 0;
  virtual uint64_t DenseAgentCount() const = 0;
  /// Snapshot entry of dense index i, as a query reports it (with
  /// squared_distance 0).
  virtual NeighborData DenseSnapshot(uint32_t i) const = 0;

  /// Visits every unordered agent pair within sqrt(squared_radius) exactly
  /// once, in parallel over the pool's workers (each worker owns a
  /// contiguous slab of dense indices a_index). Within a pair, a_index <
  /// b_index always holds. The base implementation searches around each
  /// slab agent's snapshot position and keeps only forward partners
  /// (kd-tree and octree use it); the uniform grid overrides it with the
  /// half-stencil box traversal that never tests a candidate twice.
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

 protected:
  /// The one neighbor search every query runs: invokes `fn` for every
  /// indexed agent other than `exclude` whose Update-time position lies
  /// within sqrt(squared_radius) of `position`.
  virtual void Search(const Real3& position, real_t squared_radius,
                      const Agent* exclude, NeighborFn fn) const = 0;
};

}  // namespace bdm

#endif  // BDM_ENV_ENVIRONMENT_H_
