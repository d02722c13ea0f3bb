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

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "core/agent_handle.h"
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
  /// what the pair-symmetric force engine keys its force rows on.
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
  /// Pair callback; the int is the logical slab (NumaThreadPool::
  /// RunLogicalSlabs) that emitted the pair, the one holding a_index. It
  /// selects the caller's per-slab buffers and is NOT the id of the
  /// executing worker: one worker runs a contiguous run of slabs.
  using NeighborPairFn = FunctionRef<void(const NeighborPair&, int)>;

  /// Dense agent array of the last Update: DenseAgents()[i] is the agent
  /// with dense index i, valid until the next Update.
  virtual Agent* const* DenseAgents() const = 0;
  virtual uint64_t DenseAgentCount() const = 0;
  /// Snapshot entry of dense index i, as a query reports it (with
  /// squared_distance 0).
  virtual NeighborData DenseSnapshot(uint32_t i) const = 0;

  /// Visits every unordered agent pair within sqrt(squared_radius) exactly
  /// once, in parallel over the dense range's logical slabs: a slab's pairs
  /// have their a_index in it and come in the slab's walk order on one
  /// worker. `a` is the endpoint whose scan emitted the pair; no order
  /// between a_index and b_index is promised. The base implementation searches around each slab agent's
  /// snapshot position and keeps only partners with a larger dense index
  /// (kd-tree and octree use it, so there a_index < b_index); the uniform
  /// grid overrides it with the half-stencil box traversal that never tests
  /// a candidate twice and emits (owner, partner), where the partner of an
  /// own-box pair is the earlier-inserted agent and may have the smaller
  /// index.
  virtual void ForEachNeighborPair(real_t squared_radius, NumaThreadPool* pool,
                                   NeighborPairFn fn) const;

  /// Number of agents other than the agent at `handle` whose Update-time
  /// position lies within sqrt(squared_radius) of that agent's Update-time
  /// position -- what ForEachNeighbor(query, squared_radius) reports before
  /// the agent moves. `handle` is the resource-manager handle of `query`
  /// (ExecutionContext::agent_handle() in a behavior); with an invalid
  /// handle the search runs from query's current position. A radius is
  /// registered on its first request, which a per-agent search answers;
  /// after every later Update, FillNeighborCounts computes the counts of
  /// every registered radius for all agents at once and this call reads the
  /// agent's entry. Safe to call concurrently from behaviors.
  uint32_t CountNeighbors(const Agent& query, AgentHandle handle,
                          real_t squared_radius);

  /// Fills the count column of every radius registered so far; the
  /// environment update operation calls it right after Update. The columns
  /// stay valid until the next Update.
  void FillNeighborCounts(NumaThreadPool* pool);

  /// The count column of `squared_radius` filled at this Update, indexed by
  /// row (the resource manager's domain-major order: the row of handle h is
  /// the number of agents in domains below h.numa_domain plus h.index), or
  /// nullptr when no column of that radius is filled.
  const uint32_t* NeighborCountColumn(real_t squared_radius) const;

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

  /// Writes every row's neighbor count at `squared_radius` into
  /// counts[0, rows). The base implementation runs one Search per agent
  /// from its snapshot position, in parallel and without atomics; the
  /// uniform grid overrides it with one symmetric pair pass for radii up to
  /// its box length.
  virtual void CountAllNeighbors(real_t squared_radius, NumaThreadPool* pool,
                                 uint32_t* counts) const;

  /// Every Update starts here: records the row offset of each of rm's
  /// domains and invalidates the count columns of the previous Update.
  void BeginUpdate(const ResourceManager& rm);

  /// For indexes whose dense order differs from the row order (kd-tree,
  /// octree), called at the end of Update: records each row's dense index.
  void MapRowsToDense(const ResourceManager& rm);

 private:
  /// Dense index of `row` at the last Update.
  uint32_t DenseIndexOfRow(uint64_t row) const {
    return dense_of_row_.empty() ? static_cast<uint32_t>(row)
                                 : dense_of_row_[row];
  }
  /// Number of agents other than `exclude` that Search reports.
  uint32_t CountAround(const Real3& position, real_t squared_radius,
                       const Agent* exclude) const;
  /// Neighbor count of `row`'s agent around its snapshot position.
  uint32_t CountAtRow(uint64_t row, real_t squared_radius) const;
  /// Index of `squared_radius` among the first `columns` count columns, or
  /// `columns` when it is not among them.
  int FindCountRadius(real_t squared_radius, int columns) const;
  /// Appends `squared_radius` to the registered radii unless it is there
  /// already or kMaxCountRadii are.
  void RegisterCountRadius(real_t squared_radius);

  /// Radii a count column can be kept for; further radii are answered by
  /// per-agent searches.
  static constexpr int kMaxCountRadii = 4;
  struct CountColumn {
    real_t squared_radius = 0;
    std::vector<uint32_t> counts;  // indexed by row
  };
  /// Columns [0, num_count_radii_) are registered; a behavior appends one
  /// under count_radii_mutex_ and publishes it by the release store, so
  /// readers scan the radii without the lock.
  std::array<CountColumn, kMaxCountRadii> count_columns_;
  std::atomic<int> num_count_radii_{0};
  std::mutex count_radii_mutex_;
  /// Columns [0, num_filled_columns_) hold this Update's counts.
  int num_filled_columns_ = 0;
  /// row_offset_[d] is the row of domain d's first agent; the last entry is
  /// the number of rows.
  std::vector<uint64_t> row_offset_;
  /// Empty when dense index == row (uniform grid).
  std::vector<uint32_t> dense_of_row_;
};

}  // namespace bdm

#endif  // BDM_ENV_ENVIRONMENT_H_
