// ShardedSimulation: TeraAgent-style spatial domain decomposition inside
// one process (the distribution layer of arXiv 2509.24063, collapsed onto
// the shared-memory engine of the PPoPP'23 paper).
//
// The simulation volume is split into S disjoint axis-aligned extents
// (spatial/shard_partition.h, Morton split order). Each shard is a complete
// Simulation -- own ResourceManager, environment, diffusion grids, scheduler
// -- but all shards share one NumaThreadPool, one MemoryManager, and one
// AgentUidGenerator (Simulation::SharedServices), so every shard's parallel
// phases use the whole machine and uids stay globally unique across shards.
//
// Per iteration:
//
//   1. Exchange (S > 1 only):
//        a. migrations out  -- owned agents whose position left the extent
//           are checkpoint-serialized and removed,
//        b. migrations in   -- appended to the new owner under fresh uids,
//        c. halo send       -- owned agents within one interaction radius of
//           a neighbor extent, delta-encoded (io/agent_record.h),
//        d. halo apply      -- ghosts updated/materialized/retired.
//      Migrations settle fully before any halo is scanned: a just-migrated
//      agent is published by its *new* owner in the same exchange, so both
//      sides of every boundary pair see bitwise-identical geometry and the
//      pairwise forces stay exactly antisymmetric (momentum conservation).
//      The per-agent scans of a and c (and the halo width's max-diameter
//      scan) run on the shared pool; the records are then written in
//      serial-scan order.
//   2. CheckShards audit (Param::audit_interval cadence): global uid
//      uniqueness, ghost<->owner bitwise agreement, ownership containment,
//      delta-codec symmetry, and agent-count conservation across the
//      exchange.
//   3. Each local shard steps one iteration (Scheduler::Simulate(1)) with
//      its simulation made active. Two or more local shards step
//      concurrently, one DagExecutor lane each, on disjoint worker teams
//      carved from the shared pool; a single local shard steps inline with
//      the whole pool and its op DAG. With S > 1 the per-shard schedulers
//      run WITHOUT their DiffusionOp -- behaviors deposit into the fields
//      but the fields do not advance yet.
//   4. Field halo exchange + field step (S > 1, diffusion grids present):
//      pending deposits that rounded into another shard's voxels are
//      forwarded bit-exact to the owner, then each internal shard face's
//      boundary voxel slabs are delta-encoded (io/field_record.h) and
//      applied into the neighbors' ghost planes; a field audit
//      (CheckShardFields, same audit_interval cadence) verifies bitwise
//      ghost/owner agreement and global mass conservation; then every grid
//      steps (grid->Step). Running the field step at the shard layer --
//      after ALL shards' behaviors deposited, before any ghost goes stale
//      -- reproduces the unsharded pipeline order exactly: deposits of
//      iteration i fold into the field before iteration i's stencil sweep.
//
// Each shard's grid is a shard-view window onto the GLOBAL voxel lattice
// (DiffusionGrid::InitializeShardView): the planes covering its extent plus
// `substeps + 2` ghost planes past every internal face. The stencil steps
// the ghost planes sacrificially -- invalidation creeps inward one plane per
// substep, so owned voxels (and the ghost depths concentration/gradient
// reads touch) stay bitwise equal to the unsharded sweep, and the exchange
// re-validates the whole ghost layer each iteration.
//
// With S == 1 all exchanges and audits are skipped entirely, DiffusionOp
// stays in the scheduler, and the loop degenerates to stepping the single
// wrapped simulation -- bench_shard verifies that this is bitwise identical
// to an unsharded run.
//
// All cross-shard bytes flow through the ShardTransport seam; swapping the
// in-process mailbox for a socket or MPI transport distributes this layer
// across nodes without touching the exchange logic.
#ifndef BDM_SHARD_SHARDED_SIMULATION_H_
#define BDM_SHARD_SHARDED_SIMULATION_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/op_dag.h"
#include "core/param.h"
#include "math/real3.h"
#include "numa/topology.h"
#include "shard/shard.h"
#include "shard/shard_transport.h"
#include "spatial/shard_partition.h"

namespace bdm {
class Agent;
class DiffusionGrid;
class MemoryManager;
class NumaThreadPool;
}  // namespace bdm

namespace bdm::shard {

class ShardedSimulation {
 public:
  /// Splits [lower, upper] into `num_shards` (power of two) uniform extents
  /// and builds one shard per extent. Performs the process-global
  /// observability setup (metrics slots, trace start) that a lone Simulation
  /// would do, exactly once for all shards.
  ShardedSimulation(const std::string& name, const Param& param,
                    const Real3& lower, const Real3& upper, int num_shards);
  /// Multi-process variant: this process owns shards [local_begin,
  /// local_end) of the same global partition and reaches the rest through
  /// `transport` (e.g. a SocketShardTransport whose rank owns that block).
  /// All phase loops run over the LOCAL shards only; transport->FinishPhase
  /// after every send loop keeps the ranks in phase lockstep. Audits that
  /// need a global view (CheckShards, CheckShardFields, conservation
  /// counts) are skipped unless every shard is local. Pass nullptr to get
  /// the in-process MailboxTransport.
  ShardedSimulation(const std::string& name, const Param& param,
                    const Real3& lower, const Real3& upper, int num_shards,
                    std::unique_ptr<ShardTransport> transport, int local_begin,
                    int local_end);
  ~ShardedSimulation();

  ShardedSimulation(const ShardedSimulation&) = delete;
  ShardedSimulation& operator=(const ShardedSimulation&) = delete;

  /// GLOBAL shard count (across all ranks).
  int NumShards() const { return num_shards_; }
  int NumLocalShards() const { return static_cast<int>(shards_.size()); }
  int LocalBegin() const { return local_begin_; }
  bool IsLocal(int s) const {
    return s >= local_begin_ && s < local_begin_ + NumLocalShards();
  }
  /// True when this process owns every shard (single-process run).
  bool AllLocal() const { return NumLocalShards() == num_shards_; }
  /// Shard by GLOBAL id; must be local (IsLocal).
  Shard* GetShard(int s) { return shards_[s - local_begin_].get(); }
  const Shard* GetShard(int s) const { return shards_[s - local_begin_].get(); }
  const std::vector<spatial::ShardExtent>& Extents() const { return extents_; }
  const Param& GetParam() const { return param_; }
  ShardTransport* GetTransport() { return transport_.get(); }

  /// Takes ownership and places the agent in the shard owning its position.
  /// In a multi-process run, agents whose position falls in a remote
  /// shard's extent are dropped (every rank feeds the same global initial
  /// population and keeps only its own block).
  void AddAgent(Agent* agent);

  /// Registers one grid per shard (`factory` is called once per shard; all
  /// instances must agree on resolution/coefficients). With S == 1 the grid
  /// spans the whole volume like an unsharded run. With S > 1 each shard
  /// receives a shard-view window onto the global lattice -- its owned
  /// voxel planes plus stencil-width ghost planes at every internal face --
  /// and the boundary slab geometry for the field halo exchange is
  /// registered with every shard.
  void AddDiffusionGrid(
      const std::function<std::unique_ptr<DiffusionGrid>()>& factory);

  /// Runs `iterations` steps of the exchange->audit->step loop above.
  void Simulate(uint64_t iterations);

  /// One exchange round outside the loop (test hook; Simulate calls this).
  void Exchange();

  /// One field exchange round: deposit forwarding + boundary slab halos
  /// (test hook; Simulate calls this after the shards' agent steps). Leaves
  /// FieldsFresh() true until StepFields consumes the ghost planes.
  void FieldExchange();

  /// Steps every shard's grids by Param::dt (the sharded engine's stand-in
  /// for the per-shard DiffusionOp removed from the schedulers).
  void StepFields();

  bool HasFields() const;
  /// True between FieldExchange and StepFields: ghost planes are freshly
  /// applied and CheckShardFields' bitwise/mass invariants are meaningful.
  bool FieldsFresh() const { return fields_fresh_; }
  /// Global owned mass of grid `grid_index` snapshotted at the start of the
  /// most recent FieldExchange (owned voxels plus not-yet-forwarded
  /// deposits); the exchange must conserve it to round-off.
  double ExpectedFieldMass(size_t grid_index) const {
    return expected_field_mass_[grid_index];
  }

  /// Owned/ghost agent totals over the LOCAL shards.
  uint64_t TotalOwned() const;
  uint64_t TotalGhosts() const;
  uint64_t Iteration() const { return iteration_; }
  /// Owned-agent count snapshot taken at the start of the most recent
  /// Exchange; the exchange must conserve it (birth/death during steps is
  /// legal, losing agents in the exchange is not).
  uint64_t ExpectedOwned() const { return expected_owned_; }

 private:
  /// Ghost coverage radius: the larger of Param::fixed_box_length (the
  /// neighbor-search radius every shard uses when set) and the global
  /// maximum agent diameter -- an agent larger than the box length reaches
  /// beyond one box of neighbors, so the box length alone would drop its
  /// boundary pairs. Globally max-reduced across ranks so every rank's
  /// halo zones agree.
  real_t HaloWidth();
  void RunFieldAudit(Simulation* previous);
  /// Steps every local shard for one iteration. A single local shard steps
  /// inline on the calling thread. Two or more step concurrently, one lane
  /// of shard_exec_ each, on disjoint worker teams sized proportional to
  /// the shards' owned populations (grow-only widened as shards finish
  /// early); blocks until all stepped and rethrows the first lane exception.
  void StepShards();

  std::string name_;
  Param param_;
  Real3 global_lower_;
  Real3 global_upper_;
  Topology topology_;
  std::unique_ptr<NumaThreadPool> pool_;
  std::unique_ptr<MemoryManager> memory_manager_;
  std::unique_ptr<AgentUidGenerator> uid_generator_;
  int num_shards_ = 1;
  int local_begin_ = 0;
  std::vector<spatial::ShardExtent> extents_;
  std::unique_ptr<ShardTransport> transport_;
  // Lane executor and its edgeless S-node DAG (null/empty with a single
  // local shard). Declared after pool_ so its lane threads join before the
  // pool tears down.
  std::unique_ptr<DagExecutor> shard_exec_;
  OpDag shard_dag_;
  // Declared after the services: shards (and the agents they own) are torn
  // down while the shared allocator and pool are still alive.
  std::vector<std::unique_ptr<Shard>> shards_;

  uint64_t iteration_ = 0;
  uint64_t expected_owned_ = 0;
  uint64_t reported_exchange_bytes_ = 0;

  bool fields_fresh_ = false;
  /// Per grid index: mass snapshot of the most recent FieldExchange.
  std::vector<double> expected_field_mass_;

  // obs/metrics.h slot ids (satellite counters of DESIGN.md Section 9).
  int halo_sent_id_ = -1;
  int migrations_id_ = -1;
  int exchange_bytes_id_ = -1;
  int ghost_gauge_id_ = -1;
  int field_halo_bytes_id_ = -1;
  int field_halo_planes_id_ = -1;
  int field_deposits_id_ = -1;
};

}  // namespace bdm::shard

#endif  // BDM_SHARD_SHARDED_SIMULATION_H_
