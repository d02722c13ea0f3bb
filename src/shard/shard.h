// Shard: one spatial partition of a ShardedSimulation.
//
// A shard wraps a full (non-owning) Simulation -- its own ResourceManager,
// environment, diffusion grids, scheduler, and execution contexts -- over a
// disjoint axis-aligned extent, running on the services (thread pool, memory
// manager, uid generator) shared by all shards of the process. On top of
// the wrapped simulation the shard keeps the exchange state:
//
//  * the ghost registry: (owner shard, owner uid) -> local uid of the
//    read-only halo copy living in this shard's ResourceManager (a *uid*,
//    not a pointer -- Morton sorting replaces agents with relocated
//    copies; keyed per owner shard because uid values are only unique
//    within one process),
//  * the symmetric delta-codec state (io/agent_record.h): per destination
//    the bits of every record sent in the previous exchange; per source the
//    receiver's copy of the same bits is the ghost registry itself (the
//    bits last applied to each halo copy). Sender and receiver keep exactly
//    the same keys, so the codec's "previous bits" can never diverge
//    (ConsistencyAudit::CheckShards verifies it). Both sides are updated in
//    place: an epoch stamp marks the entries reported in the current
//    exchange, and the unreported ones are swept afterwards -- "replace,
//    not merge", without rebuilding the maps every exchange.
//
// The four exchange phases are driven by ShardedSimulation::Exchange in
// lockstep across all shards (all migrations settle before any halo is
// scanned; see sharded_simulation.h for why the order matters). Each phase
// requires this shard's simulation to be the active one. The per-agent
// scans of phases 1 and 3 run on the shared pool, writing one result per
// agent; a serial walk in ForEachAgent order then writes the records, so
// message content and order are those of a serial scan. Messages are built
// in io::ByteWriter buffers and parsed with the bounds-checked
// io::ByteReader (io/binary.h).
#ifndef BDM_SHARD_SHARD_H_
#define BDM_SHARD_SHARD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/agent_uid.h"
#include "core/simulation.h"
#include "io/agent_record.h"
#include "spatial/shard_partition.h"

namespace bdm {
class DiffusionGrid;
}  // namespace bdm

namespace bdm::shard {

class ShardTransport;

class Shard {
 public:
  /// Ghost registry entry: where the halo copy lives locally and what was
  /// last applied to it. The bits are the receiver's delta-codec state and
  /// double as the "did it move" test that keeps unchanged ghosts from
  /// waking their neighbors every exchange.
  struct GhostEntry {
    AgentUid local_uid;
    int owner_shard = -1;
    io::HaloPrev bits;
    uint64_t epoch = 0;  // receive round that last reported this ghost
  };

  /// Sender-side delta-codec state of one uid published to one peer: the
  /// bits sent in the last exchange that reported it.
  struct SentEntry {
    io::HaloPrev bits;
    uint64_t epoch = 0;  // send round that last reported this uid
  };

  /// Counters accumulated across the exchange phases of one iteration
  /// (ShardedSimulation feeds them into the shard/* metrics).
  struct ExchangeStats {
    uint64_t migrations_out = 0;
    uint64_t migrations_in = 0;
    uint64_t halo_records_sent = 0;
  };

  /// One boundary voxel slab of one substance exchanged with one peer: for
  /// the send list the intersection of this shard's owned voxel box with
  /// the peer's grid window, for the receive list the intersection of this
  /// shard's window with the peer's owned box -- the SAME global box on
  /// both ends, so stream position identifies the voxel and no per-voxel
  /// key is sent. `prev` is the symmetric delta-codec state (one bit
  /// pattern per voxel, x-fastest order); on the receiver it doubles as the
  /// owner's current values whenever the sender skipped the slab as
  /// all-unchanged.
  struct FieldSlab {
    int peer = -1;
    uint32_t grid_index = 0;  // position in sim()->GetAllDiffusionGrids()
    DiffusionGrid* grid = nullptr;
    int64_t lo[3] = {0, 0, 0};  // global voxel box [lo, hi)
    int64_t hi[3] = {0, 0, 0};
    std::vector<uint64_t> prev;

    int64_t NumVoxels() const {
      return (hi[0] - lo[0]) * (hi[1] - lo[1]) * (hi[2] - lo[2]);
    }
  };

  /// Counters of one field exchange round.
  struct FieldStats {
    uint64_t deposits_forwarded = 0;  // cross-shard deposit records sent
    uint64_t halo_slabs_sent = 0;     // slab sections actually written
    uint64_t halo_voxels_sent = 0;    // voxels inside those sections
  };

  Shard(int id, int num_shards, const spatial::ShardExtent& extent,
        const std::string& name, const Param& param,
        const Simulation::SharedServices& services);

  int id() const { return id_; }
  const spatial::ShardExtent& extent() const { return extent_; }
  Simulation* sim() { return sim_.get(); }
  const Simulation* sim() const { return sim_.get(); }

  /// Live halo copies owned by other shards.
  uint64_t NumGhosts() const {
    uint64_t total = 0;
    for (const auto& per_src : ghosts_) {
      total += per_src.size();
    }
    return total;
  }
  /// Live agents this shard owns (total population minus ghosts).
  uint64_t NumOwned() const;

  /// Largest diameter among the owned agents (0 without any); a parallel
  /// scan on the shared pool.
  real_t MaxOwnedDiameter() const;

  /// Ghost registry, indexed by owner shard. Keyed per SOURCE because owner
  /// uids are only unique within one process: two ranks' generators issue
  /// the same uid values, so a flat uid-keyed map would collide ghosts from
  /// different owners in a multi-process run.
  const std::vector<std::unordered_map<AgentUid, GhostEntry>>& Ghosts() const {
    return ghosts_;
  }

  /// Sender delta-codec state, indexed by destination shard: owner uid ->
  /// bits last sent. After every exchange HaloSendState()[b] holds exactly
  /// the keys and bits of shard b's Ghosts()[id()].
  const std::vector<std::unordered_map<AgentUid, SentEntry>>& HaloSendState()
      const {
    return sent_;
  }

  // --- exchange phases -------------------------------------------------------
  // ShardedSimulation::Exchange calls these in order, phase-by-phase across
  // all shards; the caller must have made sim() the active simulation.

  /// Phase 1: serializes every owned agent whose position left this shard's
  /// extent (full checkpoint records -- type, geometry, behaviors -- in the
  /// checkpoint stream codec) into one message per destination shard, and
  /// removes the originals.
  void CollectMigrations(const std::vector<spatial::ShardExtent>& extents,
                         ShardTransport* transport, ExchangeStats* stats);

  /// Phase 2: drains pending migration messages and appends the agents to
  /// this shard's population under fresh (globally unique) uids.
  void ReceiveMigrations(ShardTransport* transport, ExchangeStats* stats);

  /// Phase 3: delta-encodes the geometry of every owned agent within
  /// `halo_width` of another shard's extent (face, edge, and corner
  /// neighbors alike) into one message per destination.
  void SendHalos(const std::vector<spatial::ShardExtent>& extents,
                 real_t halo_width, ShardTransport* transport,
                 ExchangeStats* stats);

  /// Phase 4: drains pending halo messages, updates existing ghosts in
  /// place (only when their bits actually changed), materializes new ones,
  /// and removes ghosts whose owner no longer reports them. Throws
  /// std::runtime_error on a message that overruns its bytes or has bytes
  /// left after its last record, std::logic_error on a wrong kind tag
  /// (the field phases F2 and F4 check their messages the same way).
  void ReceiveHalos(ShardTransport* transport);

  // --- field exchange phases -------------------------------------------------
  // Driven by ShardedSimulation::FieldExchange after all shards finished
  // their agent step of the iteration (behavior deposits are in), before
  // the field step -- so ghost planes carry the neighbor's post-deposit,
  // pre-step values, exactly what the unsharded Jacobi sweep reads.

  /// Registers the boundary slabs this shard exchanges (computed once per
  /// grid by ShardedSimulation::AddDiffusionGrid); appends to any slabs
  /// configured for earlier grids.
  void ConfigureFieldExchange(std::vector<FieldSlab> send,
                              std::vector<FieldSlab> recv);
  bool HasFieldExchange() const {
    return !field_send_.empty() || !field_recv_.empty();
  }
  const std::vector<FieldSlab>& FieldRecvSlabs() const { return field_recv_; }

  /// Phase F1: drains every grid's outbound ghost-voxel deposits and ships
  /// each to the shard owning the voxel (bit-exact amounts).
  void CollectFieldDeposits(ShardTransport* transport, FieldStats* stats);

  /// Phase F2: adds forwarded deposits into this shard's owned voxels.
  void ReceiveFieldDeposits(ShardTransport* transport);

  /// Phase F3: delta-encodes each send slab's current owned values against
  /// the previous exchange (io/field_record.h) into one message per peer;
  /// slabs (and whole messages) with no changed voxel are skipped.
  void SendFieldHalos(ShardTransport* transport, FieldStats* stats);

  /// Phase F4: decodes received slabs into the ghost planes. Receive slabs
  /// with no section this round are rewritten from the codec state (== the
  /// owner's unchanged values), so after this phase EVERY ghost voxel
  /// equals its owner's value bitwise, unconditionally.
  void ReceiveFieldHalos(ShardTransport* transport);

 private:
  int id_;
  spatial::ShardExtent extent_;
  std::unique_ptr<Simulation> sim_;

  /// ghosts_[src]: owner uid -> local halo copy (see Ghosts()); also the
  /// receiver's delta-codec state for src.
  std::vector<std::unordered_map<AgentUid, GhostEntry>> ghosts_;
  /// sent_[dst]: sender delta-codec state (see HaloSendState()). A missing
  /// message is an empty record set on both ends: every entry of the
  /// previous round then goes stale and is swept.
  std::vector<std::unordered_map<AgentUid, SentEntry>> sent_;
  /// Halo rounds sent / received so far; the epoch stamps of the entries
  /// reported in the current round.
  uint64_t send_epoch_ = 0;
  uint64_t recv_epoch_ = 0;

  /// Field boundary slabs, in (grid, peer) registration order. Sender and
  /// receiver lists pair up across shards by (peer, grid_index).
  std::vector<FieldSlab> field_send_;
  std::vector<FieldSlab> field_recv_;
};

}  // namespace bdm::shard

#endif  // BDM_SHARD_SHARD_H_
