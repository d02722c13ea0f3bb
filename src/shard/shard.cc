#include "shard/shard.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "continuum/diffusion_grid.h"
#include "core/resource_manager.h"
#include "io/binary.h"
#include "io/checkpoint.h"
#include "io/field_record.h"
#include "sched/numa_thread_pool.h"
#include "shard/ghost_agent.h"
#include "shard/shard_transport.h"

namespace bdm::shard {

namespace {

// Message kind tags. The phase lockstep already guarantees that only one
// kind is in flight at a time; the tag turns a future ordering bug into an
// immediate error instead of silent record misparsing.
constexpr uint8_t kMigrationMsg = 1;
constexpr uint8_t kHaloMsg = 2;
constexpr uint8_t kFieldDepositMsg = 3;
constexpr uint8_t kFieldHaloMsg = 4;

void CheckKind(uint8_t kind, uint8_t expected) {
  if (kind != expected) {
    throw std::logic_error("shard exchange: unexpected message kind " +
                           std::to_string(kind) + " (expected " +
                           std::to_string(expected) + ")");
  }
}

/// Runs `fn(agent, i, tid)` on the pool for every agent of `rm`, where i is
/// the agent's position in ForEachAgent order (domain by domain) -- so a
/// serial walk over per-agent results written at [i] visits them in the
/// order of a serial scan -- and tid the executing worker.
template <typename Fn>
void ParallelAgentScan(const ResourceManager& rm, NumaThreadPool* pool,
                       const Fn& fn) {
  // The scans read two cache lines of agents scattered over the heap;
  // prefetching a few agents ahead overlaps those misses.
  constexpr int64_t kPrefetchAhead = 8;
  size_t offset = 0;
  for (int d = 0; d < rm.GetNumDomains(); ++d) {
    const std::vector<Agent*>& agents = rm.GetAgentVector(d);
    pool->ParallelFor(
        0, static_cast<int64_t>(agents.size()), 2048,
        [&](int64_t begin, int64_t end, int tid) {
          for (int64_t i = begin; i < end; ++i) {
            if (i + kPrefetchAhead < end) {
              const char* ahead =
                  reinterpret_cast<const char*>(agents[i + kPrefetchAhead]);
              __builtin_prefetch(ahead);
              __builtin_prefetch(ahead + 64);
            }
            fn(agents[i], offset + static_cast<size_t>(i), tid);
          }
        });
    offset += agents.size();
  }
}

}  // namespace

Shard::Shard(int id, int num_shards, const spatial::ShardExtent& extent,
             const std::string& name, const Param& param,
             const Simulation::SharedServices& services)
    : id_(id),
      extent_(extent),
      sim_(std::make_unique<Simulation>(name, param, services)),
      ghosts_(num_shards),
      sent_(num_shards) {}

uint64_t Shard::NumOwned() const {
  return sim_->GetResourceManager()->GetNumAgents() - NumGhosts();
}

real_t Shard::MaxOwnedDiameter() const {
  // One running max per worker, written only when it grows (so the shared
  // lines stay clean); a max is exact in any order.
  NumaThreadPool* pool = sim_->GetThreadPool();
  std::vector<real_t> max_diameter(static_cast<size_t>(pool->NumThreads()), 0);
  ParallelAgentScan(
      *sim_->GetResourceManager(), pool, [&](Agent* agent, size_t, int tid) {
        if (!agent->IsGhost() && agent->GetDiameter() > max_diameter[tid]) {
          max_diameter[tid] = agent->GetDiameter();
        }
      });
  return *std::max_element(max_diameter.begin(), max_diameter.end());
}

void Shard::CollectMigrations(const std::vector<spatial::ShardExtent>& extents,
                              ShardTransport* transport,
                              ExchangeStats* stats) {
  auto* rm = sim_->GetResourceManager();
  auto* ctx = sim_->GetExecutionContext(-1);
  const int num_shards = static_cast<int>(extents.size());
  // Parallel pass: each agent's destination shard (halo copies sit outside
  // the extent by construction and never migrate).
  std::vector<int> dest(rm->GetNumAgents(), id_);
  auto* pool = sim_->GetThreadPool();
  ParallelAgentScan(*rm, pool, [&](Agent* agent, size_t i, int) {
    if (!agent->IsGhost()) {
      dest[i] = spatial::LocateShard(extents, agent->GetPosition());
    }
  });
  // Serial pass in ForEachAgent order: the records, and the removal order,
  // are exactly those of a serial scan.
  std::vector<std::ostringstream> records(num_shards);
  std::vector<uint32_t> counts(num_shards, 0);
  size_t i = 0;
  rm->ForEachAgent([&](Agent* agent, AgentHandle) {
    const int dst = dest[i++];
    if (dst == id_) {
      return;
    }
    io::Checkpoint::WriteAgentRecord(records[dst], agent);
    ++counts[dst];
    ctx->RemoveAgent(agent->GetUid());
  });
  rm->Commit(sim_->GetAllExecutionContexts());
  for (int dst = 0; dst < num_shards; ++dst) {
    if (counts[dst] == 0) {
      continue;
    }
    std::ostringstream msg;
    io::WriteScalar<uint8_t>(msg, kMigrationMsg);
    io::WriteScalar<uint32_t>(msg, counts[dst]);
    msg << records[dst].str();
    transport->Send(id_, dst, std::move(msg).str());
    stats->migrations_out += counts[dst];
  }
}

void Shard::ReceiveMigrations(ShardTransport* transport,
                              ExchangeStats* stats) {
  int src = -1;
  std::string bytes;
  while (transport->Receive(id_, &src, &bytes)) {
    std::istringstream in(bytes);
    CheckKind(io::ReadScalar<uint8_t>(in), kMigrationMsg);
    const auto count = io::ReadScalar<uint32_t>(in);
    // Fresh uids: the sender recycled the originals into the shared
    // generator when it removed the agents, so keeping them would race the
    // generator's reuse.
    io::Checkpoint::AppendAgentRecords(sim_.get(), in, count,
                                       /*remap_uids=*/true);
    if (in.peek() != std::istringstream::traits_type::eof()) {
      throw std::runtime_error(
          "migration message: trailing bytes after the last record");
    }
    stats->migrations_in += count;
  }
}

void Shard::SendHalos(const std::vector<spatial::ShardExtent>& extents,
                      real_t halo_width, ShardTransport* transport,
                      ExchangeStats* stats) {
  auto* rm = sim_->GetResourceManager();
  const int num_shards = static_cast<int>(extents.size());
  const uint64_t epoch = ++send_epoch_;
  // Parallel pass: one destination bitmask per agent (`words` 64-bit words
  // each) -- bit dst set when the owned agent lies within `halo_width` of
  // shard dst's extent (face, edge, and corner neighbors alike).
  const size_t words = (static_cast<size_t>(num_shards) + 63) / 64;
  std::vector<uint64_t> masks(rm->GetNumAgents() * words, 0);
  auto* pool = sim_->GetThreadPool();
  ParallelAgentScan(*rm, pool, [&](Agent* agent, size_t i, int) {
    if (agent->IsGhost()) {
      return;  // only the owner publishes an agent's geometry
    }
    const Real3& pos = agent->GetPosition();
    uint64_t* mask = &masks[i * words];
    for (int dst = 0; dst < num_shards; ++dst) {
      if (dst != id_ &&
          spatial::DistanceToExtent(extents[dst], pos) <= halo_width) {
        mask[dst / 64] |= uint64_t{1} << (dst % 64);
      }
    }
  });

  // Serial pass in ForEachAgent order, encoding straight into one message
  // per destination; the record count is patched in at the end.
  constexpr size_t kCountOffset = 1;  // after the kind tag
  std::vector<io::ByteWriter> msgs(num_shards);
  std::vector<uint32_t> counts(num_shards, 0);
  for (int dst = 0; dst < num_shards; ++dst) {
    if (dst != id_) {
      msgs[dst].Write<uint8_t>(kHaloMsg);
      msgs[dst].Write<uint32_t>(0);
    }
  }
  size_t i = 0;
  rm->ForEachAgent([&](Agent* agent, AgentHandle) {
    const uint64_t* mask = &masks[i++ * words];
    for (size_t w = 0; w < words; ++w) {
      for (uint64_t bits = mask[w]; bits != 0; bits &= bits - 1) {
        const int dst = static_cast<int>(w * 64) + std::countr_zero(bits);
        io::HaloRecord record;
        record.owner_uid = agent->GetUid();
        record.position = agent->GetPosition();
        record.diameter = agent->GetDiameter();
        record.is_static = agent->IsStatic();
        // A first-time uid gets a value-initialized entry: zero bits.
        SentEntry& sent =
            sent_[dst].try_emplace(record.owner_uid).first->second;
        io::EncodeHaloRecord(msgs[dst], record, sent.bits);
        sent.bits = io::BitsOf(record);
        sent.epoch = epoch;
        ++counts[dst];
      }
    }
  });
  for (int dst = 0; dst < num_shards; ++dst) {
    if (dst == id_) {
      continue;
    }
    // Replace (not merge) semantics: uids absent from this exchange must
    // encode against zero next time, exactly like the receiver will decode
    // them (it drops unreported ghosts symmetrically).
    if (sent_[dst].size() != counts[dst]) {
      std::erase_if(sent_[dst], [epoch](const auto& kv) {
        return kv.second.epoch != epoch;
      });
    }
    if (counts[dst] != 0) {
      msgs[dst].Patch<uint32_t>(kCountOffset, counts[dst]);
      transport->Send(id_, dst, msgs[dst].Take());
      stats->halo_records_sent += counts[dst];
    }
  }
}

void Shard::ReceiveHalos(ShardTransport* transport) {
  auto* rm = sim_->GetResourceManager();
  auto* ctx = sim_->GetExecutionContext(-1);
  const uint64_t epoch = ++recv_epoch_;
  bool geometry_touched = false;
  int src = -1;
  std::string bytes;
  while (transport->Receive(id_, &src, &bytes)) {
    io::ByteReader in(bytes);
    CheckKind(in.Read<uint8_t>(), kHaloMsg);
    const auto count = in.Read<uint32_t>();
    auto& ghost_map = ghosts_[src];
    for (uint32_t i = 0; i < count; ++i) {
      // The ghost registry doubles as the receiver's codec state: the bits
      // last applied to a halo copy are the bits its owner last sent. One
      // lookup serves both the decode and the apply below.
      auto git = ghost_map.end();
      const io::HaloRecord record =
          io::DecodeHaloRecordWith(in, [&](const AgentUid& uid) {
            git = ghost_map.find(uid);
            return git != ghost_map.end() ? git->second.bits : io::HaloPrev{};
          });
      const io::HaloPrev bits = io::BitsOf(record);
      if (git == ghost_map.end()) {
        auto* ghost = new GhostAgent();
        ghost->SetDiameter(record.diameter);
        ghost->SetPosition(record.position);
        ghost->MirrorStaticness(record.is_static);
        rm->AddAgent(ghost);  // assigns a fresh local uid, marks structure
        GhostEntry entry;
        entry.local_uid = ghost->GetUid();
        entry.owner_shard = src;
        entry.bits = bits;
        entry.epoch = epoch;
        ghost_map.emplace(record.owner_uid, entry);
        geometry_touched = true;
      } else {
        GhostEntry& entry = git->second;
        Agent* ghost = rm->GetAgent(entry.local_uid);
        // Skip the write-back when the owner's bits did not change: an
        // untouched ghost must not wake its neighbors, or the static-agent
        // optimization dies within one halo width of every boundary.
        if (std::memcmp(entry.bits.bits, bits.bits, sizeof(bits.bits)) != 0) {
          ghost->SetDiameter(record.diameter);
          ghost->SetPosition(record.position);
          entry.bits = bits;
          geometry_touched = true;
        }
        ghost->MirrorStaticness(record.is_static);
        entry.owner_shard = src;
        entry.epoch = epoch;
      }
    }
    in.ExpectEnd("halo message");
  }
  // A ghost not reported this exchange left every halo zone (or its owner
  // migrated and re-published it under a new uid): drop the copy. Collect
  // the stale entries first and retire them in a DETERMINISTIC order keyed
  // by geometry, not in the maps' hash order: the maps are keyed by owner
  // uids, whose VALUES differ between a 1-process and an N-process run of
  // the same model (per-process uid generators), so hash order would make
  // the RM mutation order -- and through agent compaction, downstream FP
  // sums -- diverge across process counts.
  std::vector<const GhostEntry*> stale;
  for (const auto& ghost_map : ghosts_) {
    for (const auto& [owner_uid, entry] : ghost_map) {
      if (entry.epoch != epoch) {
        stale.push_back(&entry);
      }
    }
  }
  std::sort(stale.begin(), stale.end(),
            [](const GhostEntry* a, const GhostEntry* b) {
              if (a->owner_shard != b->owner_shard) {
                return a->owner_shard < b->owner_shard;
              }
              // Last-received position/diameter bit patterns; two live
              // agents never share all four (distinct positions), so ties
              // are impossible and the order is total.
              return std::lexicographical_compare(
                  std::begin(a->bits.bits), std::end(a->bits.bits),
                  std::begin(b->bits.bits), std::end(b->bits.bits));
            });
  const bool removed_any = !stale.empty();
  for (const GhostEntry* entry : stale) {
    ctx->RemoveAgent(entry->local_uid);
  }
  if (removed_any) {
    for (auto& ghost_map : ghosts_) {
      std::erase_if(ghost_map, [epoch](const auto& kv) {
        return kv.second.epoch != epoch;
      });
    }
    rm->Commit(sim_->GetAllExecutionContexts());
  }
  if (geometry_touched || removed_any) {
    // The in-place ghost writes raised the process-global AoS-dirty flag,
    // but a sibling shard's EnsureCurrent may consume that flag first; the
    // per-store stale mark survives the neighbor's refresh.
    rm->GetSoaStore().MarkGeometryStale();
  }
}

// --- field exchange ----------------------------------------------------------

void Shard::ConfigureFieldExchange(std::vector<FieldSlab> send,
                                   std::vector<FieldSlab> recv) {
  for (FieldSlab& slab : send) {
    slab.prev.assign(static_cast<size_t>(slab.NumVoxels()), 0);
    field_send_.push_back(std::move(slab));
  }
  for (FieldSlab& slab : recv) {
    slab.prev.assign(static_cast<size_t>(slab.NumVoxels()), 0);
    field_recv_.push_back(std::move(slab));
  }
}

void Shard::CollectFieldDeposits(ShardTransport* transport,
                                 FieldStats* stats) {
  const auto& grids = sim_->GetAllDiffusionGrids();
  const int num_shards = static_cast<int>(ghosts_.size());
  // out[dst][grid] = deposit records owed to shard dst for that substance.
  std::vector<std::vector<std::vector<io::FieldDepositRecord>>> out(
      num_shards,
      std::vector<std::vector<io::FieldDepositRecord>>(grids.size()));
  for (uint32_t gi = 0; gi < grids.size(); ++gi) {
    DiffusionGrid* grid = grids[gi];
    grid->FlushDeposits();  // captures ghost-voxel deposits into the list
    for (const DiffusionGrid::OutboundDeposit& d :
         grid->DrainOutboundDeposits()) {
      // The owner is the peer whose owned box the voxel falls in -- which
      // is exactly the receive slab containing it (the receive slabs tile
      // the ghost region by construction).
      int owner = -1;
      for (const FieldSlab& slab : field_recv_) {
        if (slab.grid == grid && d.x >= slab.lo[0] && d.x < slab.hi[0] &&
            d.y >= slab.lo[1] && d.y < slab.hi[1] && d.z >= slab.lo[2] &&
            d.z < slab.hi[2]) {
          owner = slab.peer;
          break;
        }
      }
      if (owner < 0) {
        throw std::logic_error(
            "field exchange: ghost-voxel deposit outside every receive slab");
      }
      io::FieldDepositRecord record;
      record.x = d.x;
      record.y = d.y;
      record.z = d.z;
      record.amount_bits = io::RealBits(d.amount);
      out[owner][gi].push_back(record);
    }
  }
  for (int dst = 0; dst < num_shards; ++dst) {
    uint32_t sections = 0;
    for (const auto& records : out[dst]) {
      sections += records.empty() ? 0 : 1;
    }
    if (sections == 0) {
      continue;
    }
    io::ByteWriter msg;
    msg.Write<uint8_t>(kFieldDepositMsg);
    msg.Write<uint32_t>(sections);
    for (uint32_t gi = 0; gi < out[dst].size(); ++gi) {
      const auto& records = out[dst][gi];
      if (records.empty()) {
        continue;
      }
      msg.Write<uint32_t>(gi);
      msg.Write<uint32_t>(static_cast<uint32_t>(records.size()));
      for (const io::FieldDepositRecord& record : records) {
        io::EncodeFieldDeposit(msg, record);
      }
      stats->deposits_forwarded += records.size();
    }
    transport->Send(id_, dst, msg.Take());
  }
}

void Shard::ReceiveFieldDeposits(ShardTransport* transport) {
  const auto& grids = sim_->GetAllDiffusionGrids();
  int src = -1;
  std::string bytes;
  while (transport->Receive(id_, &src, &bytes)) {
    io::ByteReader in(bytes);
    CheckKind(in.Read<uint8_t>(), kFieldDepositMsg);
    const auto sections = in.Read<uint32_t>();
    for (uint32_t sct = 0; sct < sections; ++sct) {
      const auto gi = in.Read<uint32_t>();
      if (gi >= grids.size()) {
        throw std::logic_error("field exchange: deposit for unknown grid");
      }
      const auto count = in.Read<uint32_t>();
      for (uint32_t i = 0; i < count; ++i) {
        const io::FieldDepositRecord record = io::DecodeFieldDeposit(in);
        // Bit-exact: the owner adds exactly the amount the depositing
        // agent's IncreaseConcentrationBy logged on the other shard.
        grids[gi]->ApplyForwardedDeposit(record.x, record.y, record.z,
                                         io::RealFromBits(record.amount_bits));
      }
    }
    in.ExpectEnd("field deposit message");
  }
}

void Shard::SendFieldHalos(ShardTransport* transport, FieldStats* stats) {
  const int num_shards = static_cast<int>(ghosts_.size());
  // One message per peer: [kind][section count] then per changed slab
  // [grid index][slab section]; the count is patched in at the end.
  constexpr size_t kCountOffset = 1;  // after the kind tag
  std::vector<io::ByteWriter> msgs(num_shards);
  std::vector<uint32_t> sections(num_shards, 0);
  std::vector<uint64_t> cur;
  for (FieldSlab& slab : field_send_) {
    cur.resize(static_cast<size_t>(slab.NumVoxels()));
    size_t i = 0;
    for (int64_t z = slab.lo[2]; z < slab.hi[2]; ++z) {
      for (int64_t y = slab.lo[1]; y < slab.hi[1]; ++y) {
        for (int64_t x = slab.lo[0]; x < slab.hi[0]; ++x) {
          cur[i++] = io::RealBits(slab.grid->AtGlobal(x, y, z));
        }
      }
    }
    io::ByteWriter& msg = msgs[slab.peer];
    if (msg.empty()) {
      msg.Write<uint8_t>(kFieldHaloMsg);
      msg.Write<uint32_t>(0);
    }
    const size_t section_start = msg.size();
    msg.Write<uint32_t>(slab.grid_index);
    if (io::EncodeFieldSlab(msg, cur.data(), static_cast<uint32_t>(cur.size()),
                            slab.prev.data())) {
      ++sections[slab.peer];
      ++stats->halo_slabs_sent;
      stats->halo_voxels_sent += cur.size();
    } else {
      // Unchanged slab: prev already equals cur voxel-for-voxel; the
      // receiver keeps its symmetric state and applies it -- missing
      // section == zero delta.
      msg.Truncate(section_start);
    }
  }
  for (int dst = 0; dst < num_shards; ++dst) {
    if (sections[dst] == 0) {
      continue;
    }
    msgs[dst].Patch<uint32_t>(kCountOffset, sections[dst]);
    transport->Send(id_, dst, msgs[dst].Take());
  }
}

void Shard::ReceiveFieldHalos(ShardTransport* transport) {
  int src = -1;
  std::string bytes;
  while (transport->Receive(id_, &src, &bytes)) {
    io::ByteReader in(bytes);
    CheckKind(in.Read<uint8_t>(), kFieldHaloMsg);
    const auto sections = in.Read<uint32_t>();
    for (uint32_t sct = 0; sct < sections; ++sct) {
      const auto gi = in.Read<uint32_t>();
      FieldSlab* slab = nullptr;
      for (FieldSlab& candidate : field_recv_) {
        if (candidate.peer == src && candidate.grid_index == gi) {
          slab = &candidate;
          break;
        }
      }
      if (slab == nullptr) {
        throw std::logic_error(
            "field exchange: halo section for unconfigured slab");
      }
      io::DecodeFieldSlab(in, static_cast<uint32_t>(slab->NumVoxels()),
                          slab->prev.data());
    }
    in.ExpectEnd("field halo message");
  }
  // Write the codec state into the ghost voxels for EVERY receive slab:
  // decoded slabs carry the owner's new values, skipped slabs carry its
  // (bitwise unchanged) previous ones. The unconditional rewrite also
  // retires the read-your-write copies of local deposits that rounded into
  // ghost voxels -- their mass lives on in the forwarded deposit the owner
  // applied in phase F2, so overwriting here is what prevents it from
  // being counted twice.
  for (FieldSlab& slab : field_recv_) {
    size_t i = 0;
    for (int64_t z = slab.lo[2]; z < slab.hi[2]; ++z) {
      for (int64_t y = slab.lo[1]; y < slab.hi[1]; ++y) {
        for (int64_t x = slab.lo[0]; x < slab.hi[0]; ++x) {
          slab.grid->SetAtGlobal(x, y, z, io::RealFromBits(slab.prev[i++]));
        }
      }
    }
  }
}

}  // namespace bdm::shard
