#include "core/consistency_audit.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "continuum/diffusion_grid.h"
#include "core/agent.h"
#include "core/resource_manager.h"
#include "core/simulation.h"
#include "core/soa_dirty.h"
#include "env/environment.h"
#include "io/agent_record.h"
#include "obs/metrics.h"
#include "sched/numa_thread_pool.h"
#include "shard/sharded_simulation.h"

namespace bdm {

namespace {

struct AuditMetricIds {
  int store_mismatches =
      MetricsRegistry::Get().RegisterCounter("audit.store_mismatches");
};

const AuditMetricIds& AuditMetrics() {
  static const AuditMetricIds metrics;
  return metrics;
}

}  // namespace

std::vector<std::string> ConsistencyAudit::CheckResourceManager(
    const ResourceManager& rm, const AgentUidGenerator& uid_generator) {
  std::vector<std::string> violations;
  const auto complain = [&](const std::string& what) {
    violations.push_back("resource_manager: " + what);
  };
  const auto describe = [](const AgentUid& uid, const AgentHandle& handle) {
    std::ostringstream os;
    os << "agent " << uid << " at " << handle;
    return os.str();
  };
  const AgentUid::Index watermark = uid_generator.HighWatermark();

  // Forward direction: every stored agent has a coherent uid-map entry that
  // points back at exactly its position (which also verifies per-domain
  // placement: the entry's handle names the domain the agent lives in).
  uint64_t stored = 0;
  int64_t custom_mechanics = 0;
  for (uint16_t d = 0; d < rm.agents_.size(); ++d) {
    const auto& domain = rm.agents_[d];
    for (uint64_t i = 0; i < domain.size(); ++i) {
      const AgentHandle here{d, i};
      ++stored;
      Agent* agent = domain[i];
      if (agent == nullptr) {
        std::ostringstream os;
        os << "null agent slot at " << here;
        complain(os.str());
        continue;
      }
      if (agent->HasCustomMechanics()) {
        ++custom_mechanics;
      }
      const AgentUid uid = agent->GetUid();
      if (!uid.IsValid()) {
        complain("invalid uid on " + describe(uid, here));
        continue;
      }
      if (uid.index() >= watermark) {
        complain("uid beyond the generator watermark on " +
                 describe(uid, here));
        continue;
      }
      if (uid.index() >= rm.uid_map_.size()) {
        complain("uid beyond the uid map on " + describe(uid, here));
        continue;
      }
      const auto& entry = rm.uid_map_[uid.index()];
      if (entry.agent != agent || entry.reused != uid.reused()) {
        complain("uid map entry does not own " + describe(uid, here));
      } else if (!(entry.handle == here)) {
        std::ostringstream os;
        os << "uid map handle " << entry.handle << " disagrees for "
           << describe(uid, here);
        complain(os.str());
      }
    }
  }

  // Reverse direction: every live uid-map entry resolves to a stored agent.
  // Together with the forward pass and live == stored this is a bijection.
  uint64_t live = 0;
  for (uint64_t index = 0; index < rm.uid_map_.size(); ++index) {
    const auto& entry = rm.uid_map_[index];
    if (entry.agent == nullptr) {
      if (entry.reused != AgentUid::kReusedMax || entry.handle.IsValid()) {
        complain("dead uid map entry " + std::to_string(index) +
                 " keeps a stale reused counter or handle");
      }
      continue;
    }
    ++live;
    const AgentUid uid(static_cast<AgentUid::Index>(index), entry.reused);
    if (!entry.handle.IsValid() ||
        entry.handle.numa_domain >= rm.agents_.size() ||
        entry.handle.index >= rm.agents_[entry.handle.numa_domain].size()) {
      complain("out-of-range handle on " + describe(uid, entry.handle));
      continue;
    }
    if (rm.agents_[entry.handle.numa_domain][entry.handle.index] !=
        entry.agent) {
      complain("handle does not resolve to the entry's agent for " +
               describe(uid, entry.handle));
    }
  }
  if (live != stored) {
    complain("uid map holds " + std::to_string(live) +
             " live entries for " + std::to_string(stored) +
             " stored agents");
  }

  if (custom_mechanics != rm.GetNumCustomMechanicsAgents()) {
    complain("custom-mechanics counter is " +
             std::to_string(rm.GetNumCustomMechanicsAgents()) +
             ", recount says " + std::to_string(custom_mechanics));
  }

  // Recycled-uid hygiene: a parked slot must not alias a live agent, must
  // not be parked twice, and must not exceed the watermark.
  std::unordered_set<AgentUid::Index> parked;
  uid_generator.ForEachRecycled([&](const AgentUid& uid) {
    std::ostringstream os;
    os << "recycled uid " << uid;
    if (uid.index() >= watermark) {
      complain(os.str() + " exceeds the generator watermark");
    }
    if (!parked.insert(uid.index()).second) {
      complain(os.str() + " is parked more than once");
    }
    if (uid.index() < rm.uid_map_.size() &&
        rm.uid_map_[uid.index()].agent != nullptr) {
      complain(os.str() + " aliases a live uid map entry");
    }
  });

  return violations;
}

std::vector<std::string> ConsistencyAudit::CheckEnvironment(
    const Environment& env, const ResourceManager& rm) {
  std::vector<std::string> violations;
  env.AuditConsistency(rm, &violations);
  return violations;
}

std::vector<std::string> ConsistencyAudit::CheckSoaStore(
    const ResourceManager& rm, const Environment* env) {
  std::vector<std::string> violations;
  const SoaStore& store = rm.GetSoaStore();
  if (!store.IsLive() || store.IsStructureDirty()) {
    // Not yet built, or a structural change (direct AddAgent, vector
    // replacement) is pending: the arrays are stale by design until the
    // next EnsureCurrent rebuild. Nothing to compare.
    return violations;
  }
  const auto complain = [&](const std::string& what) {
    violations.push_back("soa_store: " + what);
  };

  // Layout: the dense-index map must agree with the per-domain vectors --
  // and with the environment's dense count when the environment serves its
  // index from the store. A count disagreement here means a structural
  // change reached the agent vectors without marking the store dirty; it
  // must be LOUD (thrown by the audit op and visible as
  // audit.store_mismatches even if the throw is caught).
  if (store.NumDomains() != rm.GetNumDomains()) {
    complain("store spans " + std::to_string(store.NumDomains()) +
             " domains, resource manager has " +
             std::to_string(rm.GetNumDomains()));
  } else {
    for (int d = 0; d < store.NumDomains(); ++d) {
      const uint64_t span = store.DomainOffset(d + 1) - store.DomainOffset(d);
      if (span != rm.GetNumAgents(d)) {
        complain("domain " + std::to_string(d) + " holds " +
                 std::to_string(span) + " dense slots for " +
                 std::to_string(rm.GetNumAgents(d)) + " agents");
      }
    }
  }
  if (store.TotalAgents() != rm.GetNumAgents()) {
    complain("dense-index map covers " + std::to_string(store.TotalAgents()) +
             " agents, resource manager holds " +
             std::to_string(rm.GetNumAgents()));
  }
  if (env != nullptr && env->DenseAgents() == store.agents() &&
      env->DenseAgentCount() != store.TotalAgents()) {
    complain("environment dense index counts " +
             std::to_string(env->DenseAgentCount()) +
             " agents over the store's " +
             std::to_string(store.TotalAgents()));
  }

  // Per-slot agreement: agent pointers always; geometry and staticness only
  // while no behavior/restore touched the AoS side since the last refresh
  // (the dirty flag marks exactly that window, in which the store is
  // *intentionally* one refresh behind).
  if (violations.empty()) {
    const bool geometry_current =
        !soa::g_aos_geometry_dirty.load(std::memory_order_relaxed);
    for (int d = 0; d < store.NumDomains(); ++d) {
      const auto& domain = rm.agents_[d];
      const uint64_t offset = store.DomainOffset(d);
      for (uint64_t i = 0; i < domain.size(); ++i) {
        Agent* agent = domain[i];
        const uint64_t dense = offset + i;
        if (store.agents()[dense] != agent) {
          std::ostringstream os;
          os << "dense slot " << dense << " holds the wrong agent for "
             << AgentHandle{static_cast<uint16_t>(d), i};
          complain(os.str());
          continue;
        }
        if (!geometry_current) {
          continue;
        }
        const Real3& p = agent->GetPosition();
        if (store.pos_x()[dense] != p.x || store.pos_y()[dense] != p.y ||
            store.pos_z()[dense] != p.z ||
            store.diameter()[dense] != agent->GetDiameter() ||
            (store.is_static()[dense] != 0) != agent->IsStatic()) {
          std::ostringstream os;
          os << "dense slot " << dense << " geometry diverged from agent "
             << agent->GetUid();
          complain(os.str());
        }
      }
    }
  }

  if (!violations.empty() && MetricsRegistry::Enabled()) {
    MetricsRegistry::Get().Add(AuditMetrics().store_mismatches,
                               violations.size());
  }
  return violations;
}

std::vector<std::string> ConsistencyAudit::CheckAll(Simulation* sim,
                                                    bool refresh_environment) {
  ResourceManager* rm = sim->GetResourceManager();
  Environment* env = sim->GetEnvironment();
  if (refresh_environment) {
    env->Update(*rm, sim->GetThreadPool());
  }
  std::vector<std::string> violations =
      CheckResourceManager(*rm, *sim->GetAgentUidGenerator());
  const std::vector<std::string> env_violations = CheckEnvironment(*env, *rm);
  violations.insert(violations.end(), env_violations.begin(),
                    env_violations.end());
  const std::vector<std::string> store_violations = CheckSoaStore(*rm, env);
  violations.insert(violations.end(), store_violations.begin(),
                    store_violations.end());
  return violations;
}

std::vector<std::string> ConsistencyAudit::CheckShards(
    shard::ShardedSimulation* sim) {
  std::vector<std::string> violations;
  const auto complain = [&](int shard_id, const std::string& what) {
    std::ostringstream os;
    os << "shard " << shard_id << ": " << what;
    violations.push_back(os.str());
  };

  // Global uid uniqueness: the shared generator must never have issued the
  // same (index, reused) pair to two live agents, no matter the shard.
  std::unordered_map<AgentUid, int> uid_owner;
  for (int s = 0; s < sim->NumShards(); ++s) {
    shard::Shard* shard = sim->GetShard(s);
    shard->sim()->GetResourceManager()->ForEachAgent(
        [&](Agent* agent, AgentHandle) {
          auto [it, inserted] = uid_owner.emplace(agent->GetUid(), s);
          if (!inserted) {
            std::ostringstream os;
            os << "uid " << agent->GetUid() << " is live here and in shard "
               << it->second;
            complain(s, os.str());
          }
        });
  }

  uint64_t total_owned = 0;
  for (int s = 0; s < sim->NumShards(); ++s) {
    shard::Shard* shard = sim->GetShard(s);
    ResourceManager* rm = shard->sim()->GetResourceManager();
    total_owned += shard->NumOwned();

    // Ghost bookkeeping: every flagged ghost is in the registry and vice
    // versa.
    uint64_t flagged_ghosts = 0;
    rm->ForEachAgent([&](Agent* agent, AgentHandle) {
      if (agent->IsGhost()) {
        ++flagged_ghosts;
      } else if (spatial::LocateShard(sim->Extents(), agent->GetPosition()) !=
                 s) {
        std::ostringstream os;
        os << "owned agent " << agent->GetUid()
           << " sits outside this shard's extent (missed migration)";
        complain(s, os.str());
      }
    });
    if (flagged_ghosts != shard->NumGhosts()) {
      std::ostringstream os;
      os << flagged_ghosts << " flagged ghost agents but "
         << shard->NumGhosts() << " ghost-registry entries";
      complain(s, os.str());
    }

    // Ghost <-> owner agreement: the halo copy must exist, its recorded
    // owner must be live in the recorded owner shard, and position and
    // diameter must match *bitwise* (the delta codec is lossless; any
    // difference is an exchange bug, not rounding).
    for (const auto& ghost_map : shard->Ghosts()) {
      for (const auto& [owner_uid, entry] : ghost_map) {
        const Agent* ghost = rm->GetAgent(entry.local_uid);
        if (ghost == nullptr || !ghost->IsGhost()) {
          std::ostringstream os;
          os << "ghost registry entry " << owner_uid
             << " does not resolve to a live ghost agent";
          complain(s, os.str());
          continue;
        }
        if (entry.owner_shard < 0 || entry.owner_shard >= sim->NumShards() ||
            entry.owner_shard == s) {
          std::ostringstream os;
          os << "ghost " << owner_uid << " records invalid owner shard "
             << entry.owner_shard;
          complain(s, os.str());
          continue;
        }
        const Agent* owner = sim->GetShard(entry.owner_shard)
                                 ->sim()
                                 ->GetResourceManager()
                                 ->GetAgent(owner_uid);
        if (owner == nullptr || owner->IsGhost()) {
          std::ostringstream os;
          os << "ghost " << owner_uid << " has no live owner in shard "
             << entry.owner_shard;
          complain(s, os.str());
          continue;
        }
        const bool position_matches =
            io::RealBits(ghost->GetPosition().x) ==
                io::RealBits(owner->GetPosition().x) &&
            io::RealBits(ghost->GetPosition().y) ==
                io::RealBits(owner->GetPosition().y) &&
            io::RealBits(ghost->GetPosition().z) ==
                io::RealBits(owner->GetPosition().z);
        if (!position_matches ||
            io::RealBits(ghost->GetDiameter()) !=
                io::RealBits(owner->GetDiameter())) {
          std::ostringstream os;
          os << "ghost " << owner_uid
             << " geometry disagrees bitwise with its owner in shard "
             << entry.owner_shard;
          complain(s, os.str());
        }
      }
    }
  }

  // Delta-codec symmetry: a's sender state for b must hold exactly the
  // uids of b's ghost registry for a, with bitwise-equal bits -- otherwise
  // the next exchange decodes a record against other bits than it was
  // encoded against. Capped like the voxel complaints: one broken round
  // would otherwise emit a line per halo record.
  constexpr int kMaxCodecComplaints = 8;
  int codec_complaints = 0;
  for (int a = 0; a < sim->NumShards(); ++a) {
    for (int b = 0; b < sim->NumShards(); ++b) {
      if (a == b) {
        continue;
      }
      const auto& sent = sim->GetShard(a)->HaloSendState()[b];
      const auto& ghosts = sim->GetShard(b)->Ghosts()[a];
      if (sent.size() != ghosts.size()) {
        std::ostringstream os;
        os << "codec state for shard " << b << " holds " << sent.size()
           << " uids but shard " << b << " holds " << ghosts.size()
           << " ghosts of this shard";
        complain(a, os.str());
      }
      for (const auto& [owner_uid, entry] : sent) {
        auto it = ghosts.find(owner_uid);
        const bool matches =
            it != ghosts.end() &&
            std::equal(std::begin(entry.bits.bits), std::end(entry.bits.bits),
                       std::begin(it->second.bits.bits));
        if (!matches && ++codec_complaints <= kMaxCodecComplaints) {
          std::ostringstream os;
          os << "codec state for uid " << owner_uid << " sent to shard " << b
             << (it == ghosts.end() ? " has no ghost there"
                                    : " disagrees bitwise with the ghost's");
          complain(a, os.str());
        }
      }
    }
  }

  // Conservation: the exchange moves and mirrors agents, it must never
  // create or destroy them.
  if (total_owned != sim->ExpectedOwned()) {
    std::ostringstream os;
    os << "exchange changed the owned-agent count: " << sim->ExpectedOwned()
       << " before, " << total_owned << " after";
    violations.push_back(os.str());
  }

  // Field invariants ride along whenever the ghost planes are fresh (a
  // test calling CheckShards right after Exchange + FieldExchange gets the
  // full picture in one call).
  const std::vector<std::string> field_violations = CheckShardFields(sim);
  violations.insert(violations.end(), field_violations.begin(),
                    field_violations.end());

  return violations;
}

std::vector<std::string> ConsistencyAudit::CheckShardFields(
    shard::ShardedSimulation* sim) {
  std::vector<std::string> violations;
  if (!sim->FieldsFresh()) {
    // Between StepFields and the next FieldExchange the ghost planes are
    // legitimately stale (sacrificial stepping): nothing checkable.
    return violations;
  }
  const int num_shards = sim->NumShards();
  const size_t num_grids =
      sim->GetShard(0)->sim()->GetAllDiffusionGrids().size();
  // Bitwise mismatches are reported per voxel but capped: a systematic
  // exchange bug would otherwise emit one line per ghost voxel.
  constexpr int kMaxVoxelComplaints = 8;

  for (size_t g = 0; g < num_grids; ++g) {
    double owned_mass = 0;
    int voxel_complaints = 0;
    const std::string grid_name =
        sim->GetShard(0)->sim()->GetAllDiffusionGrids()[g]->GetName();
    for (int s = 0; s < num_shards; ++s) {
      DiffusionGrid* grid = sim->GetShard(s)->sim()->GetAllDiffusionGrids()[g];
      owned_mass += grid->OwnedMass();
      // Every window voxel outside the owned box must match the shard that
      // owns it, bitwise: phase F4 rewrote the whole ghost layer from the
      // codec state, so any difference is an exchange or codec bug.
      for (int64_t z = grid->WindowLo(2); z < grid->WindowHi(2); ++z) {
        const bool z_owned = z >= grid->OwnedLo(2) && z < grid->OwnedHi(2);
        for (int64_t y = grid->WindowLo(1); y < grid->WindowHi(1); ++y) {
          const bool y_owned = y >= grid->OwnedLo(1) && y < grid->OwnedHi(1);
          for (int64_t x = grid->WindowLo(0); x < grid->WindowHi(0); ++x) {
            if (z_owned && y_owned && x >= grid->OwnedLo(0) &&
                x < grid->OwnedHi(0)) {
              continue;  // owned voxel, not a ghost
            }
            DiffusionGrid* owner = nullptr;
            int owner_shard = -1;
            for (int o = 0; o < num_shards && owner == nullptr; ++o) {
              if (o == s) {
                continue;
              }
              DiffusionGrid* other =
                  sim->GetShard(o)->sim()->GetAllDiffusionGrids()[g];
              if (x >= other->OwnedLo(0) && x < other->OwnedHi(0) &&
                  y >= other->OwnedLo(1) && y < other->OwnedHi(1) &&
                  z >= other->OwnedLo(2) && z < other->OwnedHi(2)) {
                owner = other;
                owner_shard = o;
              }
            }
            if (owner == nullptr) {
              std::ostringstream os;
              os << "shard " << s << ": field '" << grid_name
                 << "' ghost voxel (" << x << "," << y << "," << z
                 << ") is owned by no shard";
              violations.push_back(os.str());
              continue;
            }
            if (io::RealBits(grid->AtGlobal(x, y, z)) !=
                    io::RealBits(owner->AtGlobal(x, y, z)) &&
                ++voxel_complaints <= kMaxVoxelComplaints) {
              std::ostringstream os;
              os << "shard " << s << ": field '" << grid_name
                 << "' ghost voxel (" << x << "," << y << "," << z
                 << ") disagrees bitwise with owner shard " << owner_shard;
              violations.push_back(os.str());
            }
          }
        }
      }
    }
    if (voxel_complaints > kMaxVoxelComplaints) {
      std::ostringstream os;
      os << "field '" << grid_name << "': "
         << (voxel_complaints - kMaxVoxelComplaints)
         << " further ghost-voxel mismatches suppressed";
      violations.push_back(os.str());
    }
    // Mass conservation across the exchange: deposit forwarding moves mass
    // between shards, the halo overwrite retires the local ghost copies --
    // the owned total must come back to the snapshot. Tolerance covers
    // only summation reordering (doubles accumulate per shard here, in one
    // global sweep for the snapshot), not any physical loss.
    const double expected = sim->ExpectedFieldMass(g);
    const double tolerance = 1e-12 * std::max(1.0, std::abs(expected));
    if (std::abs(owned_mass - expected) > tolerance) {
      std::ostringstream os;
      os << "field '" << grid_name
         << "': exchange changed the global mass: " << expected << " before, "
         << owned_mass << " after (|delta| = "
         << std::abs(owned_mass - expected) << ")";
      violations.push_back(os.str());
    }
  }
  return violations;
}

void ConsistencyAuditOp::Run(Simulation* sim) {
  // Runs right after UpdateEnvironmentOp, so the index is already fresh.
  const std::vector<std::string> violations =
      ConsistencyAudit::CheckAll(sim, /*refresh_environment=*/false);
  if (violations.empty()) {
    return;
  }
  std::ostringstream os;
  os << "ConsistencyAudit found " << violations.size() << " violation(s):";
  for (const std::string& v : violations) {
    os << "\n  " << v;
  }
  throw std::runtime_error(os.str());
}

}  // namespace bdm
