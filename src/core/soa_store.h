// Persistent NUMA-domain-segmented SoA store of agent state (ISSUE 6).
//
// A component that keeps a private SoA copy of agent geometry must rebuild
// it from the AoS Agent objects every iteration (the uniform grid's legacy
// mirror, Param::soa_primary off, still does). The GPU port of BioDynaMo
// (Hesam et al., arXiv 2105.00039) makes the case that the
// gather->kernel->scatter shape only pays off when the SoA arrays persist
// across iterations; TeraAgent (arXiv 2509.24063) serializes exactly such
// flat per-attribute arrays. This class is that single persistent store:
//
//  * Owned by the ResourceManager, one per simulation.
//  * Layout is domain-major: domain d's agents occupy the contiguous dense
//    index range [domain_offset(d), domain_offset(d+1)), in the resource
//    manager's order. The AgentHandle -> dense index map is therefore
//    arithmetic: dense = offset(d) + h.index.
//  * Brought up to date lazily by EnsureCurrent, in one of two ways. A
//    structural change -- a commit that added or removed agents, a direct
//    AddAgent, agent sorting -- marks the store structure-dirty, and the
//    next EnsureCurrent gathers every row again from the AoS objects (a full
//    rebuild). Geometry mutations outside the engine (behaviors calling
//    SetPosition/SetDiameter) raise soa::g_aos_geometry_dirty, which
//    EnsureCurrent consumes with a refresh of the rows it already has. Both
//    are one O(N) gather, counted as soa/full_rebuilds and
//    soa/incremental_updates respectively.
//  * The fused mechanics op writes displaced positions back to both the
//    store arrays and the AoS Agent in the same pass (the "write-back
//    point"), so a quiescent population costs zero gather work per step.
//
// The per-slab force scatter shards of the pair-symmetric mechanics engine
// (MechanicsFusedOp) live here too, so the engine keeps no buffers of its
// own.
#ifndef BDM_CORE_SOA_STORE_H_
#define BDM_CORE_SOA_STORE_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "core/agent_handle.h"
#include "math/real3.h"
#include "memory/aligned_buffer.h"

namespace bdm {

class Agent;
class ResourceManager;
class NumaThreadPool;

class SoaStore {
 public:
  /// One thread's force scatter target: partial force sums plus the
  /// non-zero-force counts of Section 5 condition iv.
  struct ForceShard {
    AlignedBuffer<real_t> fx;
    AlignedBuffer<real_t> fy;
    AlignedBuffer<real_t> fz;
    AlignedBuffer<uint32_t> non_zero;
  };

  /// MechanicsFusedOp's per-slab shard set. Buffers keep 1.5x headroom so a
  /// growing population does not reallocate every iteration; contents are
  /// NOT zeroed here -- each worker zeroes (first-touches) its own shard
  /// inside the parallel region, which also places the pages on the
  /// worker's NUMA node.
  class ForceShards {
   public:
    void Ensure(int num_threads, uint64_t count);
    ForceShard& shard(int t) { return shards_[t]; }
    const ForceShard& shard(int t) const { return shards_[t]; }
    int num_shards() const { return static_cast<int>(shards_.size()); }
    uint64_t Bytes() const;

   private:
    std::vector<ForceShard> shards_;
  };

  // --- liveness & layout -----------------------------------------------------
  /// Whether the arrays mirror the ResourceManager (after EnsureCurrent and
  /// until the next structural change).
  bool IsLive() const { return live_; }
  bool IsStructureDirty() const {
    return structure_dirty_.load(std::memory_order_relaxed);
  }
  uint64_t TotalAgents() const {
    return domain_offset_.empty() ? 0 : domain_offset_.back();
  }
  int NumDomains() const {
    return static_cast<int>(domain_offset_.size()) - 1;
  }
  uint64_t DomainOffset(int domain) const { return domain_offset_[domain]; }
  uint64_t DenseIndex(const AgentHandle& h) const {
    return domain_offset_[h.numa_domain] + h.index;
  }

  // --- array views -----------------------------------------------------------
  Agent* const* agents() const { return agents_.data(); }
  const real_t* pos_x() const { return pos_x_.data(); }
  const real_t* pos_y() const { return pos_y_.data(); }
  const real_t* pos_z() const { return pos_z_.data(); }
  const real_t* diameter() const { return diameter_.data(); }
  const uint8_t* is_static() const { return is_static_.data(); }

  /// Engine write-back of a displaced position (MechanicsFusedOp): keeps the
  /// store current without raising the AoS-dirty flag.
  void WriteBackPosition(uint64_t dense, const Real3& p) {
    pos_x_[dense] = p.x;
    pos_y_[dense] = p.y;
    pos_z_[dense] = p.z;
  }
  /// Staticness sync (StaticnessOp pass 2, after UpdateStaticness).
  void SetStatic(uint64_t dense, bool value) {
    is_static_[dense] = value ? 1 : 0;
  }

  ForceShards& force_shards() { return force_shards_; }

  // --- update protocol -------------------------------------------------------
  /// Brings the arrays up to date with `rm`. Full parallel rebuild when the
  /// structure changed; geometry-only refresh when only
  /// soa::g_aos_geometry_dirty (or MarkGeometryStale) is raised; no-op
  /// otherwise.
  void EnsureCurrent(const ResourceManager& rm, NumaThreadPool* pool);

  /// Structural change (a non-empty Commit, direct AddAgent,
  /// ReplaceAgentVectors): the next EnsureCurrent performs a full rebuild.
  /// Thread-safe (concurrent AddAgent callers), hence the atomic flag.
  void MarkStructureDirty() {
    structure_dirty_.store(true, std::memory_order_relaxed);
  }

  /// Per-store geometry invalidation for multi-ResourceManager setups
  /// (src/shard/): soa::g_aos_geometry_dirty is process-global, so when
  /// shard A's EnsureCurrent consumes it, a geometry write that actually
  /// targeted shard B's agents would be lost. The shard layer therefore also
  /// raises this store-local flag after mutating positions of agents owned
  /// by this store's ResourceManager (ghost refresh, migration arrivals).
  void MarkGeometryStale() {
    geometry_stale_.store(true, std::memory_order_relaxed);
  }

  /// Bytes held by the store (attribute arrays + force shards). This is the
  /// number behind the soa/mirror_bytes gauge -- the one SoA copy in the
  /// engine.
  uint64_t MemoryFootprintBytes() const;

 private:
  void FullRebuild(const ResourceManager& rm, NumaThreadPool* pool);
  void RefreshGeometry(NumaThreadPool* pool);
  void Reallocate(uint64_t min_capacity);
  void UpdateFootprintGauge();

  // Attribute arrays, domain-major, sized `capacity_` with the live prefix
  // described by domain_offset_.
  AlignedBuffer<Agent*> agents_;
  AlignedBuffer<real_t> pos_x_;
  AlignedBuffer<real_t> pos_y_;
  AlignedBuffer<real_t> pos_z_;
  AlignedBuffer<real_t> diameter_;
  AlignedBuffer<uint8_t> is_static_;
  uint64_t capacity_ = 0;

  /// domain_offset_[d] .. domain_offset_[d+1] is domain d's dense range.
  std::vector<uint64_t> domain_offset_;

  ForceShards force_shards_;

  bool live_ = false;
  std::atomic<bool> structure_dirty_{true};
  std::atomic<bool> geometry_stale_{false};  // see MarkGeometryStale
};

}  // namespace bdm

#endif  // BDM_CORE_SOA_STORE_H_
