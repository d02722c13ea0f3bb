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
// The force accumulator of the pair-symmetric mechanics engine
// (MechanicsFusedOp) lives here too, so the engine keeps no buffers of its
// own.
#ifndef BDM_CORE_SOA_STORE_H_
#define BDM_CORE_SOA_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
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
  /// The pair-mechanics force accumulator (MechanicsFusedOp): one row per
  /// dense agent -- the force sum and the non-zero-force count of Section 5
  /// condition iv -- plus the cross-slab logs. The dense range is cut into
  /// the pool's logical slabs (NumaThreadPool::NumLogicalSlabs), and slab s
  /// owns its rows: it zeroes (first-touches) them and adds every force
  /// aimed at them straight in. A force aimed at a row of another slab t goes to log
  /// (s, t) instead, and slab t adds those entries before it integrates, in
  /// (source slab, append order). Nothing here depends on the team size:
  /// the rows take 28 B per agent and the logs 28 B per cross-slab pair, in
  /// fixed-size chunks from a pool that keeps them across passes, so the log
  /// memory follows the largest cross-slab pair count seen, not the
  /// schedule. Rows keep 1.5x headroom, so a steady population allocates
  /// nothing; they are not zeroed here.
  class ForceAccumulator {
   public:
    static constexpr int kChunkEntries = 128;
    /// A block of log entries: the row each force is for, and the force.
    struct Chunk {
      uint32_t row[kChunkEntries];
      real_t fx[kChunkEntries];
      real_t fy[kChunkEntries];
      real_t fz[kChunkEntries];
    };
    /// The forces one slab computed for the rows of one other slab, in
    /// append order.
    struct Log {
      std::vector<Chunk*> chunks;
      uint32_t size = 0;

      /// Calls fn(row, fx, fy, fz) for every entry, in append order.
      template <typename Fn>
      void ForEach(Fn&& fn) const {
        for (uint32_t e = 0; e < size; ++e) {
          const Chunk& chunk = *chunks[e / kChunkEntries];
          const uint32_t k = e % kChunkEntries;
          fn(chunk.row[k], chunk.fx[k], chunk.fy[k], chunk.fz[k]);
        }
      }
    };

    /// Sizes the rows for `count` agents and the logs for `num_slabs`
    /// logical slabs, and empties every log; runs on one thread before a
    /// pass.
    void BeginPass(uint64_t count, int num_slabs);
    int num_slabs() const { return num_slabs_; }
    real_t* fx() { return fx_.data(); }
    real_t* fy() { return fy_.data(); }
    real_t* fz() { return fz_.data(); }
    uint32_t* non_zero() { return non_zero_.data(); }
    const real_t* fx() const { return fx_.data(); }
    const real_t* fy() const { return fy_.data(); }
    const real_t* fz() const { return fz_.data(); }
    const uint32_t* non_zero() const { return non_zero_.data(); }
    /// The log slab `source` writes for slab `target`.
    Log& log(int source, int target) {
      return logs_[source * num_slabs_ + target];
    }
    const Log& log(int source, int target) const {
      return logs_[source * num_slabs_ + target];
    }
    /// Appends one entry to `log`. Only the log's source slab calls it;
    /// different slabs may append concurrently.
    void Append(Log& log, uint32_t row, real_t fx, real_t fy, real_t fz) {
      const uint32_t k = log.size % kChunkEntries;
      if (k == 0) {
        log.chunks.push_back(AcquireChunk());
      }
      Chunk& chunk = *log.chunks.back();
      chunk.row[k] = row;
      chunk.fx[k] = fx;
      chunk.fy[k] = fy;
      chunk.fz[k] = fz;
      ++log.size;
    }
    /// Entries in all logs: the cross-slab pairs of the last pass.
    uint64_t LogEntries() const;
    /// Rows, chunk pool and log bookkeeping in bytes.
    uint64_t Bytes() const;

   private:
    /// Hands out the next free pool chunk, allocating one when all are in
    /// use. Thread-safe.
    Chunk* AcquireChunk();

    AlignedBuffer<real_t> fx_;
    AlignedBuffer<real_t> fy_;
    AlignedBuffer<real_t> fz_;
    AlignedBuffer<uint32_t> non_zero_;
    int num_slabs_ = 0;
    std::vector<Log> logs_;  // num_slabs_ x num_slabs_, source-major
    std::vector<std::unique_ptr<Chunk>> chunks_;
    size_t chunks_in_use_ = 0;
    std::mutex chunks_mutex_;
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

  ForceAccumulator& forces() { return forces_; }
  const ForceAccumulator& forces() const { return forces_; }

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

  /// Bytes held by the store (attribute arrays + force accumulator). This is
  /// the number behind the soa/mirror_bytes gauge -- the one SoA copy in
  /// the engine.
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

  ForceAccumulator forces_;

  bool live_ = false;
  std::atomic<bool> structure_dirty_{true};
  std::atomic<bool> geometry_stale_{false};  // see MarkGeometryStale
};

}  // namespace bdm

#endif  // BDM_CORE_SOA_STORE_H_
