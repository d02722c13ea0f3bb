// The paper's optimized uniform grid (Section 3.1).
//
// Key properties reproduced from the paper:
//  * Agents of a box form an array-based linked list: `successors_[i]` is the
//    flat index of the next agent in the same box, so a box stores only its
//    head index and element count.
//  * Every box carries a timestamp. A box whose timestamp differs from the
//    grid's current one is empty, so the build phase never zeroes the boxes
//    array -- the grid is built in O(#agents) instead of
//    O(#agents + #boxes).
//  * The build phase is fully parallel: timestamp, count, and head are
//    packed into one 64-bit word per box and updated with a single
//    compare-and-swap.
//  * Search-critical attributes (position, diameter) are served from flat
//    SoA arrays. In SoA-primary mode (Param::soa_primary) these are views
//    into the ResourceManager's persistent SoaStore -- Update brings the
//    store up to date (core/soa_store.h), which costs no gather from the
//    Agent objects while the population is quiescent. In legacy mode the
//    grid fills its own private mirror in a NUMA-ordered flatten pass (the
//    pre-store behavior, kept as the A/B reference). Either way a search
//    reads only contiguous arrays: the reject path never dereferences an
//    `Agent*` into a large polymorphic object (O1/O4 cache discipline; the
//    GPU port of BioDynaMo relies on the identical layout), and an accepted
//    neighbor is reported with the position, diameter and distance of that
//    Update-time snapshot.
//  * A search visits only the boxes that the query's bounding cube
//    overlaps, clamped to the grid, in (z, y, x) order: the 3x3x3 cube
//    around the query box or less for radii up to the box length.
//  * Neighbor counts for a whole population come from one symmetric
//    half-stencil pass (CountAllNeighbors).
//  * Both scans -- Search and the half-stencil pair traversal -- collect
//    candidates branch-free: each candidate's (dense index, d2) goes into
//    a small on-stack hit buffer whose fill advances by the 0/1 outcome of
//    the distance test, so the accept rate causes no mispredictions. The
//    callback runs on the hits when the buffer fills and when the query
//    (or the pair traversal's slab) ends, in visit order with the same d2,
//    so every neighbor sequence and force sum is what a branchy scan
//    would produce.
//
// The grid additionally exposes box counts and per-box agent iteration,
// which the Morton sorting/balancing operation of Section 4.2 builds on.
#ifndef BDM_ENV_UNIFORM_GRID_H_
#define BDM_ENV_UNIFORM_GRID_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/param.h"
#include "env/environment.h"

namespace bdm {

class UniformGridEnvironment : public Environment {
 public:
  explicit UniformGridEnvironment(const Param& param) : param_(&param) {}

  void Update(const ResourceManager& rm, NumaThreadPool* pool) override;

  Agent* const* DenseAgents() const override { return flat_agents_; }
  uint64_t DenseAgentCount() const override { return dense_count_; }
  NeighborData DenseSnapshot(uint32_t i) const override {
    return {flat_agents_[i], i, {pos_x_[i], pos_y_[i], pos_z_[i]},
            diameters_[i], 0};
  }

  /// Half-stencil pair traversal (DESIGN.md Section 5): each agent pairs
  /// with the earlier-inserted agents of its own box (successor chain) and
  /// with all agents of the 13 forward-neighbor boxes, so every interacting
  /// pair is visited exactly once. Valid for radii up to the box length
  /// (the engine's interaction radius); larger radii fall back to the
  /// generic base traversal.
  void ForEachNeighborPair(real_t squared_radius, NumaThreadPool* pool,
                           NeighborPairFn fn) const override;

  /// Whether the half stencil covers `squared_radius`. The comparison is
  /// exact: a pair two boxes apart can lie within any radius above the box
  /// length.
  bool HalfStencilCovers(real_t squared_radius) const {
    return squared_radius <= box_length_ * box_length_;
  }

  /// One slab of the half-stencil pair traversal: walks dense indices
  /// [lo, hi) and invokes `emit(i, j, d2)` for every interacting pair whose
  /// chain/stencil owner i lies in the slab, in walk order (the calls come
  /// in batches of up to kHitCapacity pairs). Shared by ForEachNeighborPair
  /// and the fused mechanics op, which runs the logical slabs itself so it
  /// can fuse row zeroing and force scatter into one dispatch. The d2 handed over is bitwise-identical to
  /// (pos_i - pos_j).SquaredNorm() -- see physics/force_kernel.h.
  template <typename Emit>
  void ForEachNeighborPairInSlab(real_t squared_radius, int64_t lo, int64_t hi,
                                 Emit&& emit) const {
    CountPairVisits(WalkPairsInSlab(squared_radius, lo, hi, emit));
  }

  real_t GetInteractionRadius() const override { return box_length_; }
  Real3 GetLowerBound() const override { return lower_; }
  Real3 GetUpperBound() const override { return upper_; }
  size_t MemoryFootprint() const override;
  std::string GetName() const override { return "uniform_grid"; }

  /// Verifies flat array / SoA mirror / box chain agreement with the
  /// resource manager (see Environment::AuditConsistency).
  void AuditConsistency(const ResourceManager& rm,
                        std::vector<std::string>* violations) const override;

  // --- accessors used by the load-balance operation and tests --------------
  std::array<int64_t, 3> GetDimensions() const { return {nx_, ny_, nz_}; }
  int64_t GetNumBoxes() const { return nx_ * ny_ * nz_; }
  real_t GetBoxLength() const { return box_length_; }

  int64_t FlatBoxIndex(int64_t x, int64_t y, int64_t z) const {
    return x + nx_ * (y + ny_ * z);
  }

  /// Number of agents currently stored in box `flat`.
  uint32_t GetBoxCount(int64_t flat) const {
    const uint64_t word = boxes_[flat].load(std::memory_order_acquire);
    return Timestamp(word) == timestamp_ ? Count(word) : 0;
  }

  /// Invokes `fn(Agent*)` for every agent in box `flat`.
  template <typename Fn>
  void ForEachAgentInBox(int64_t flat, Fn&& fn) const {
    const uint64_t word = boxes_[flat].load(std::memory_order_acquire);
    if (Timestamp(word) != timestamp_) {
      return;
    }
    uint32_t idx = Head(word);
    for (uint32_t k = 0; k < Count(word); ++k) {
      fn(flat_agents_[idx]);
      idx = successors_[idx];
    }
  }

  /// Capacity of the on-stack hit buffer a scan fills before it reports:
  /// a query with more hits than this, like a pair-traversal slab, reports
  /// them in several batches, still in visit order.
  static constexpr uint32_t kHitCapacity = 128;

  /// Test hook: places the internal 16-bit timestamp so the next Updates
  /// drive it across the wrap-clear path without 65535 real updates.
  void SetTimestampForTesting(uint16_t timestamp) { timestamp_ = timestamp; }

 protected:
  void Search(const Real3& position, real_t squared_radius,
              const Agent* exclude, NeighborFn fn) const override;

  /// One symmetric half-stencil pass for radii the half stencil covers:
  /// each pair adds 1 to both endpoints' counts, the owner's from a
  /// register once per owner and the partner's with a relaxed atomic add.
  /// Integer sums, so the counts are exact at any thread count. Larger
  /// radii take the per-agent base path.
  void CountAllNeighbors(real_t squared_radius, NumaThreadPool* pool,
                         uint32_t* counts) const override;

 private:
  // Box word layout: [timestamp:16][count:16][head:32].
  static constexpr uint64_t Pack(uint16_t ts, uint16_t count, uint32_t head) {
    return (static_cast<uint64_t>(ts) << 48) |
           (static_cast<uint64_t>(count) << 32) | head;
  }
  static constexpr uint16_t Timestamp(uint64_t word) {
    return static_cast<uint16_t>(word >> 48);
  }
  static constexpr uint16_t Count(uint64_t word) {
    return static_cast<uint16_t>(word >> 32);
  }
  static constexpr uint32_t Head(uint64_t word) {
    return static_cast<uint32_t>(word);
  }

  /// Unclamped box coordinate of `value` on `axis` (clamped to [-1, n]
  /// before the integer conversion, so far-off queries cannot overflow it).
  int64_t BoxCoordinate(real_t value, int axis) const {
    const int64_t n[3] = {nx_, ny_, nz_};
    return static_cast<int64_t>(std::clamp<real_t>(
        std::floor((value - lower_[axis]) * inv_box_length_), -1,
        static_cast<real_t>(n[axis])));
  }
  /// Box of `position`, clamped to the grid.
  std::array<int64_t, 3> BoxCoordinates(const Real3& position) const;

  /// The half-stencil walk behind ForEachNeighborPairInSlab; returns the
  /// number of pairs it emitted. The count pass calls it directly, so the
  /// pair-visit metric keeps counting mechanics pairs only.
  template <typename Emit>
  uint64_t WalkPairsInSlab(real_t squared_radius, int64_t lo, int64_t hi,
                           Emit&& emit) const {
    uint64_t pairs_visited = 0;
    // Consecutive agents share the buffer, which reports when full: a
    // report per agent would add a loop exit per agent that depends on all
    // of that agent's distance tests (measured slower, EXPERIMENTS.md
    // "Branch-free grid scans").
    HitBuffer hits;
    const auto report = [&](uint32_t count) {
      for (uint32_t k = 0; k < count; ++k) {
        emit(static_cast<uint32_t>(hits.owner_index[k] >> 32),
             static_cast<uint32_t>(hits.owner_index[k]), hits.d2[k]);
      }
      pairs_visited += count;
    };
    uint32_t n = 0;
    for (int64_t i = lo; i < hi; ++i) {
      const uint32_t owner = static_cast<uint32_t>(i);
      const Real3 pos{pos_x_[i], pos_y_[i], pos_z_[i]};
      // Own box: later-inserted agents were already paired with i when they
      // walked their own chains; the chain below i holds the earlier ones.
      n = CollectHits({successors_[i], kWholeChain}, owner, pos,
                      squared_radius, hits, n, report);
      // Forward half stencil.
      const auto c = BoxCoordinates(pos);
      if (c[0] >= 1 && c[0] + 1 < nx_ && c[1] >= 1 && c[1] + 1 < ny_ &&
          c[2] >= 1 && c[2] + 1 < nz_) {
        const int64_t base = FlatBoxIndex(c[0], c[1], c[2]);
        for (int s = 0; s < 13; ++s) {
          n = CollectHits(BoxChain(base + forward_stencil_[s]), owner, pos,
                          squared_radius, hits, n, report);
        }
      } else {
        for (int64_t dz = -1; dz <= 1; ++dz) {
          for (int64_t dy = -1; dy <= 1; ++dy) {
            for (int64_t dx = -1; dx <= 1; ++dx) {
              if (!(dz > 0 || (dz == 0 && (dy > 0 || (dy == 0 && dx > 0))))) {
                continue;
              }
              const int64_t x = c[0] + dx, y = c[1] + dy, z = c[2] + dz;
              if (x < 0 || x >= nx_ || y < 0 || y >= ny_ || z < 0 ||
                  z >= nz_) {
                continue;
              }
              n = CollectHits(BoxChain(FlatBoxIndex(x, y, z)), owner, pos,
                              squared_radius, hits, n, report);
            }
          }
        }
      }
    }
    report(n);
    return pairs_visited;
  }

  /// Flushes a slab's register-resident pair count to the metrics registry
  /// (out of line so this header does not pull in obs/metrics.h).
  void CountPairVisits(uint64_t pairs_visited) const;

  static constexpr uint32_t kChainEnd = 0xFFFFFFFFu;

  /// Accepted candidates in visit order: (owner << 32 | dense index, d2)
  /// for entries below the fill the scan carries alongside. The owner is
  /// the pair walk's agent i (0 in Search). Lives on the stack.
  struct HitBuffer {
    uint64_t owner_index[kHitCapacity];
    real_t d2[kHitCapacity];
  };

  /// A stretch of successor chain to scan: from `first`, at most `length`
  /// agents, stopping early at kChainEnd. Every box chain ends in kChainEnd
  /// (the first agent pushed into a box this Update gets it as successor).
  struct Chain {
    uint32_t first;
    uint32_t length;
  };
  /// Length of a chain walked to its end (an agent's own-box remainder).
  static constexpr uint32_t kWholeChain = 0xFFFFFFFFu;

  /// Box `flat`'s chain; empty if the box carries a stale timestamp (empty
  /// this iteration). The length bounds the walk, so the loop exit does not
  /// wait for the last successor load.
  Chain BoxChain(int64_t flat) const {
    const uint64_t word = boxes_[flat].load(std::memory_order_acquire);
    if (Timestamp(word) != timestamp_) {
      return {kChainEnd, 0};
    }
    return {Head(word), Count(word)};
  }

  /// The one scan helper, shared by Search and the pair traversal: walks
  /// `chain` and appends every candidate, tagged with `owner`, to `hits`
  /// after the first `n`, advancing `n` by the 0/1 outcome of the distance
  /// test -- no branch depends on it, so the ~1-in-7 accept rate costs no
  /// mispredictions. A full buffer is handed to `report(count)`, which
  /// reports entries [0, count) and lets the walk restart at 0. Returns the
  /// new fill; the caller reports the rest when its scan ends, so hits
  /// leave in visit order with the d2 computed here. The walk touches only
  /// the successor links and the SoA position arrays.
  template <typename Report>
  uint32_t CollectHits(Chain chain, uint32_t owner, const Real3& position,
                       real_t squared_radius, HitBuffer& hits, uint32_t n,
                       Report&& report) const {
    // Locals, so that the rarely taken report call does not force a reload
    // of the array views and the query position on every candidate.
    const uint32_t* next = successors_.data();
    const real_t* px = pos_x_;
    const real_t* py = pos_y_;
    const real_t* pz = pos_z_;
    const real_t qx = position.x, qy = position.y, qz = position.z;
    const uint64_t tag = uint64_t{owner} << 32;
    uint32_t j = chain.first;
    for (uint32_t k = 0; k < chain.length && j != kChainEnd;
         ++k, j = next[j]) {
      const real_t dx = px[j] - qx;
      const real_t dy = py[j] - qy;
      const real_t dz = pz[j] - qz;
      const real_t d2 = dx * dx + dy * dy + dz * dz;
      hits.owner_index[n] = tag | j;
      hits.d2[n] = d2;
      n += static_cast<uint32_t>(d2 <= squared_radius);
      if (n == kHitCapacity) {
        report(n);
        n = 0;
      }
    }
    return n;
  }

  const Param* param_;

  Real3 lower_;
  Real3 upper_;
  real_t box_length_ = 1;
  real_t inv_box_length_ = 1;
  real_t largest_diameter_ = 0;
  int64_t nx_ = 0, ny_ = 0, nz_ = 0;
  uint16_t timestamp_ = 0;

  std::vector<std::atomic<uint64_t>> boxes_;
  std::vector<uint32_t> successors_;
  // Views over the search-critical SoA attributes. SoA-primary mode points
  // them into the ResourceManager's persistent SoaStore; legacy mode into
  // the grid-owned mirror vectors below. All search templates read through
  // these, so both modes share one code path.
  Agent* const* flat_agents_ = nullptr;
  const real_t* pos_x_ = nullptr;
  const real_t* pos_y_ = nullptr;
  const real_t* pos_z_ = nullptr;
  const real_t* diameters_ = nullptr;
  uint64_t dense_count_ = 0;
  // Legacy private mirror (Param::soa_primary == false), filled by Update in
  // one NUMA-ordered flatten pass.
  std::vector<Agent*> own_agents_;
  std::vector<real_t> own_pos_x_;
  std::vector<real_t> own_pos_y_;
  std::vector<real_t> own_pos_z_;
  std::vector<real_t> own_diameters_;
  // The 13 offsets whose (dz, dy, dx) triple is lexicographically positive:
  // the forward half of the 26 surrounding boxes. The backward half of a
  // box b is exactly the set of boxes whose forward stencil contains b, so
  // scanning only forward boxes still covers every cross-box pair -- once.
  std::array<int64_t, 13> forward_stencil_{};
};

}  // namespace bdm

#endif  // BDM_ENV_UNIFORM_GRID_H_
