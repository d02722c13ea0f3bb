#include "env/uniform_grid.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "core/agent.h"
#include "core/resource_manager.h"
#include "obs/metrics.h"

namespace bdm {

namespace {

struct GridMetrics {
  int rebuilds = MetricsRegistry::Get().RegisterCounter("env.grid_rebuilds");
  int agents_indexed =
      MetricsRegistry::Get().RegisterCounter("env.grid_agents_indexed");
  int timestamp_wraps =
      MetricsRegistry::Get().RegisterCounter("env.grid_timestamp_wraps");
  int pair_visits =
      MetricsRegistry::Get().RegisterCounter("env.neighbor_pair_visits");
  int num_boxes = MetricsRegistry::Get().RegisterGauge("env.grid_num_boxes");
  int box_length = MetricsRegistry::Get().RegisterGauge("env.grid_box_length");
  int mirror_bytes =
      MetricsRegistry::Get().RegisterGauge("env.grid_mirror_bytes");
};

const GridMetrics& Metrics() {
  static const GridMetrics metrics;
  return metrics;
}

struct alignas(64) BoundsPartial {
  Real3 lower{std::numeric_limits<real_t>::max(),
              std::numeric_limits<real_t>::max(),
              std::numeric_limits<real_t>::max()};
  Real3 upper{std::numeric_limits<real_t>::lowest(),
              std::numeric_limits<real_t>::lowest(),
              std::numeric_limits<real_t>::lowest()};
  real_t largest_diameter = 0;
};

}  // namespace

void UniformGridEnvironment::Update(const ResourceManager& rm,
                                    NumaThreadPool* pool) {
  BeginUpdate(rm);
  const uint64_t total = rm.GetNumAgents();
  successors_.resize(total);
  const bool store_mode = param_->soa_primary;
  if (store_mode) {
    // SoA-primary: bring the persistent store up to date (a quiescent
    // population costs nothing here) and point the search views at it. The
    // grid keeps no copy of its own.
    SoaStore& store = rm.GetSoaStore();
    store.EnsureCurrent(rm, pool);
    flat_agents_ = store.agents();
    pos_x_ = store.pos_x();
    pos_y_ = store.pos_y();
    pos_z_ = store.pos_z();
    diameters_ = store.diameter();
  } else {
    own_agents_.resize(total);
    own_pos_x_.resize(total);
    own_pos_y_.resize(total);
    own_pos_z_.resize(total);
    own_diameters_.resize(total);
    flat_agents_ = own_agents_.data();
    pos_x_ = own_pos_x_.data();
    pos_y_ = own_pos_y_.data();
    pos_z_ = own_pos_z_.data();
    diameters_ = own_diameters_.data();
  }
  dense_count_ = total;
  if (total == 0) {
    nx_ = ny_ = nz_ = 0;
    return;
  }

  // One partial per logical slab; the legacy path's worker ids index the
  // same array (NumThreads() <= NumLogicalSlabs()). Min/max reductions do
  // not depend on how the partials are cut.
  std::vector<BoundsPartial> partials(pool->NumLogicalSlabs());
  if (store_mode) {
    // The store already holds the geometry; only the bounding box and the
    // largest diameter must be reduced, over contiguous arrays.
    pool->RunLogicalSlabs(total, [&](int64_t lo, int64_t hi, int slab) {
      BoundsPartial& p = partials[slab];
      for (int64_t i = lo; i < hi; ++i) {
        p.lower.x = std::min(p.lower.x, pos_x_[i]);
        p.lower.y = std::min(p.lower.y, pos_y_[i]);
        p.lower.z = std::min(p.lower.z, pos_z_[i]);
        p.upper.x = std::max(p.upper.x, pos_x_[i]);
        p.upper.y = std::max(p.upper.y, pos_y_[i]);
        p.upper.z = std::max(p.upper.z, pos_z_[i]);
        p.largest_diameter = std::max(p.largest_diameter, diameters_[i]);
      }
    });
  } else {
    // Legacy mode: flatten the per-domain vectors -- agent pointers plus the
    // SoA mirror of position and diameter -- and reduce bounding box plus
    // largest diameter in one parallel pass. Domain-major order keeps the
    // mirror NUMA-ordered like the flat agent array.
    std::vector<uint64_t> domain_offset(rm.GetNumDomains() + 1, 0);
    for (int d = 0; d < rm.GetNumDomains(); ++d) {
      domain_offset[d + 1] = domain_offset[d] + rm.GetNumAgents(d);
    }
    for (int d = 0; d < rm.GetNumDomains(); ++d) {
      const auto& agents = rm.GetAgentVector(d);
      const uint64_t offset = domain_offset[d];
      pool->ParallelFor(
          0, static_cast<int64_t>(agents.size()), 4096,
          [&](int64_t lo, int64_t hi, int tid) {
            BoundsPartial& p = partials[tid];
            for (int64_t i = lo; i < hi; ++i) {
              Agent* agent = agents[i];
              own_agents_[offset + i] = agent;
              const Real3& pos = agent->GetPosition();
              const real_t diameter = agent->GetDiameter();
              own_pos_x_[offset + i] = pos.x;
              own_pos_y_[offset + i] = pos.y;
              own_pos_z_[offset + i] = pos.z;
              own_diameters_[offset + i] = diameter;
              for (int c = 0; c < 3; ++c) {
                p.lower[c] = std::min(p.lower[c], pos[c]);
                p.upper[c] = std::max(p.upper[c], pos[c]);
              }
              p.largest_diameter = std::max(p.largest_diameter, diameter);
            }
          });
    }
  }
  BoundsPartial result;
  for (const BoundsPartial& p : partials) {
    for (int c = 0; c < 3; ++c) {
      result.lower[c] = std::min(result.lower[c], p.lower[c]);
      result.upper[c] = std::max(result.upper[c], p.upper[c]);
    }
    result.largest_diameter = std::max(result.largest_diameter, p.largest_diameter);
  }
  lower_ = result.lower;
  upper_ = result.upper;
  largest_diameter_ = result.largest_diameter;

  box_length_ = param_->fixed_box_length > 0 ? param_->fixed_box_length
                                             : largest_diameter_;
  box_length_ = std::max<real_t>(box_length_, 1e-6);

  // Sparse-space guard: a huge, sparsely populated space must not blow up
  // the boxes array (searches stay correct with a coarser grid because the
  // ring count adapts to radius / box_length). Overflow-safe: each
  // dimension is bounded before it enters the product, so a huge bounding
  // box with a tiny box length cannot overflow int64 -- neither in the
  // per-dimension cast nor in the dim(0)*dim(1)*dim(2) comparison.
  const int64_t max_boxes =
      std::max<int64_t>(int64_t{1} << 21, 32 * static_cast<int64_t>(total));
  const auto grid_too_large = [&](real_t length) {
    int64_t product = 1;
    for (int c = 0; c < 3; ++c) {
      const real_t extent = (upper_[c] - lower_[c]) / length;
      if (!(extent < static_cast<real_t>(max_boxes))) {
        return true;  // this dimension alone exceeds the cap
      }
      const int64_t d = static_cast<int64_t>(std::floor(extent)) + 1;
      if (d > max_boxes / product) {
        return true;  // product would exceed the cap (or overflow)
      }
      product *= d;
    }
    return false;
  };
  while (grid_too_large(box_length_)) {
    box_length_ *= 2;
  }
  // Searches and the build multiply by the precomputed inverse instead of
  // dividing; both sides use the same expression so an agent is always
  // found in the box it was inserted into.
  inv_box_length_ = real_t{1} / box_length_;

  const auto dim = [&](int c) {
    return static_cast<int64_t>(
               std::floor((upper_[c] - lower_[c]) * inv_box_length_)) + 1;
  };
  const int64_t nx = dim(0), ny = dim(1), nz = dim(2);
  const int64_t num_boxes = nx * ny * nz;

  // Timestamp management: a fresh boxes array starts with timestamp 0 in
  // every word, so the grid's own timestamp starts at 1; on 16-bit wrap the
  // boxes are cleared once to keep "stale timestamp == empty box" sound.
  // Dimension changes (moving bounding box) reuse the existing array when
  // it is large enough: entries written under the old index mapping carry a
  // stale timestamp and are therefore invisible, so no clearing is needed
  // -- this keeps per-iteration cost O(#agents) even when agents move far
  // (the epidemiology workload).
  if (num_boxes > static_cast<int64_t>(boxes_.size())) {
    // 1.5x headroom amortizes reallocation when the bounding box grows a
    // little every iteration (random-walk workloads).
    boxes_ = std::vector<std::atomic<uint64_t>>(num_boxes + num_boxes / 2);
    timestamp_ = 1;
  } else if (++timestamp_ == 0) {
    pool->ParallelFor(0, static_cast<int64_t>(boxes_.size()), 1 << 15,
                      [&](int64_t lo, int64_t hi, int) {
      for (int64_t i = lo; i < hi; ++i) {
        boxes_[i].store(0, std::memory_order_relaxed);
      }
    });
    timestamp_ = 1;
    if (MetricsRegistry::Enabled()) {
      MetricsRegistry::Get().Add(Metrics().timestamp_wraps, 1);
    }
  }
  nx_ = nx;
  ny_ = ny;
  nz_ = nz;
  int f = 0;
  for (int64_t dz = -1; dz <= 1; ++dz) {
    for (int64_t dy = -1; dy <= 1; ++dy) {
      for (int64_t dx = -1; dx <= 1; ++dx) {
        if (dz > 0 || (dz == 0 && (dy > 0 || (dy == 0 && dx > 0)))) {
          forward_stencil_[f++] = dx + nx_ * (dy + ny_ * dz);
        }
      }
    }
  }

  // Assign all agents to boxes in parallel. The packed word makes the
  // "stale box" reset and the list push one atomic CAS. Box coordinates
  // come from the just-filled SoA mirror, not the agent.
  pool->ParallelFor(
      0, static_cast<int64_t>(total), 4096, [&](int64_t lo, int64_t hi, int) {
        for (int64_t i = lo; i < hi; ++i) {
          const auto c =
              BoxCoordinates({pos_x_[i], pos_y_[i], pos_z_[i]});
          const int64_t flat = FlatBoxIndex(c[0], c[1], c[2]);
          std::atomic<uint64_t>& box = boxes_[flat];
          uint64_t word = box.load(std::memory_order_acquire);
          for (;;) {
            const bool fresh = Timestamp(word) == timestamp_;
            const uint16_t count = fresh ? Count(word) : 0;
            if (count == 0xFFFF) {
              // The 16-bit count would wrap to 0 and the box read as empty.
              std::ostringstream os;
              os << "uniform_grid: box " << flat << " (" << c[0] << ", "
                 << c[1] << ", " << c[2] << ") holds more than 65535 agents";
              throw std::overflow_error(os.str());
            }
            successors_[i] = fresh ? Head(word) : kChainEnd;
            const uint64_t desired =
                Pack(timestamp_, count + 1, static_cast<uint32_t>(i));
            if (box.compare_exchange_weak(word, desired,
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
              break;
            }
          }
        }
      });

  if (MetricsRegistry::Enabled()) {
    // Rebuild + SoA-mirror volume: once per Update, on the calling thread.
    auto& registry = MetricsRegistry::Get();
    const GridMetrics& ids = Metrics();
    registry.Add(ids.rebuilds, 1);
    registry.Add(ids.agents_indexed, total);
    registry.SetGauge(ids.num_boxes, static_cast<double>(num_boxes));
    registry.SetGauge(ids.box_length, static_cast<double>(box_length_));
    registry.SetGauge(ids.mirror_bytes,
                      static_cast<double>(MemoryFootprint()));
  }
}

std::array<int64_t, 3> UniformGridEnvironment::BoxCoordinates(
    const Real3& position) const {
  std::array<int64_t, 3> c;
  const std::array<int64_t, 3> n = {nx_, ny_, nz_};
  for (int i = 0; i < 3; ++i) {
    c[i] = std::clamp<int64_t>(BoxCoordinate(position[i], i), 0, n[i] - 1);
  }
  return c;
}

// The one search: position, diameter and distance of every reported
// neighbor all come from the Update-time SoA arrays, so they agree with
// each other while behaviors move agents, and no neighbor Agent is read.
// Candidates collect branch-free into one hit buffer over the whole cube;
// the exclusion compare and the callback run on the hits afterwards, in
// visit order.
void UniformGridEnvironment::Search(const Real3& position,
                                    real_t squared_radius, const Agent* exclude,
                                    NeighborFn fn) const {
  if (dense_count_ == 0) {
    return;
  }
  HitBuffer hits;
  const auto report = [&](uint32_t count) {
    for (uint32_t k = 0; k < count; ++k) {
      const uint32_t idx = static_cast<uint32_t>(hits.owner_index[k]);
      if (flat_agents_[idx] != exclude) {
        fn({flat_agents_[idx], idx, {pos_x_[idx], pos_y_[idx], pos_z_[idx]},
            diameters_[idx], hits.d2[k]});
      }
    }
  };
  // The boxes the query's bounding cube overlaps, by the formula the build
  // assigns boxes with. The half-width is widened by kEpsilon (relative):
  // a neighbor that d2 <= r2 accepts despite rounding still lies inside.
  // Boxes outside the grid hold no agents.
  const real_t reach = std::sqrt(squared_radius) * (1 + kEpsilon);
  std::array<int64_t, 3> lo;
  std::array<int64_t, 3> hi;
  const std::array<int64_t, 3> dims = {nx_, ny_, nz_};
  for (int c = 0; c < 3; ++c) {
    lo[c] = std::max<int64_t>(BoxCoordinate(position[c] - reach, c), 0);
    hi[c] = std::min<int64_t>(BoxCoordinate(position[c] + reach, c),
                              dims[c] - 1);
  }
  uint32_t n = 0;
  for (int64_t z = lo[2]; z <= hi[2]; ++z) {
    for (int64_t y = lo[1]; y <= hi[1]; ++y) {
      for (int64_t x = lo[0]; x <= hi[0]; ++x) {
        n = CollectHits(BoxChain(FlatBoxIndex(x, y, z)), 0, position,
                        squared_radius, hits, n, report);
      }
    }
  }
  report(n);
}

// Half-stencil pair traversal. Correctness argument:
//  * Same box: agents inserted earlier follow an agent in the LIFO successor
//    chain, so walking the chain from agent i emits each intra-box pair
//    exactly once, from its later-inserted endpoint.
//  * Different boxes: both boxes of an interacting pair lie in each other's
//    3x3x3 cube (radius <= box length). Exactly one of the two coordinate
//    deltas is lexicographically positive, so exactly one endpoint scans the
//    other's box through the forward half stencil.
// The dense range is walked in logical slabs; each worker runs one
// contiguous run of them (the same NUMA-ordered layout the flatten pass
// produced), so a domain's threads read mostly their own domain's mirror
// entries.
void UniformGridEnvironment::ForEachNeighborPair(real_t squared_radius,
                                                 NumaThreadPool* pool,
                                                 NeighborPairFn fn) const {
  const int64_t total = static_cast<int64_t>(dense_count_);
  if (total == 0) {
    return;
  }
  if (!HalfStencilCovers(squared_radius)) {
    // One forward ring only covers radii up to the box length; wider
    // queries take the generic doubled-search traversal.
    Environment::ForEachNeighborPair(squared_radius, pool, fn);
    return;
  }
  pool->RunLogicalSlabs(total, [&](int64_t lo, int64_t hi, int slab) {
    if (lo >= hi) {
      return;
    }
    NeighborPair pair;
    ForEachNeighborPairInSlab(
        squared_radius, lo, hi, [&](uint32_t i, uint32_t j, real_t d2) {
          pair.a_index = i;
          pair.a = flat_agents_[i];
          pair.a_position = {pos_x_[i], pos_y_[i], pos_z_[i]};
          pair.a_diameter = diameters_[i];
          pair.b_index = j;
          pair.b = flat_agents_[j];
          pair.b_position = {pos_x_[j], pos_y_[j], pos_z_[j]};
          pair.b_diameter = diameters_[j];
          pair.squared_distance = d2;
          fn(pair, slab);
        });
  });
}

// Count pass: the walk emits pairs in owner order, so one register holds
// the current owner's count until the owner changes; partners may belong to
// any chunk and take a relaxed atomic add. Chunks are handed out
// dynamically: a slab's cost follows its local density.
void UniformGridEnvironment::CountAllNeighbors(real_t squared_radius,
                                               NumaThreadPool* pool,
                                               uint32_t* counts) const {
  if (!HalfStencilCovers(squared_radius)) {
    Environment::CountAllNeighbors(squared_radius, pool, counts);
    return;
  }
  const int64_t total = static_cast<int64_t>(dense_count_);
  std::fill(counts, counts + total, 0);
  pool->ParallelFor(0, total, 4096, [&](int64_t lo, int64_t hi, int) {
    uint32_t owner = static_cast<uint32_t>(lo);
    uint32_t owner_count = 0;
    WalkPairsInSlab(squared_radius, lo, hi,
                    [&](uint32_t i, uint32_t j, real_t) {
                      if (i != owner) {
                        std::atomic_ref<uint32_t>(counts[owner])
                            .fetch_add(owner_count, std::memory_order_relaxed);
                        owner = i;
                        owner_count = 0;
                      }
                      ++owner_count;
                      std::atomic_ref<uint32_t>(counts[j]).fetch_add(
                          1, std::memory_order_relaxed);
                    });
    std::atomic_ref<uint32_t>(counts[owner])
        .fetch_add(owner_count, std::memory_order_relaxed);
  });
}

void UniformGridEnvironment::CountPairVisits(uint64_t pairs_visited) const {
  if (MetricsRegistry::Enabled() && pairs_visited > 0) {
    // Self-resolving overload: the pair walk's callbacks receive a logical
    // slab index (RunLogicalSlabs), not the executing thread's slot; that
    // slot is always race-free.
    MetricsRegistry::Get().Add(Metrics().pair_visits, pairs_visited);
  }
}

// The grid's Update snapshots agent state (flat array, SoA mirror, box
// chains); the audit replays every invariant that snapshot must satisfy
// against the resource manager. Correct only right after Update, before any
// behavior moved an agent (mirror == live holds then).
void UniformGridEnvironment::AuditConsistency(
    const ResourceManager& rm, std::vector<std::string>* violations) const {
  const auto complain = [&](const std::string& what) {
    violations->push_back("uniform_grid: " + what);
  };
  const uint64_t total = rm.GetNumAgents();
  if (dense_count_ != total || successors_.size() != total) {
    complain("dense index count disagrees with the agent count " +
             std::to_string(total));
    return;  // every check below indexes the dense arrays
  }
  if (total == 0) {
    return;
  }
  for (uint64_t i = 0; i < total; ++i) {
    Agent* agent = flat_agents_[i];
    if (agent == nullptr) {
      complain("flat_agents_[" + std::to_string(i) + "] is null");
      return;
    }
    if (rm.GetAgent(agent->GetUid()) != agent) {
      std::ostringstream os;
      os << "flat_agents_[" << i << "] (uid " << agent->GetUid()
         << ") is not the resource manager's agent for that uid";
      complain(os.str());
    }
    const Real3& pos = agent->GetPosition();
    if (pos_x_[i] != pos.x || pos_y_[i] != pos.y || pos_z_[i] != pos.z ||
        diameters_[i] != agent->GetDiameter()) {
      std::ostringstream os;
      os << "SoA mirror of agent " << agent->GetUid()
         << " disagrees with the live position/diameter";
      complain(os.str());
    }
  }
  // Box chains: every box's chain must stay within bounds, visit distinct
  // agents and end in kChainEnd right after its count (the pair walk's
  // own-box scan stops at the sentinel); the chain lengths must add up to
  // the agent count; and every agent must be reachable in the box its
  // mirrored position maps to.
  std::vector<uint8_t> seen(total, 0);
  uint64_t chained = 0;
  for (int64_t flat = 0; flat < GetNumBoxes(); ++flat) {
    const uint64_t word = boxes_[flat].load(std::memory_order_acquire);
    if (Timestamp(word) != timestamp_) {
      continue;
    }
    uint32_t idx = Head(word);
    for (uint32_t k = 0, count = Count(word); k < count; ++k) {
      if (idx >= total) {
        complain("box " + std::to_string(flat) +
                 " chain leaves the flat index range");
        return;
      }
      if (seen[idx] != 0) {
        complain("flat index " + std::to_string(idx) +
                 " appears in more than one box chain position");
        return;
      }
      seen[idx] = 1;
      ++chained;
      const auto c = BoxCoordinates({pos_x_[idx], pos_y_[idx], pos_z_[idx]});
      if (FlatBoxIndex(c[0], c[1], c[2]) != flat) {
        std::ostringstream os;
        os << "agent " << flat_agents_[idx]->GetUid() << " is chained in box "
           << flat << " but its mirrored position maps to box "
           << FlatBoxIndex(c[0], c[1], c[2]);
        complain(os.str());
      }
      idx = successors_[idx];
    }
    if (idx != kChainEnd) {
      complain("box " + std::to_string(flat) +
               " chain does not end after its count");
    }
  }
  if (chained != total) {
    complain("box chains cover " + std::to_string(chained) + " of " +
             std::to_string(total) + " agents");
  }
}

size_t UniformGridEnvironment::MemoryFootprint() const {
  // Grid-owned bytes only. In SoA-primary mode the attribute arrays belong
  // to the shared SoaStore (reported by the soa/mirror_bytes gauge), so the
  // legacy mirror vectors below stay at capacity zero.
  return boxes_.size() * sizeof(uint64_t) +
         successors_.capacity() * sizeof(uint32_t) +
         own_agents_.capacity() * sizeof(Agent*) +
         (own_pos_x_.capacity() + own_pos_y_.capacity() +
          own_pos_z_.capacity() + own_diameters_.capacity()) * sizeof(real_t);
}

}  // namespace bdm
