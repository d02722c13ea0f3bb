#include "env/environment.h"

#include "core/agent.h"
#include "core/resource_manager.h"
#include "sched/numa_thread_pool.h"

namespace bdm {

void Environment::ForEachNeighbor(const Agent& query, real_t squared_radius,
                                  NeighborFn fn) const {
  Search(query.GetPosition(), squared_radius, &query, fn);
}

// Generic pair traversal (kd-tree, octree): every dense agent searches
// around its snapshot position and keeps the partners with a larger dense
// index, so each unordered pair survives in exactly one of its two
// searches. The uniform grid overrides this with a traversal that needs no
// doubled searches.
void Environment::ForEachNeighborPair(real_t squared_radius,
                                      NumaThreadPool* pool,
                                      NeighborPairFn fn) const {
  const int64_t count = static_cast<int64_t>(DenseAgentCount());
  pool->RunLogicalSlabs(count, [&](int64_t lo, int64_t hi, int slab) {
    NeighborPair pair;
    for (int64_t i = lo; i < hi; ++i) {
      const NeighborData a = DenseSnapshot(static_cast<uint32_t>(i));
      pair.a_index = a.index;
      pair.a = a.agent;
      pair.a_position = a.position;
      pair.a_diameter = a.diameter;
      Search(a.position, squared_radius, a.agent, [&](const NeighborData& b) {
        if (b.index <= pair.a_index) {
          return;  // this pair is emitted from its other endpoint
        }
        pair.b_index = b.index;
        pair.b = b.agent;
        pair.b_position = b.position;
        pair.b_diameter = b.diameter;
        pair.squared_distance = b.squared_distance;
        fn(pair, slab);
      });
    }
  });
}

void Environment::BeginUpdate(const ResourceManager& rm) {
  num_filled_columns_ = 0;
  dense_of_row_.clear();
  row_offset_.assign(rm.GetNumDomains() + 1, 0);
  for (int d = 0; d < rm.GetNumDomains(); ++d) {
    row_offset_[d + 1] = row_offset_[d] + rm.GetNumAgents(d);
  }
}

void Environment::MapRowsToDense(const ResourceManager& rm) {
  Agent* const* agents = DenseAgents();
  dense_of_row_.resize(DenseAgentCount());
  for (uint32_t i = 0; i < DenseAgentCount(); ++i) {
    const AgentHandle h = rm.GetAgentHandle(agents[i]->GetUid());
    dense_of_row_[row_offset_[h.numa_domain] + h.index] = i;
  }
}

uint32_t Environment::CountAround(const Real3& position, real_t squared_radius,
                                  const Agent* exclude) const {
  uint32_t count = 0;
  Search(position, squared_radius, exclude,
         [&](const NeighborData&) { ++count; });
  return count;
}

uint32_t Environment::CountAtRow(uint64_t row, real_t squared_radius) const {
  const NeighborData self = DenseSnapshot(DenseIndexOfRow(row));
  return CountAround(self.position, squared_radius, self.agent);
}

void Environment::CountAllNeighbors(real_t squared_radius,
                                    NumaThreadPool* pool,
                                    uint32_t* counts) const {
  pool->ParallelFor(0, static_cast<int64_t>(DenseAgentCount()), 1024,
                    [&](int64_t lo, int64_t hi, int) {
                      for (int64_t row = lo; row < hi; ++row) {
                        counts[row] = CountAtRow(row, squared_radius);
                      }
                    });
}

void Environment::FillNeighborCounts(NumaThreadPool* pool) {
  const int registered = num_count_radii_.load(std::memory_order_acquire);
  for (int k = 0; k < registered; ++k) {
    CountColumn& column = count_columns_[k];
    column.counts.resize(DenseAgentCount());
    CountAllNeighbors(column.squared_radius, pool, column.counts.data());
  }
  num_filled_columns_ = registered;
}

int Environment::FindCountRadius(real_t squared_radius, int columns) const {
  int k = 0;
  while (k < columns && count_columns_[k].squared_radius != squared_radius) {
    ++k;
  }
  return k;
}

void Environment::RegisterCountRadius(real_t squared_radius) {
  // Lock-free check first: every agent of the registering iteration asks.
  int registered = num_count_radii_.load(std::memory_order_acquire);
  if (FindCountRadius(squared_radius, registered) < registered) {
    return;
  }
  std::lock_guard<std::mutex> lock(count_radii_mutex_);
  registered = num_count_radii_.load(std::memory_order_relaxed);
  if (registered < kMaxCountRadii &&
      FindCountRadius(squared_radius, registered) == registered) {
    count_columns_[registered].squared_radius = squared_radius;
    num_count_radii_.store(registered + 1, std::memory_order_release);
  }
}

const uint32_t* Environment::NeighborCountColumn(real_t squared_radius) const {
  const int k = FindCountRadius(squared_radius, num_filled_columns_);
  return k < num_filled_columns_ ? count_columns_[k].counts.data() : nullptr;
}

uint32_t Environment::CountNeighbors(const Agent& query, AgentHandle handle,
                                     real_t squared_radius) {
  // The handle has a row if its agent was indexed at the last Update.
  const uint16_t d = handle.numa_domain;
  const bool has_row = handle.IsValid() && d + size_t{1} < row_offset_.size() &&
                       handle.index < row_offset_[d + 1] - row_offset_[d];
  const uint64_t row = has_row ? row_offset_[d] + handle.index : 0;
  const uint32_t* column = NeighborCountColumn(squared_radius);
  if (column != nullptr && has_row) {
    return column[row];
  }
  RegisterCountRadius(squared_radius);
  return has_row ? CountAtRow(row, squared_radius)
                 : CountAround(query.GetPosition(), squared_radius, &query);
}

}  // namespace bdm
