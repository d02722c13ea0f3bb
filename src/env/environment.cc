#include "env/environment.h"

#include "core/agent.h"
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
  const auto slabs = pool->MakeSlabPartition(0, count);
  pool->RunSlabs(slabs, [&](int64_t lo, int64_t hi, int tid) {
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
        fn(pair, tid);
      });
    }
  });
}

}  // namespace bdm
