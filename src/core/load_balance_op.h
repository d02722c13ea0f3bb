// Agent sorting and NUMA balancing (paper Section 4.2, Figure 3).
//
// Runs as a pre-standalone operation with a configurable frequency
// (param.agent_sort_frequency, studied in Figure 12). The operation:
//   1. refreshes the uniform grid so box contents match the committed state,
//   2. derives the Morton-ordered sequence of in-space boxes via the
//      linear-time gap algorithm (spatial/morton.h),
//   3. prefix-sums per-box agent counts and cuts the sequence into one
//      segment per NUMA domain (share proportional to its thread count) and
//      per thread (equal share within a domain),
//   4. each thread walks its segment's boxes and writes every agent's
//      pointer into rebuilt per-domain vectors. An agent is relocated --
//      copied by that thread, so the pool allocator places the copy in the
//      thread's domain -- only when relocation buys placement: always under
//      param.sort_with_extra_memory, otherwise only on two or more domains
//      and only an agent whose memory is not in its new domain's pool
//      (MemoryManager::DomainOf; without the pool manager that is every
//      agent). Every other agent keeps its object.
// A relocated agent's old object is freed immediately after its copy, or
// after the whole step when param.sort_with_extra_memory is set (the "extra
// memory" variant of Figure 9), so no copy reuses a slot its own step
// freed.
//
// Only the uniform grid environment supports this operation (as in the
// paper); with other environments it is a no-op.
#ifndef BDM_CORE_LOAD_BALANCE_OP_H_
#define BDM_CORE_LOAD_BALANCE_OP_H_

#include <array>
#include <cstdint>
#include <vector>

#include "core/operation.h"
#include "core/param.h"

namespace bdm {

class NumaThreadPool;
class UniformGridEnvironment;

class LoadBalanceOp : public StandaloneOperation {
 public:
  explicit LoadBalanceOp(int frequency)
      : StandaloneOperation("load_balancing", frequency) {
    // Rewrites the whole population layout (agents move between slots and
    // domains): conflicts with everything, like the commit.
    DeclareResources(kResAll, kResAll);
  }
  void Run(Simulation* sim) override;

 private:
  /// Fills flat_of_rank_ for the grid's dimensions and `curve` unless it
  /// already holds them.
  void BuildRankTable(const UniformGridEnvironment& grid, SortingCurve curve,
                      NumaThreadPool* pool);

  // Curve rank -> flat box index. Depends only on the grid dimensions and
  // the curve, so it is kept across calls.
  std::vector<int64_t> flat_of_rank_;
  std::array<int64_t, 3> rank_dims_ = {0, 0, 0};
  SortingCurve rank_curve_ = SortingCurve::kMorton;
  // Per-box agent counts in curve order, then their inclusive prefix sum.
  std::vector<uint64_t> counts_;
};

}  // namespace bdm

#endif  // BDM_CORE_LOAD_BALANCE_OP_H_
