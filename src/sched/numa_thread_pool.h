// Persistent worker-thread pool with logical NUMA placement and two-level
// work stealing (paper Section 4.1).
//
// OpenMP gives no control over which thread processes which NUMA domain's
// agents, which is why the paper implements its own mechanism. We do the
// same: a fixed set of worker threads, each logically pinned to a domain of
// the simulated Topology. Agent blocks are partitioned per domain, domain
// blocks are partitioned among the domain's threads, and an idle thread
// first steals blocks from a sibling thread in the same domain, then from
// threads of other domains.
//
// Dispatch model: each worker owns a mailbox queue of jobs. Several driver
// threads (the main thread, or a LaneExecutor's lane threads, one per
// shard of a ShardedSimulation) can dispatch concurrently to DISJOINT
// worker ranges ("teams"), which is what lets the shards step concurrently
// on the shared pool. A driver outside any team addresses the full pool; a
// lane thread bound via BindLane addresses only its current team.
#ifndef BDM_SCHED_NUMA_THREAD_POOL_H_
#define BDM_SCHED_NUMA_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "numa/topology.h"

namespace bdm {

/// Mutable worker-range assignment for a driver ("lane") thread. The
/// LaneExecutor owns one per lane; between bodies it rewrites the range,
/// and while a body runs it may only WIDEN it (grow-only rebalance), so any
/// range a dispatch snapshots is owned by that lane for the dispatch's
/// whole lifetime. Packed into one word so a reader never sees a torn
/// begin/end pair.
struct LaneBinding {
  std::atomic<uint64_t> range{0};

  void Store(int begin, int end) {
    range.store((static_cast<uint64_t>(static_cast<uint32_t>(begin)) << 32) |
                    static_cast<uint32_t>(end),
                std::memory_order_release);
  }
};

namespace internal {
/// Worker id of the calling pool thread (-1 outside any pool). Inline so
/// per-deposit hot paths (diffusion_grid.cc) resolve it with one TLS load
/// instead of a cross-TU call.
inline thread_local int t_pool_worker_id = -1;
/// Thread slot of the calling thread for per-thread shards (metrics,
/// diffusion deposit logs, pool allocator caches): 0 = main/unbound thread,
/// t+1 = pool worker t, lane threads bind slots past the workers. Distinct
/// slots are what keep two concurrently-stepping shards from sharing
/// shard 0.
inline thread_local int t_thread_slot = 0;
/// Team binding of the calling lane thread (nullptr = full pool).
inline thread_local LaneBinding* t_lane = nullptr;
/// Opaque per-thread dispatch context (the parallel shard driver stores the
/// shard's Simulation* here; core/simulation.h resolves GetActive through
/// it). RunOn captures the dispatcher's value into the job and each worker
/// adopts it for the job's duration, so a worker always sees the context of
/// the thread that dispatched to it -- the property that lets S lanes step
/// S different simulations on disjoint teams of ONE pool concurrently.
inline thread_local void* t_dispatch_context = nullptr;
/// Deposit key of the calling thread: 1 + the global index of the agent
/// iteration block it is running (ResourceManager::ForEachAgentParallel),
/// 0 outside an agent loop. DiffusionGrid folds deposits in key order, so
/// the fold does not depend on which worker ran which block.
inline thread_local uint64_t t_deposit_key = 0;
}  // namespace internal

/// Publishes `key` as the calling thread's deposit key for one agent block
/// and restores the previous key on exit. A block of a nested (inline)
/// agent loop keeps the enclosing block's key, so its deposits stay in that
/// block's serial order.
class ScopedDepositKey {
 public:
  explicit ScopedDepositKey(uint64_t key) : outer_(internal::t_deposit_key) {
    if (outer_ == 0) {
      internal::t_deposit_key = key;
    }
  }
  ~ScopedDepositKey() { internal::t_deposit_key = outer_; }
  ScopedDepositKey(const ScopedDepositKey&) = delete;
  ScopedDepositKey& operator=(const ScopedDepositKey&) = delete;

 private:
  uint64_t outer_;
};

class NumaThreadPool {
 public:
  /// Signature of a per-block callback: (domain, block_index, worker_tid).
  using BlockFn = std::function<void(int, int64_t, int)>;
  /// Signature of a range callback: [begin, end) plus the worker tid.
  using RangeFn = std::function<void(int64_t, int64_t, int)>;

  /// Contiguous worker range [begin, end) a dispatch addresses.
  struct Team {
    int begin = 0;
    int end = 0;
    int size() const { return end - begin; }
  };

  explicit NumaThreadPool(const Topology& topology);
  ~NumaThreadPool();

  NumaThreadPool(const NumaThreadPool&) = delete;
  NumaThreadPool& operator=(const NumaThreadPool&) = delete;

  const Topology& topology() const { return topology_; }
  int NumThreads() const { return topology_.NumThreads(); }

  /// Runs `job(tid)` on every worker of the calling thread's current team
  /// (the full pool for the main thread) and blocks until all return.
  /// When called from a pool worker (a nested pool invocation -- every
  /// worker of the team is already busy in the outer job, so dispatching
  /// would deadlock), the calling worker executes `job` inline exactly once
  /// under its own id. Nested ParallelFor/ForEachBlock calls therefore
  /// degrade to a serial loop on the caller that still covers the full
  /// range.
  void Run(const std::function<void(int)>& job);

  /// Runs `job(tid)` on every worker of an explicit `team` and blocks until
  /// all return. `tid` is the REAL worker id; rank-based callers compute
  /// `tid - team.begin`. Teams of concurrent dispatchers must be disjoint
  /// (the LaneExecutor guarantees this); overlapping dispatches are safe
  /// but serialize on the shared workers. If a worker throws out of `job`,
  /// the first exception is rethrown on the calling thread after the job
  /// drains (the other workers finish their share normally), so errors in
  /// parallel sections surface on the driver instead of terminating.
  void RunOn(Team team, const std::function<void(int)>& job);

  /// Covers slot indices [0, num_slots) from the calling thread's team:
  /// each team worker runs `fn(slot)` for one contiguous chunk of slots.
  /// This is the primitive for jobs keyed by a per-thread BUFFER index
  /// rather than by the executing worker (logical slabs, the diffusion
  /// grid's z-slabs): with a partial team every slot is still covered
  /// exactly once.
  /// With the full team and num_slots == NumThreads() it degenerates to
  /// Run's one-slot-per-worker shape (slot == tid), bitwise-identical work
  /// placement to the pre-team pool.
  void RunSlots(int num_slots, const std::function<void(int)>& fn);

  /// Dynamically-scheduled parallel loop over [begin, end) in chunks of
  /// `grain` iterations. Chunks are handed out through a shared counter,
  /// which matches OpenMP's schedule(dynamic) that the paper's generic loops
  /// use.
  void ParallelFor(int64_t begin, int64_t end, int64_t grain, const RangeFn& fn);

  /// Logical partition for static slab passes over [0, count): the
  /// pair-force scatter, whose per-slab buffers and sum order must not
  /// follow the calling team, and the plain copies and reductions over the
  /// SoA store (grid bounds, geometry refresh). [0, count) is cut
  /// into NumLogicalSlabs() even slabs, fixed for the pool's lifetime. Slab
  /// s is [LogicalSlabBegin(count, s), LogicalSlabBegin(count, s + 1)).
  /// NumLogicalSlabs() is the smallest multiple of NumThreads() that is at
  /// least kMinLogicalSlabs, so the full team always splits into equal runs
  /// of slabs, and every pool of 1, 2, 4, 8 or 16 workers cuts the same 16
  /// slabs (and so sums in the same order). Other pool sizes cut more slabs
  /// (3 workers: 18, 12: 24, 72: 72). More slabs cut more neighbour pairs at
  /// slab borders, and the pair-force logs grow with those (EXPERIMENTS.md
  /// "One force row per agent").
  static constexpr int kMinLogicalSlabs = 16;
  int NumLogicalSlabs() const { return num_logical_slabs_; }
  int64_t LogicalSlabBegin(int64_t count, int slab) const {
    return count * slab / num_logical_slabs_;
  }
  /// The logical slab holding `row` of [0, count).
  int LogicalSlabOf(int64_t count, int64_t row) const {
    return static_cast<int>(((row + 1) * num_logical_slabs_ - 1) / count);
  }
  /// Runs `fn(lo, hi, s)` for every logical slab s of [0, count), empty ones
  /// included, through RunSlots: each worker of the calling thread's team
  /// runs one contiguous run of slabs, and a slab runs on one worker. With
  /// the full team and metrics on, it sets the sched.slab_imbalance gauge
  /// to max/mean of the wall times of the workers that had at least one
  /// non-empty slab, and counts one sched.slab_dispatches; full-team
  /// dispatches do not overlap, so the gauge has one writer at a time.
  void RunLogicalSlabs(int64_t count, const RangeFn& fn);

  /// NUMA-aware iteration over blocks (paper Fig. 2). `blocks_per_domain[d]`
  /// blocks exist in domain d; `fn` is invoked exactly once per block. With
  /// `numa_aware == false` the domain structure is ignored and all blocks go
  /// through one shared counter -- this is the engine's "NUMA-aware
  /// iteration off" configuration used in the Section 6.10 benchmark.
  /// Work stealing drains every per-thread cursor, so a partial team still
  /// covers all blocks.
  void ForEachBlock(const std::vector<int64_t>& blocks_per_domain, bool numa_aware,
                    const BlockFn& fn);

  /// True when no dispatch is in flight and every mailbox is empty: the
  /// "strictly between parallel regions" precondition of the metric shard
  /// fold at the end of a main-thread iteration.
  bool Quiescent() const;

  /// Thread id of the calling pool worker, or -1 when called from a thread
  /// that does not belong to any pool.
  static int CurrentThreadId() { return internal::t_pool_worker_id; }

  /// Per-thread shard slot of the calling thread (0 = main/unbound,
  /// t+1 = pool worker t, lane threads as bound via BindLane).
  static int CurrentThreadSlot() { return internal::t_thread_slot; }

  /// Deposit key of the calling thread (see internal::t_deposit_key).
  static uint64_t CurrentDepositKey() { return internal::t_deposit_key; }

  /// Binds the calling thread to `lane` for team resolution and to
  /// `thread_slot` for shard indexing. Pass (nullptr, 0) to unbind (main
  /// thread semantics). Called once by each LaneExecutor lane thread.
  static void BindLane(LaneBinding* lane, int thread_slot) {
    internal::t_lane = lane;
    internal::t_thread_slot = thread_slot;
  }

  /// The calling thread's current team: the bound lane's worker range, or
  /// the full pool for unbound threads.
  Team CurrentTeam() const;

 private:
  struct Cursor {
    // Own range of block indices [next, end); thieves fetch_add on `next`.
    alignas(64) std::atomic<int64_t> next{0};
    int64_t end = 0;
  };

  /// One dispatch: the job closure plus how many workers still owe a run.
  /// Lives on the dispatcher's stack for the duration of its RunOn.
  /// `context` snapshots the dispatcher's t_dispatch_context; workers adopt
  /// it while running the job (see internal::t_dispatch_context above).
  struct JobState {
    const std::function<void(int)>* fn;
    int pending;
    void* context;
    /// First exception a team worker threw out of `fn`; RunOn rethrows it
    /// on the driver once the job drains (remaining workers finish their
    /// share normally -- cursor-based jobs stay fully covered).
    std::exception_ptr error = nullptr;
  };

  void WorkerLoop(int tid);

  Topology topology_;
  int num_logical_slabs_;
  std::vector<std::thread> workers_;

  // Mailbox dispatch: RunOn enqueues one JobState* per team worker; each
  // worker pops from its own queue. Multiple drivers (main thread, shard
  // lanes) enqueue concurrently under mutex_; disjoint teams never touch
  // the same mailbox, so co-running shards proceed independently.
  mutable std::mutex mutex_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  std::vector<std::deque<JobState*>> queues_;
  int active_jobs_ = 0;  // dispatches not yet fully completed
  bool shutdown_ = false;
};

}  // namespace bdm

#endif  // BDM_SCHED_NUMA_THREAD_POOL_H_
