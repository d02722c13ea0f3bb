#include "sched/numa_thread_pool.h"

#include <algorithm>
#include <cassert>
#include <chrono>

#include "obs/metrics.h"

namespace bdm {

namespace {

// Counter/gauge ids are resolved once per process (registration locks; the
// hot paths below only do shard adds with the cached ids).
struct SchedMetrics {
  int own_blocks = MetricsRegistry::Get().RegisterCounter("sched.blocks_own");
  int local_steal_attempts =
      MetricsRegistry::Get().RegisterCounter("sched.steal_local_attempts");
  int local_steal_blocks =
      MetricsRegistry::Get().RegisterCounter("sched.steal_local_blocks");
  int remote_steal_attempts =
      MetricsRegistry::Get().RegisterCounter("sched.steal_remote_attempts");
  int remote_steal_blocks =
      MetricsRegistry::Get().RegisterCounter("sched.steal_remote_blocks");
  int slab_dispatches =
      MetricsRegistry::Get().RegisterCounter("sched.slab_dispatches");
  int slab_imbalance =
      MetricsRegistry::Get().RegisterGauge("sched.slab_imbalance");
};

const SchedMetrics& Metrics() {
  static const SchedMetrics metrics;
  return metrics;
}

}  // namespace

NumaThreadPool::NumaThreadPool(const Topology& topology)
    : topology_(topology),
      num_logical_slabs_(
          topology.NumThreads() *
          ((kMinLogicalSlabs + topology.NumThreads() - 1) /
           topology.NumThreads())) {
  // Any pool guarantees the metrics registry folds its workers' shards,
  // even when the pool is used standalone (tests) without a Simulation.
  MetricsRegistry::Get().ConfigureSlots(topology_.NumThreads() + 1);
  queues_.resize(topology_.NumThreads());
  workers_.reserve(topology_.NumThreads());
  for (int tid = 0; tid < topology_.NumThreads(); ++tid) {
    workers_.emplace_back([this, tid] { WorkerLoop(tid); });
  }
}

NumaThreadPool::~NumaThreadPool() {
  {
    std::unique_lock lock(mutex_);
    shutdown_ = true;
  }
  cv_start_.notify_all();
  for (auto& w : workers_) {
    w.join();
  }
}

void NumaThreadPool::WorkerLoop(int tid) {
  internal::t_pool_worker_id = tid;
  internal::t_thread_slot = tid + 1;
  std::unique_lock lock(mutex_);
  for (;;) {
    cv_start_.wait(lock, [&] { return shutdown_ || !queues_[tid].empty(); });
    if (queues_[tid].empty()) {
      return;  // shutdown with a drained mailbox
    }
    JobState* job = queues_[tid].front();
    queues_[tid].pop_front();
    lock.unlock();
    internal::t_dispatch_context = job->context;
    std::exception_ptr error = nullptr;
    try {
      (*job->fn)(tid);
    } catch (...) {
      error = std::current_exception();
    }
    internal::t_dispatch_context = nullptr;
    lock.lock();
    if (error && !job->error) {
      job->error = error;
    }
    if (--job->pending == 0) {
      // notify_all: several drivers may be blocked on different jobs.
      cv_done_.notify_all();
    }
  }
}

NumaThreadPool::Team NumaThreadPool::CurrentTeam() const {
  const LaneBinding* lane = internal::t_lane;
  if (lane == nullptr) {
    return Team{0, NumThreads()};
  }
  const uint64_t packed = lane->range.load(std::memory_order_acquire);
  Team team{static_cast<int>(packed >> 32),
            static_cast<int>(static_cast<uint32_t>(packed))};
  team.begin = std::clamp(team.begin, 0, NumThreads());
  team.end = std::clamp(team.end, team.begin, NumThreads());
  return team;
}

void NumaThreadPool::RunOn(Team team, const std::function<void(int)>& job) {
  // Nested invocation: a job running on a pool worker dispatched another
  // pool call (e.g. an agent operation that commits removals). The team's
  // workers are all busy in the outer job, so dispatching would deadlock;
  // instead the calling worker executes the job inline, once, under its own
  // id. Cursor-based jobs (ParallelFor, ForEachBlock) drain the full range
  // that way -- one worker, every chunk.
  const int worker = internal::t_pool_worker_id;
  if (worker >= 0) {
    job(worker);
    return;
  }
  team.begin = std::clamp(team.begin, 0, NumThreads());
  team.end = std::clamp(team.end, team.begin, NumThreads());
  if (team.size() == 0) {
    return;
  }
  JobState state{&job, team.size(), internal::t_dispatch_context};
  std::unique_lock lock(mutex_);
  ++active_jobs_;
  for (int t = team.begin; t < team.end; ++t) {
    queues_[t].push_back(&state);
  }
  cv_start_.notify_all();
  cv_done_.wait(lock, [&] { return state.pending == 0; });
  --active_jobs_;
  if (state.error) {
    std::rethrow_exception(state.error);
  }
}

void NumaThreadPool::Run(const std::function<void(int)>& job) {
  const int worker = internal::t_pool_worker_id;
  if (worker >= 0) {
    job(worker);
    return;
  }
  RunOn(CurrentTeam(), job);
}

void NumaThreadPool::RunSlots(int num_slots, const std::function<void(int)>& fn) {
  if (num_slots <= 0) {
    return;
  }
  if (NumThreads() == 1 || internal::t_pool_worker_id >= 0) {
    for (int s = 0; s < num_slots; ++s) {
      fn(s);
    }
    return;
  }
  const Team team = CurrentTeam();
  const int k = std::min(team.size(), num_slots);
  if (k <= 1) {
    RunOn({team.begin, team.begin + 1}, [&](int) {
      for (int s = 0; s < num_slots; ++s) {
        fn(s);
      }
    });
    return;
  }
  RunOn({team.begin, team.begin + k}, [&](int tid) {
    const int rank = tid - team.begin;
    const int lo = static_cast<int>(static_cast<int64_t>(rank) * num_slots / k);
    const int hi =
        static_cast<int>(static_cast<int64_t>(rank + 1) * num_slots / k);
    for (int s = lo; s < hi; ++s) {
      fn(s);
    }
  });
}

void NumaThreadPool::RunLogicalSlabs(int64_t count, const RangeFn& fn) {
  const auto run_slab = [&](int slab) {
    fn(LogicalSlabBegin(count, slab), LogicalSlabBegin(count, slab + 1), slab);
  };
  if (!MetricsRegistry::Enabled() || NumThreads() == 1 ||
      internal::t_pool_worker_id >= 0 || CurrentTeam().size() < NumThreads()) {
    RunSlots(num_logical_slabs_, run_slab);
    return;
  }
  // Instrumented full-team dispatch: each worker stamps the wall time of
  // its run of slabs (two clock reads per slab, nothing per item), and the
  // dispatcher reduces the stamps to a max/mean imbalance gauge. The slabs
  // are even in *items*, so the gauge shows when per-item cost is skewed
  // across them (e.g. one dense grid region). A worker whose slabs were all
  // empty (count below the slab count) did no work and stays out of it.
  std::vector<double> worker_seconds(NumThreads(), 0.0);
  std::vector<char> worker_busy(NumThreads(), 0);
  RunSlots(num_logical_slabs_, [&](int slab) {
    const auto start = std::chrono::steady_clock::now();
    run_slab(slab);
    const int tid = CurrentThreadId();
    worker_seconds[tid] += std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    worker_busy[tid] |=
        LogicalSlabBegin(count, slab) < LogicalSlabBegin(count, slab + 1);
  });
  double max_seconds = 0;
  double sum_seconds = 0;
  int busy_workers = 0;
  for (int t = 0; t < NumThreads(); ++t) {
    if (worker_busy[t]) {
      max_seconds = std::max(max_seconds, worker_seconds[t]);
      sum_seconds += worker_seconds[t];
      ++busy_workers;
    }
  }
  auto& registry = MetricsRegistry::Get();
  registry.Add(Metrics().slab_dispatches, 1, CurrentThreadSlot());
  if (sum_seconds > 0) {
    registry.SetGauge(Metrics().slab_imbalance,
                      max_seconds / (sum_seconds / busy_workers));
  }
}

void NumaThreadPool::ParallelFor(int64_t begin, int64_t end, int64_t grain,
                                 const RangeFn& fn) {
  if (begin >= end) {
    return;
  }
  grain = std::max<int64_t>(grain, 1);
  // Small trip counts are not worth the dispatch latency.
  if (end - begin <= grain || NumThreads() == 1) {
    fn(begin, end, std::max(internal::t_pool_worker_id, 0));
    return;
  }
  std::atomic<int64_t> cursor{begin};
  Run([&](int tid) {
    for (;;) {
      const int64_t lo = cursor.fetch_add(grain, std::memory_order_relaxed);
      if (lo >= end) {
        return;
      }
      fn(lo, std::min(lo + grain, end), tid);
    }
  });
}

void NumaThreadPool::ForEachBlock(const std::vector<int64_t>& blocks_per_domain,
                                  bool numa_aware, const BlockFn& fn) {
  const int num_domains =
      std::min<int>(topology_.NumDomains(), blocks_per_domain.size());
  int64_t total_blocks = 0;
  for (int64_t b : blocks_per_domain) {
    total_blocks += b;
  }
  if (total_blocks == 0) {
    return;
  }

  if (!numa_aware) {
    // Flat dynamic schedule: a single shared counter over all (domain, block)
    // pairs, irrespective of which domain a thread belongs to.
    std::vector<int64_t> domain_start(blocks_per_domain.size() + 1, 0);
    for (size_t d = 0; d < blocks_per_domain.size(); ++d) {
      domain_start[d + 1] = domain_start[d] + blocks_per_domain[d];
    }
    std::atomic<int64_t> cursor{0};
    Run([&](int tid) {
      for (;;) {
        const int64_t flat = cursor.fetch_add(1, std::memory_order_relaxed);
        if (flat >= total_blocks) {
          return;
        }
        // Find the owning domain (few domains, linear scan is fine).
        int d = 0;
        while (flat >= domain_start[d + 1]) {
          ++d;
        }
        fn(d, flat - domain_start[d], tid);
      }
    });
    return;
  }

  // NUMA-aware: per (domain, thread-slot) contiguous block ranges with
  // atomic cursors. A thread drains its own range, then steals from sibling
  // slots in the same domain, then from other domains (paper Fig. 2, steps 4
  // and 5). Ranges exist for ALL workers; under a partial team the stealing
  // levels drain the absent workers' cursors, so coverage is complete.
  const int num_threads = topology_.NumThreads();
  std::vector<Cursor> cursors(num_threads);
  std::vector<int> slot_domain(num_threads, 0);
  for (int d = 0; d < num_domains; ++d) {
    const auto& threads = topology_.ThreadsOfDomain(d);
    const int64_t blocks = blocks_per_domain[d];
    const int n = static_cast<int>(threads.size());
    const int64_t base = blocks / n;
    const int64_t extra = blocks % n;
    int64_t offset = 0;
    for (int i = 0; i < n; ++i) {
      const int64_t count = base + (i < extra ? 1 : 0);
      cursors[threads[i]].next.store(offset, std::memory_order_relaxed);
      cursors[threads[i]].end = offset + count;
      slot_domain[threads[i]] = d;
      offset += count;
    }
  }
  // Handle blocks of domains beyond the topology (shouldn't happen in
  // practice; assign them to domain-0 threads' ranges via the flat fallback).
  assert(static_cast<int>(blocks_per_domain.size()) <= topology_.NumDomains());

  Run([&](int tid) {
    auto drain = [&](int victim) -> uint64_t {
      Cursor& c = cursors[victim];
      const int d = slot_domain[victim];
      uint64_t processed = 0;
      for (;;) {
        const int64_t idx = c.next.fetch_add(1, std::memory_order_relaxed);
        if (idx >= c.end) {
          return processed;
        }
        fn(d, idx, tid);
        ++processed;
      }
    };
    // Level 0: own blocks.
    const uint64_t own = drain(tid);
    // Level 1: steal within the same domain.
    uint64_t local_attempts = 0;
    uint64_t local_blocks = 0;
    const int my_domain = topology_.DomainOfThread(tid);
    if (my_domain < num_domains) {
      for (int victim : topology_.ThreadsOfDomain(my_domain)) {
        if (victim != tid) {
          ++local_attempts;
          local_blocks += drain(victim);
        }
      }
    }
    // Level 2: steal from other domains.
    uint64_t remote_attempts = 0;
    uint64_t remote_blocks = 0;
    for (int d = 0; d < num_domains; ++d) {
      if (d == my_domain) {
        continue;
      }
      for (int victim : topology_.ThreadsOfDomain(d)) {
        ++remote_attempts;
        remote_blocks += drain(victim);
      }
    }
    if (MetricsRegistry::Enabled()) {
      auto& registry = MetricsRegistry::Get();
      const int slot = tid + 1;
      registry.Add(Metrics().own_blocks, own, slot);
      registry.Add(Metrics().local_steal_attempts, local_attempts, slot);
      registry.Add(Metrics().local_steal_blocks, local_blocks, slot);
      registry.Add(Metrics().remote_steal_attempts, remote_attempts, slot);
      registry.Add(Metrics().remote_steal_blocks, remote_blocks, slot);
    }
  });
}

bool NumaThreadPool::Quiescent() const {
  std::unique_lock lock(mutex_);
  return active_jobs_ == 0;
}

}  // namespace bdm
