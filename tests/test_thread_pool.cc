#include "sched/numa_thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <set>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace bdm {
namespace {

TEST(NumaThreadPoolTest, RunExecutesOnEveryThread) {
  NumaThreadPool pool(Topology(4, 2));
  std::vector<std::atomic<int>> hits(4);
  pool.Run([&](int tid) { hits[tid].fetch_add(1); });
  for (auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(NumaThreadPoolTest, RunCanBeRepeated) {
  NumaThreadPool pool(Topology(3, 1));
  std::atomic<int> counter{0};
  for (int i = 0; i < 50; ++i) {
    pool.Run([&](int) { counter.fetch_add(1); });
  }
  EXPECT_EQ(counter.load(), 150);
}

TEST(NumaThreadPoolTest, CurrentThreadIdInsideAndOutside) {
  NumaThreadPool pool(Topology(2, 1));
  EXPECT_EQ(NumaThreadPool::CurrentThreadId(), -1);
  std::atomic<int> bad{0};
  pool.Run([&](int tid) {
    if (NumaThreadPool::CurrentThreadId() != tid) {
      bad.fetch_add(1);
    }
  });
  EXPECT_EQ(bad.load(), 0);
}

TEST(NumaThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  NumaThreadPool pool(Topology(4, 2));
  const int64_t n = 100000;
  std::vector<std::atomic<int>> touched(n);
  pool.ParallelFor(0, n, 128, [&](int64_t lo, int64_t hi, int) {
    for (int64_t i = lo; i < hi; ++i) {
      touched[i].fetch_add(1);
    }
  });
  for (int64_t i = 0; i < n; ++i) {
    ASSERT_EQ(touched[i].load(), 1) << i;
  }
}

TEST(NumaThreadPoolTest, ParallelForEmptyRangeIsNoop) {
  NumaThreadPool pool(Topology(2, 1));
  int calls = 0;
  pool.ParallelFor(5, 5, 1, [&](int64_t, int64_t, int) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(NumaThreadPoolTest, ParallelForSmallRangeRunsInline) {
  NumaThreadPool pool(Topology(4, 1));
  std::atomic<int64_t> sum{0};
  pool.ParallelFor(0, 10, 100, [&](int64_t lo, int64_t hi, int) {
    for (int64_t i = lo; i < hi; ++i) {
      sum.fetch_add(i);
    }
  });
  EXPECT_EQ(sum.load(), 45);
}

TEST(NumaThreadPoolTest, ForEachBlockVisitsEveryBlockOnce) {
  NumaThreadPool pool(Topology(4, 2));
  const std::vector<int64_t> blocks = {100, 57};
  std::vector<std::vector<std::atomic<int>>> seen(2);
  seen[0] = std::vector<std::atomic<int>>(100);
  seen[1] = std::vector<std::atomic<int>>(57);
  pool.ForEachBlock(blocks, /*numa_aware=*/true,
                    [&](int d, int64_t b, int) { seen[d][b].fetch_add(1); });
  for (int d = 0; d < 2; ++d) {
    for (auto& s : seen[d]) {
      ASSERT_EQ(s.load(), 1);
    }
  }
}

TEST(NumaThreadPoolTest, ForEachBlockNonNumaAwareVisitsEveryBlockOnce) {
  NumaThreadPool pool(Topology(4, 2));
  const std::vector<int64_t> blocks = {31, 0, 64};
  // Domain list longer than topology domains is rejected by assert in the
  // aware path; the flat path handles any size.
  std::vector<std::vector<std::atomic<int>>> seen(3);
  seen[0] = std::vector<std::atomic<int>>(31);
  seen[2] = std::vector<std::atomic<int>>(64);
  pool.ForEachBlock(blocks, /*numa_aware=*/false,
                    [&](int d, int64_t b, int) { seen[d][b].fetch_add(1); });
  for (auto& s : seen[0]) {
    ASSERT_EQ(s.load(), 1);
  }
  for (auto& s : seen[2]) {
    ASSERT_EQ(s.load(), 1);
  }
}

TEST(NumaThreadPoolTest, ForEachBlockStealingDrainsImbalancedDomains) {
  // All blocks in domain 0; threads of domain 1 must steal (level 2).
  NumaThreadPool pool(Topology(4, 2));
  const std::vector<int64_t> blocks = {1000, 0};
  std::atomic<int64_t> count{0};
  std::set<int> tids;
  std::mutex m;
  pool.ForEachBlock(blocks, true, [&](int d, int64_t, int tid) {
    EXPECT_EQ(d, 0);
    count.fetch_add(1);
    std::scoped_lock lock(m);
    tids.insert(tid);
  });
  EXPECT_EQ(count.load(), 1000);
  // With this host's single core we cannot guarantee which threads stole,
  // but every block must be processed exactly once regardless.
}

TEST(NumaThreadPoolTest, ForEachBlockZeroBlocksIsNoop) {
  NumaThreadPool pool(Topology(2, 2));
  int calls = 0;
  pool.ForEachBlock({0, 0}, true, [&](int, int64_t, int) { ++calls; });
  EXPECT_EQ(calls, 0);
}

class PoolShapes : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(PoolShapes, ParallelForSumMatchesSerial) {
  const auto [threads, domains] = GetParam();
  NumaThreadPool pool(Topology(threads, domains));
  const int64_t n = 54321;
  std::atomic<int64_t> sum{0};
  pool.ParallelFor(0, n, 1000, [&](int64_t lo, int64_t hi, int) {
    int64_t local = 0;
    for (int64_t i = lo; i < hi; ++i) {
      local += i;
    }
    sum.fetch_add(local);
  });
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

TEST_P(PoolShapes, ForEachBlockCountMatches) {
  const auto [threads, domains] = GetParam();
  NumaThreadPool pool(Topology(threads, domains));
  std::vector<int64_t> blocks(Topology(threads, domains).NumDomains());
  int64_t expected = 0;
  for (size_t d = 0; d < blocks.size(); ++d) {
    blocks[d] = 13 * (d + 1);
    expected += blocks[d];
  }
  for (bool aware : {true, false}) {
    std::atomic<int64_t> count{0};
    pool.ForEachBlock(blocks, aware,
                      [&](int, int64_t, int) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), expected);
  }
}

TEST_P(PoolShapes, LogicalSlabsSplitEvenlyOverTheFullTeam) {
  // At least kMinLogicalSlabs slabs, a multiple of the pool size, and 16
  // whenever the pool size divides 16; every slab runs once, and every
  // worker of the full team runs the same number of slabs.
  const auto [threads, domains] = GetParam();
  NumaThreadPool pool(Topology(threads, domains));
  const int k = pool.NumLogicalSlabs();
  EXPECT_GE(k, NumaThreadPool::kMinLogicalSlabs);
  EXPECT_EQ(k % threads, 0);
  if (NumaThreadPool::kMinLogicalSlabs % threads == 0) {
    EXPECT_EQ(k, NumaThreadPool::kMinLogicalSlabs);
  }
  const int64_t count = 1000;
  std::vector<std::atomic<int>> slab_runs(k);
  std::vector<std::atomic<int>> worker_slabs(threads);
  std::atomic<int64_t> covered{0};
  std::atomic<int> bad{0};
  pool.RunLogicalSlabs(count, [&](int64_t lo, int64_t hi, int slab) {
    if (lo != pool.LogicalSlabBegin(count, slab) ||
        hi != pool.LogicalSlabBegin(count, slab + 1) ||
        (lo < hi && (pool.LogicalSlabOf(count, lo) != slab ||
                     pool.LogicalSlabOf(count, hi - 1) != slab))) {
      bad.fetch_add(1);
    }
    slab_runs[slab].fetch_add(1);
    worker_slabs[std::max(NumaThreadPool::CurrentThreadId(), 0)].fetch_add(1);
    covered.fetch_add(hi - lo);
  });
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(covered.load(), count);
  for (int s = 0; s < k; ++s) {
    EXPECT_EQ(slab_runs[s].load(), 1) << s;
  }
  for (int t = 0; t < threads; ++t) {
    EXPECT_EQ(worker_slabs[t].load(), k / threads) << t;
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, PoolShapes,
                         ::testing::Values(std::pair{1, 1}, std::pair{2, 1},
                                           std::pair{2, 2}, std::pair{4, 2},
                                           std::pair{8, 4}, std::pair{5, 3},
                                           std::pair{3, 1}, std::pair{12, 2},
                                           std::pair{24, 4}));

TEST(NumaThreadPoolTest, SlabImbalanceCountsOnlyBusyWorkers) {
  // 2 rows over 16 slabs on 4 workers: two workers get a non-empty slab.
  // Both sleep the same time, so the busy-only max/mean reads about 1; a
  // mean that counted the two idle workers would read at least 2.
  MetricsRegistry::SetEnabled(true);
  MetricsRegistry::Get().Reset();
  NumaThreadPool pool(Topology(4, 1));
  ASSERT_EQ(pool.NumLogicalSlabs(), 16);
  pool.RunLogicalSlabs(2, [](int64_t lo, int64_t hi, int) {
    if (lo < hi) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });
  const double imbalance =
      MetricsRegistry::Get().GaugeValue("sched.slab_imbalance");
  EXPECT_GE(imbalance, 1.0);
  EXPECT_LT(imbalance, 1.5);
}

// --- nested invocations ------------------------------------------------------
// A job running on a pool worker may itself call into the pool (e.g. an
// agent operation that triggers a parallel commit). The nested call must
// execute inline on the calling worker instead of deadlocking on the busy
// worker set.

TEST(NumaThreadPoolNestedTest, NestedRunExecutesInlineOnCaller) {
  NumaThreadPool pool(Topology(4, 2));
  std::vector<std::atomic<int>> inner_hits(4);
  std::atomic<int> wrong_tid{0};
  pool.Run([&](int tid) {
    pool.Run([&](int inner_tid) {
      if (inner_tid != tid) {
        wrong_tid.fetch_add(1);
      }
      inner_hits[inner_tid].fetch_add(1);
    });
  });
  EXPECT_EQ(wrong_tid.load(), 0);  // nested job runs under the caller's id
  for (int t = 0; t < 4; ++t) {
    EXPECT_EQ(inner_hits[t].load(), 1) << t;  // exactly once per outer worker
  }
}

TEST(NumaThreadPoolNestedTest, NestedParallelForCoversRangePerCaller) {
  NumaThreadPool pool(Topology(4, 2));
  const int64_t n = 10000;
  std::vector<std::atomic<int>> touched(n);
  pool.Run([&](int) {
    pool.ParallelFor(0, n, 64, [&](int64_t lo, int64_t hi, int) {
      for (int64_t i = lo; i < hi; ++i) {
        touched[i].fetch_add(1);
      }
    });
  });
  // Each of the 4 outer workers drains its own nested loop over the full
  // range exactly once.
  for (int64_t i = 0; i < n; ++i) {
    ASSERT_EQ(touched[i].load(), 4) << i;
  }
}

TEST(NumaThreadPoolNestedTest, NestedRunLogicalSlabsKeepsSlabIds) {
  // Callers key per-slab buffers on the reported slab, so the serial
  // fallback inside a worker must report each slab under its own id and
  // bounds, not the calling worker's.
  for (const auto& [threads, domains, slabs] :
       {std::tuple{4, 2, 16}, std::tuple{3, 1, 18}}) {
    NumaThreadPool pool(Topology(threads, domains));
    const int k = pool.NumLogicalSlabs();
    ASSERT_EQ(k, slabs);
    const int64_t count = 1000;
    std::vector<std::atomic<int>> slab_runs(k);
    std::vector<std::atomic<int>> row_runs(count);
    std::atomic<int> bad{0};
    pool.Run([&](int tid) {
      if (tid != 0) {
        return;  // one caller is enough; the others stay busy-idle
      }
      pool.RunLogicalSlabs(count, [&](int64_t lo, int64_t hi, int slab) {
        if (slab < 0 || slab >= k ||
            lo != pool.LogicalSlabBegin(count, slab) ||
            hi != pool.LogicalSlabBegin(count, slab + 1)) {
          bad.fetch_add(1);
          return;
        }
        slab_runs[slab].fetch_add(1);
        for (int64_t i = lo; i < hi; ++i) {
          row_runs[i].fetch_add(1);
        }
      });
    });
    EXPECT_EQ(bad.load(), 0) << threads;
    for (int s = 0; s < k; ++s) {
      EXPECT_EQ(slab_runs[s].load(), 1) << threads << " threads, slab " << s;
    }
    for (int64_t i = 0; i < count; ++i) {
      ASSERT_EQ(row_runs[i].load(), 1) << threads << " threads, row " << i;
    }
  }
}

}  // namespace
}  // namespace bdm
