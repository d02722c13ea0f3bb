// Coverage for the small core utilities: FunctionRef, TimingAggregator,
// Param, ExecutionContext, and the uniform grid's 16-bit timestamp wrap.
#include <gtest/gtest.h>

#include <string>

#include "core/cell.h"
#include "core/execution_context.h"
#include "core/function_ref.h"
#include "core/param.h"
#include "core/resource_manager.h"
#include "core/timing.h"
#include "env/uniform_grid.h"

namespace bdm {
namespace {

// --- FunctionRef ---------------------------------------------------------------

TEST(FunctionRefTest, InvokesLambda) {
  int calls = 0;
  auto lambda = [&](int v) { calls += v; };
  FunctionRef<void(int)> ref = lambda;
  ref(3);
  ref(4);
  EXPECT_EQ(calls, 7);
}

TEST(FunctionRefTest, ReturnsValue) {
  auto doubler = [](int v) { return 2 * v; };
  FunctionRef<int(int)> ref = doubler;
  EXPECT_EQ(ref(21), 42);
}

TEST(FunctionRefTest, MutatesCapturedState) {
  std::string log;
  auto appender = [&](const char* s) { log += s; };
  FunctionRef<void(const char*)> ref = appender;
  ref("a");
  ref("b");
  EXPECT_EQ(log, "ab");
}

int FreeFunction(int v) { return v + 1; }

TEST(FunctionRefTest, WrapsFunctionPointer) {
  auto* fp = &FreeFunction;
  FunctionRef<int(int)> ref = fp;
  EXPECT_EQ(ref(1), 2);
}

// --- TimingAggregator ------------------------------------------------------------

TEST(TimingTest, AccumulatesSecondsAndCounts) {
  TimingAggregator agg;
  agg.Add("op", 0.5);
  agg.Add("op", 0.25);
  agg.Add("other", 1.0);
  EXPECT_DOUBLE_EQ(agg.TotalSeconds("op"), 0.75);
  EXPECT_EQ(agg.Count("op"), 2u);
  EXPECT_DOUBLE_EQ(agg.GrandTotalSeconds(), 1.75);
  EXPECT_DOUBLE_EQ(agg.TotalSeconds("missing"), 0.0);
  EXPECT_EQ(agg.Count("missing"), 0u);
}

TEST(TimingTest, ResetClears) {
  TimingAggregator agg;
  agg.Add("op", 1.0);
  agg.Reset();
  EXPECT_EQ(agg.Count("op"), 0u);
  EXPECT_DOUBLE_EQ(agg.GrandTotalSeconds(), 0.0);
}

TEST(TimingTest, ScopedTimerMeasuresPositiveTime) {
  TimingAggregator agg;
  {
    ScopedTimer timer(&agg, "scoped");
    volatile double sink = 0;
    for (int i = 0; i < 10000; ++i) {
      sink = sink + i;
    }
  }
  EXPECT_GT(agg.TotalSeconds("scoped"), 0.0);
  EXPECT_EQ(agg.Count("scoped"), 1u);
}

// --- Param --------------------------------------------------------------------

TEST(ParamTest, DefaultsMatchPaperConfiguration) {
  Param param;
  EXPECT_EQ(param.environment, EnvironmentType::kUniformGrid);
  EXPECT_TRUE(param.numa_aware_iteration);
  EXPECT_TRUE(param.parallel_commit);
  EXPECT_TRUE(param.use_bdm_memory_manager);
  EXPECT_FALSE(param.detect_static_agents);  // opt-in (Section 6.6)
  EXPECT_EQ(param.sorting_curve, SortingCurve::kMorton);
}

TEST(ParamTest, ResolveNumThreads) {
  Param param;
  param.num_threads = 7;
  EXPECT_EQ(param.ResolveNumThreads(), 7);
  param.num_threads = 0;
  EXPECT_GE(param.ResolveNumThreads(), 1);
}

// --- ExecutionContext ------------------------------------------------------------

TEST(ExecutionContextTest, AddAssignsUidImmediately) {
  AgentUidGenerator gen;
  ExecutionContext ctx(1, 42, &gen);
  auto* cell = new Cell({1, 2, 3}, 10);
  EXPECT_FALSE(cell->GetUid().IsValid());
  ctx.AddAgent(cell);
  EXPECT_TRUE(cell->GetUid().IsValid());
  EXPECT_EQ(ctx.new_agents().size(), 1u);
  EXPECT_EQ(ctx.numa_domain(), 1);
  delete cell;
  ctx.ClearBuffers();
}

TEST(ExecutionContextTest, PreassignedUidIsKept) {
  AgentUidGenerator gen;
  ExecutionContext ctx(0, 42, &gen);
  auto* cell = new Cell({0, 0, 0}, 10);
  cell->SetUid(AgentUid(77, 3));
  ctx.AddAgent(cell);
  EXPECT_EQ(cell->GetUid(), AgentUid(77, 3));
  delete cell;
  ctx.ClearBuffers();
}

TEST(ExecutionContextTest, BuffersAreIndependent) {
  AgentUidGenerator gen;
  ExecutionContext a(0, 1, &gen);
  ExecutionContext b(0, 2, &gen);
  a.RemoveAgent(AgentUid(1));
  EXPECT_EQ(a.removed_agents().size(), 1u);
  EXPECT_TRUE(b.removed_agents().empty());
}

// --- uniform grid timestamp wrap -------------------------------------------------

TEST(UniformGridWrapTest, CorrectAcrossTimestampWrap) {
  // The box word holds a 16-bit timestamp; after 65535 updates it wraps and
  // the grid must clear the boxes exactly once to keep "stale == empty"
  // sound. Drive > 2^16 updates on a small world and verify counts stay
  // exact throughout the wrap window.
  Param param;
  param.num_threads = 1;
  param.num_numa_domains = 1;
  AgentUidGenerator gen;
  NumaThreadPool pool(Topology(1, 1));
  ResourceManager rm(param, &pool, &gen);
  for (int i = 0; i < 8; ++i) {
    rm.AddAgent(new Cell({static_cast<real_t>(i % 2) * 50,
                          static_cast<real_t>(i / 2) * 25, 0},
                         10));
  }
  UniformGridEnvironment grid(param);
  for (int update = 0; update < (1 << 16) + 100; ++update) {
    grid.Update(rm, &pool);
    if (update % 8191 != 0 && update < (1 << 16) - 4) {
      continue;  // full verification around the wrap and periodically
    }
    uint64_t total = 0;
    for (int64_t b = 0; b < grid.GetNumBoxes(); ++b) {
      total += grid.GetBoxCount(b);
    }
    ASSERT_EQ(total, 8u) << "update " << update;
    int neighbors = 0;
    rm.ForEachAgent([&](Agent* agent, AgentHandle) {
      grid.ForEachNeighbor(*agent, 1e9, [&](const Environment::NeighborData&) {
        ++neighbors;
      });
    });
    ASSERT_EQ(neighbors, 8 * 7) << "update " << update;
  }
}

}  // namespace
}  // namespace bdm
