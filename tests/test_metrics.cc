// Observability layer (DESIGN.md Section 7): shard-flush correctness of the
// metrics registry under the thread pool, chrome-trace output
// well-formedness, and the guarantee that collecting metrics never changes
// simulation results.
#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>

#include "core/agent_pointer.h"
#include "core/cell.h"
#include "core/resource_manager.h"
#include "core/scheduler.h"
#include "core/simulation.h"
#include "models/cell_proliferation.h"
#include "obs/trace.h"
#include "sched/numa_thread_pool.h"
#include "support/json_balanced.h"
#include "support/temp_path.h"

namespace bdm {
namespace {

// The registry is process-global; every test starts from zeroed shards and
// explicitly enabled collection (a prior test's Simulation may have turned
// it off via Param).
void FreshRegistry() {
  MetricsRegistry::SetEnabled(true);
  MetricsRegistry::Get().Reset();
}

TEST(MetricsRegistryTest, RegistrationIsIdempotent) {
  FreshRegistry();
  auto& registry = MetricsRegistry::Get();
  const int a = registry.RegisterCounter("test.idempotent");
  const int b = registry.RegisterCounter("test.idempotent");
  EXPECT_EQ(a, b);
  const int g = registry.RegisterGauge("test.idempotent_gauge");
  EXPECT_NE(a, g);
}

TEST(MetricsRegistryTest, FlushFoldsAllShards) {
  FreshRegistry();
  auto& registry = MetricsRegistry::Get();
  const int id = registry.RegisterCounter("test.flush");
  NumaThreadPool pool(Topology(4, 2));
  // Slot convention: 0 = main thread, tid + 1 = pool worker tid.
  registry.Add(id, 7, 0);
  pool.Run([&](int tid) {
    for (int i = 0; i < 1000; ++i) {
      registry.Add(id, 1, tid + 1);
    }
  });
  EXPECT_EQ(registry.CounterTotal("test.flush"), 0u);  // not folded yet
  registry.FlushShards();
  EXPECT_EQ(registry.CounterTotal("test.flush"), 4007u);
  // Flush is cumulative and idempotent once shards are drained.
  registry.FlushShards();
  EXPECT_EQ(registry.CounterTotal("test.flush"), 4007u);
}

TEST(MetricsRegistryTest, SelfResolvingAddLandsInTheCallersShard) {
  FreshRegistry();
  auto& registry = MetricsRegistry::Get();
  const int id = registry.RegisterCounter("test.self_resolving");
  NumaThreadPool pool(Topology(4, 2));
  registry.Add(id, 1);  // main thread -> shard 0
  for (int round = 0; round < 50; ++round) {
    pool.Run([&](int) { registry.Add(id, 1); });
  }
  registry.FlushShards();
  EXPECT_EQ(registry.CounterTotal("test.self_resolving"), 201u);
}

TEST(MetricsRegistryTest, RepeatedIterationsAccumulate) {
  FreshRegistry();
  auto& registry = MetricsRegistry::Get();
  const int id = registry.RegisterCounter("test.iterations");
  NumaThreadPool pool(Topology(3, 1));
  for (int iteration = 0; iteration < 20; ++iteration) {
    pool.Run([&](int tid) { registry.Add(id, 2, tid + 1); });
    registry.FlushShards();  // scheduler does this once per iteration
  }
  EXPECT_EQ(registry.CounterTotal("test.iterations"), 120u);
}

TEST(MetricsRegistryTest, GaugesHoldTheLastValue) {
  FreshRegistry();
  auto& registry = MetricsRegistry::Get();
  const int id = registry.RegisterGauge("test.gauge");
  registry.SetGauge(id, 1.5);
  registry.SetGauge(id, 2.5);
  EXPECT_DOUBLE_EQ(registry.GaugeValue("test.gauge"), 2.5);
}

TEST(MetricsRegistryTest, ResetClearsTotalsAndShards) {
  FreshRegistry();
  auto& registry = MetricsRegistry::Get();
  const int id = registry.RegisterCounter("test.reset");
  registry.Add(id, 5, 0);
  registry.Add(id, 5, 3);  // parked in an un-flushed shard
  registry.FlushShards();
  registry.Add(id, 9, 1);  // still un-flushed when Reset runs
  registry.Reset();
  registry.FlushShards();
  EXPECT_EQ(registry.CounterTotal("test.reset"), 0u);
}

TEST(MetricsRegistryTest, SnapshotIsSortedAndComplete) {
  FreshRegistry();
  auto& registry = MetricsRegistry::Get();
  registry.RegisterCounter("test.snap_b");
  registry.RegisterCounter("test.snap_a");
  const MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_GE(snapshot.counters.size(), 2u);
  for (size_t i = 1; i < snapshot.counters.size(); ++i) {
    EXPECT_LT(snapshot.counters[i - 1].first, snapshot.counters[i].first);
  }
}

// ---------------------------------------------------------------------------
// Scheduler integration
// ---------------------------------------------------------------------------

Param SmallSimParam() {
  Param param;
  param.num_threads = 2;
  param.num_numa_domains = 1;
  return param;
}

TEST(MetricsSchedulerTest, PerIterationSnapshotsFire) {
  FreshRegistry();
  Simulation sim("metrics_snapshot", SmallSimParam());
  models::proliferation::Config config;
  config.num_cells = 32;
  models::proliferation::Build(&sim, config);
  std::vector<uint64_t> iterations;
  std::vector<uint64_t> commit_counts;
  sim.GetScheduler()->SetSnapshotCallback(
      [&](const Scheduler::IterationSnapshot& snap) {
        iterations.push_back(snap.iteration);
        for (const auto& [name, value] : snap.metrics.counters) {
          if (name == "commit.commits") {
            commit_counts.push_back(value);
          }
        }
        EXPECT_GT(snap.seconds, 0.0);
      });
  sim.Simulate(5);
  ASSERT_EQ(iterations.size(), 5u);
  for (uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(iterations[i], i);
  }
  // One CommitOp per iteration; the counter is cumulative across them.
  ASSERT_EQ(commit_counts.size(), 5u);
  for (uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(commit_counts[i], i + 1);
  }
}

TEST(MetricsSchedulerTest, HotPathCountersMoveDuringASimulation) {
  FreshRegistry();
  Simulation sim("metrics_hot_paths", SmallSimParam());
  models::proliferation::Config config;
  config.num_cells = 64;
  models::proliferation::Build(&sim, config);
  sim.Simulate(10);
  auto& registry = MetricsRegistry::Get();
  EXPECT_GT(registry.CounterTotal("env.grid_rebuilds"), 0u);
  EXPECT_GT(registry.CounterTotal("env.grid_agents_indexed"), 0u);
  EXPECT_EQ(registry.CounterTotal("commit.commits"), 10u);
  EXPECT_GT(registry.GaugeValue("env.grid_num_boxes"), 0.0);
}

TEST(MetricsSchedulerTest, DumpObservabilityWritesSummaryJson) {
  FreshRegistry();
  const std::string path = test::TempPath("obs_dump.json");
  {
    Simulation sim("metrics_dump", SmallSimParam());
    models::proliferation::Config config;
    config.num_cells = 16;
    models::proliferation::Build(&sim, config);
    sim.Simulate(3);
    ASSERT_TRUE(sim.GetScheduler()->DumpObservability(path));
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("\"counters\""), std::string::npos);
  EXPECT_NE(text.find("\"timing\""), std::string::npos);
  EXPECT_NE(text.find("\"grand_total_seconds\""), std::string::npos);
  EXPECT_NE(text.find("commit.commits"), std::string::npos);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Chrome-trace export
// ---------------------------------------------------------------------------

size_t CountOccurrences(const std::string& text, const std::string& needle) {
  size_t count = 0;
  for (size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

// Minimal structural check of the Trace Event Format output: balanced
// braces/brackets outside strings, a traceEvents array, and at least one
// complete ("ph": "X") span per simulated iteration.
TEST(TraceExportTest, BdmTraceProducesWellFormedChromeJson) {
  FreshRegistry();
  const std::string path = test::TempPath("trace.json");
  setenv("BDM_TRACE", path.c_str(), 1);
  {
    Simulation sim("trace_test", SmallSimParam());
    models::proliferation::Config config;
    config.num_cells = 16;
    models::proliferation::Build(&sim, config);
    sim.Simulate(4);
  }  // dtor stops the recorder and writes the file
  unsetenv("BDM_TRACE");
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "BDM_TRACE did not produce " << path;
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_TRUE(test::JsonBalanced(text));
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"displayTimeUnit\""), std::string::npos);
  // One whole-iteration envelope span per iteration plus per-op spans.
  EXPECT_GE(CountOccurrences(text, "\"ph\": \"X\""), 4u);
  EXPECT_GE(CountOccurrences(text, "\"iteration\""), 4u);
  EXPECT_NE(text.find("\"name\": \"iteration\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(TraceExportTest, RecorderInactiveWithoutEnvVar) {
  FreshRegistry();
  unsetenv("BDM_TRACE");
  {
    Simulation sim("trace_off", SmallSimParam());
    models::proliferation::Config config;
    config.num_cells = 8;
    models::proliferation::Build(&sim, config);
    sim.Simulate(2);
  }
  EXPECT_FALSE(TraceRecorder::Active());
  EXPECT_EQ(TraceRecorder::Get().NumSpans(), 0u);
}

// ---------------------------------------------------------------------------
// Metrics must observe, never perturb
// ---------------------------------------------------------------------------

std::map<AgentUid, Real3> RunProliferation(bool collect_metrics) {
  Param param;
  param.num_threads = 1;
  param.num_numa_domains = 1;
  param.collect_metrics = collect_metrics;
  std::map<AgentUid, Real3> result;
  Simulation sim("metrics_determinism", param);
  models::proliferation::Config config;
  config.num_cells = 48;
  models::proliferation::Build(&sim, config);
  sim.Simulate(25);
  sim.GetResourceManager()->ForEachAgent([&](Agent* agent, AgentHandle) {
    result[agent->GetUid()] = agent->GetPosition();
  });
  return result;
}

TEST(MetricsDeterminismTest, TrajectoriesIdenticalWithMetricsOnAndOff) {
  const auto with_metrics = RunProliferation(true);
  const auto without_metrics = RunProliferation(false);
  MetricsRegistry::SetEnabled(true);  // restore for later tests
  ASSERT_EQ(with_metrics.size(), without_metrics.size());
  auto it = without_metrics.begin();
  for (const auto& [uid, pos] : with_metrics) {
    ASSERT_EQ(uid, it->first);
    EXPECT_EQ(pos.x, it->second.x) << uid;
    EXPECT_EQ(pos.y, it->second.y) << uid;
    EXPECT_EQ(pos.z, it->second.z) << uid;
    ++it;
  }
}

}  // namespace
}  // namespace bdm
