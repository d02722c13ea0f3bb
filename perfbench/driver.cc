// Benchmark driver: runs one workload and prints its metrics.
//
//   bdm_perfbench --workload <clustering|oncology|shard4> --seed <n>
//                 --seconds <s> --trace <0|1> [--trace-out <path>]
//
// --trace 0 (end to end): sets the workload up several times (each set-up
// is construction plus the first, warm-up iteration; all but the last in a
// forked child process), keeps the last one and steps it in a closed loop --
// each iteration starts when the previous one ends -- for round(seconds x
// the workload's iteration rate) timed iterations, then checks the outputs.
//
// --trace 1 (per layer): four legs on fresh instances of the same seed --
// untraced, traced (spans around every layer call, see layer_trace.h),
// single-thread, untraced again -- and compares the counts that repeat
// exactly between the untraced and the traced legs.
//
// Human-readable lines go first; the last line of stdout is one JSON object
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
// `failed` / `attempted` is the run's check failure rate; a run that throws
// counts every check it skipped as failed. The exit code is 0 whenever that
// line is printed, so failed checks are reported rather than lost.
#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "layer_trace.h"
#include "obs/metrics.h"
#include "workloads.h"

namespace bdm::perfbench {
namespace {

/// Set-ups per end-to-end run; setup_s is their median.
constexpr int kSetups = 7;
/// iter_ms_tail is the slowest iteration that still has this many beyond it.
constexpr size_t kTailSamplesBeyond = 10;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

int HostThreads() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return CPU_COUNT(&set);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

/// Resident high-water mark of this process, in MiB.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2;
}

/// Per-iteration wall times and the population each iteration started with.
struct Loop {
  std::vector<double> seconds;
  std::vector<uint64_t> population;

  double NsPerAgentIter(size_t count) const {
    double wall = 0;
    double agent_iterations = 0;
    for (size_t i = 0; i < count && i < seconds.size(); ++i) {
      wall += seconds[i];
      agent_iterations += static_cast<double>(population[i]);
    }
    return agent_iterations > 0 ? wall * 1e9 / agent_iterations : 0;
  }
  double NsPerAgentIter() const { return NsPerAgentIter(seconds.size()); }
};

Loop RunLoop(Instance* instance, uint64_t iterations,
             LayerTrace* trace = nullptr) {
  Loop loop;
  loop.seconds.reserve(iterations);
  loop.population.reserve(iterations);
  for (uint64_t i = 0; i < iterations; ++i) {
    loop.population.push_back(instance->Population());
    const auto start = Clock::now();
    if (trace != nullptr) {
      trace->SetIteration(i + 1);
      instance->TracedStep(trace);
      trace->Record("iteration", start, Clock::now(), "");
    } else {
      instance->Step();
    }
    loop.seconds.push_back(
        std::chrono::duration<double>(Clock::now() - start).count());
  }
  return loop;
}

uint64_t Counter(const MetricsSnapshot& snapshot, const std::string& name) {
  for (const auto& [key, value] : snapshot.counters) {
    if (key == name) {
      return value;
    }
  }
  return 0;
}

/// Counter increase between two snapshots.
struct CounterDelta {
  MetricsSnapshot before;
  MetricsSnapshot after;
  double operator()(const std::string& name) const {
    return static_cast<double>(Counter(after, name) - Counter(before, name));
  }
};

void PrintResult(const Checks& checks, const std::vector<Metric>& metrics) {
  for (const std::string& failure : checks.failures) {
    std::fprintf(stderr, "check failed: %s\n", failure.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
              "\"metrics\": {",
              checks.failed == 0 ? "true" : "false", checks.attempted,
              checks.failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

/// Marks the checks a throwing run skipped as failed.
void FailSkipped(Checks* checks, int planned, const std::string& what) {
  checks->failures.push_back("run aborted: " + what);
  const int skipped = std::max(planned - checks->attempted, 1);
  checks->attempted += skipped;
  checks->failed += skipped;
}

/// Times one set-up in a forked child. A fresh process pays the pool start
/// and first touch as the measured instance does, and the parent's resident
/// high-water mark stays that of the measured run alone. Call only while the
/// parent has no threads (before its own instance exists).
double SetupSecondsInChild(const WorkloadSpec& spec, uint64_t seed,
                           int threads) {
  int fds[2];
  if (pipe(fds) != 0) {
    throw std::runtime_error("pipe failed");
  }
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    throw std::runtime_error("fork failed");
  }
  if (pid == 0) {
    close(fds[0]);
    double seconds = -1;
    try {
      const auto start = Clock::now();
      auto instance = MakeInstance(spec, seed, threads);
      instance->Step();
      seconds = std::chrono::duration<double>(Clock::now() - start).count();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "set-up failed: %s\n", e.what());
    }
    // _exit: skip the teardown and the parent's duplicated stdio buffers.
    const bool sent = write(fds[1], &seconds, sizeof(seconds)) ==
                      static_cast<ssize_t>(sizeof(seconds));
    _exit(sent ? 0 : 1);
  }
  close(fds[1]);
  double seconds = -1;
  const bool received = read(fds[0], &seconds, sizeof(seconds)) ==
                        static_cast<ssize_t>(sizeof(seconds));
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (!received || seconds < 0 || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    throw std::runtime_error("set-up in a child process failed");
  }
  return seconds;
}

int RunEndToEnd(const WorkloadSpec& spec, const Args& args, int threads) {
  const uint64_t iterations = std::max<uint64_t>(
      kTailSamplesBeyond + 1,
      static_cast<uint64_t>(std::llround(args.seconds *
                                         spec.iterations_per_second)));
  Checks checks;
  std::vector<double> setup;
  Loop loop;
  int planned = 1;
  try {
    for (int k = 1; k < kSetups; ++k) {
      setup.push_back(SetupSecondsInChild(spec, args.seed, threads));
    }
    const auto start = Clock::now();
    std::unique_ptr<Instance> instance =
        MakeInstance(spec, args.seed, threads);
    instance->Step();
    setup.push_back(
        std::chrono::duration<double>(Clock::now() - start).count());
    planned = instance->NumChecks();
    std::printf("workload %s: %llu agents at start, %d threads, seed %llu, "
                "%llu timed iterations after warm-up\n",
                spec.name.c_str(),
                static_cast<unsigned long long>(instance->Population()),
                threads, static_cast<unsigned long long>(args.seed),
                static_cast<unsigned long long>(iterations));
    loop = RunLoop(instance.get(), iterations);
    std::printf("population at the end: %llu\n",
                static_cast<unsigned long long>(instance->Population()));
    instance->Check(&checks);
  } catch (const std::exception& e) {
    FailSkipped(&checks, planned, e.what());
  }

  std::vector<double> sorted = loop.seconds;
  std::sort(sorted.begin(), sorted.end());
  const size_t n = sorted.size();
  const double tail =
      n > kTailSamplesBeyond ? sorted[n - 1 - kTailSamplesBeyond] : 0;
  const double percentile =
      n > 0 ? 100.0 * static_cast<double>(n - kTailSamplesBeyond) /
                  static_cast<double>(n)
            : 0;
  const double rss = PeakRssMb();
  std::printf("iter_ms_tail is p%.2f of %zu iteration samples (%zu beyond "
              "it); setup_s is the median of %zu set-ups; peak RSS %.1f MiB\n",
              percentile, n, kTailSamplesBeyond, setup.size(), rss);
  PrintResult(checks,
              {{"ns_per_agent_iter", loop.NsPerAgentIter(), "ns"},
               {"iter_ms_p50", Median(loop.seconds) * 1e3, "ms"},
               {"iter_ms_tail", tail * 1e3, "ms"},
               {"setup_s", Median(setup), "s"},
               {"peak_rss_mb", rss, "MiB"}});
  return 0;
}

/// Sum of span durations and call count per span name.
struct SpanTotals {
  std::map<std::string, double> seconds;
  std::map<std::string, uint64_t> calls;
  double overlap = 0;  // op spans / scheduler-iteration spans
  double gap = 0;      // scheduler-iteration time no op span covers
};

SpanTotals Summarize(const std::vector<Span>& spans) {
  SpanTotals totals;
  std::map<uint64_t, std::vector<const Span*>> ops_by_iteration;
  for (const Span& span : spans) {
    totals.seconds[span.name] += span.Seconds();
    ++totals.calls[span.name];
    if (span.parent == "scheduler_iteration") {
      ops_by_iteration[span.iteration].push_back(&span);
    }
  }
  double op_sum = 0;
  double sched_sum = 0;
  for (const Span& sched : spans) {
    if (sched.name != "scheduler_iteration") {
      continue;
    }
    std::vector<std::pair<Clock::time_point, Clock::time_point>> covered;
    for (const Span* op : ops_by_iteration[sched.iteration]) {
      if (op->start >= sched.start && op->end <= sched.end) {
        covered.emplace_back(op->start, op->end);
        op_sum += op->Seconds();
      }
    }
    std::sort(covered.begin(), covered.end());
    double union_seconds = 0;
    Clock::time_point reach = sched.start;
    for (const auto& [start, end] : covered) {
      const Clock::time_point from = std::max(start, reach);
      if (end > from) {
        union_seconds += std::chrono::duration<double>(end - from).count();
        reach = end;
      }
    }
    sched_sum += sched.Seconds();
    totals.gap += sched.Seconds() - union_seconds;
  }
  totals.overlap = sched_sum > 0 ? op_sum / sched_sum : 0;
  return totals;
}

int RunTraced(const WorkloadSpec& spec, const Args& args, int threads) {
  const uint64_t iterations = std::max<uint64_t>(
      spec.single_thread_iterations,
      static_cast<uint64_t>(std::llround(args.seconds *
                                         spec.trace_iterations_per_second)));
  Checks checks;
  std::vector<Metric> metrics;
  int planned = 0;
  try {
    // Legs, in order: untraced, traced, single-thread, untraced again. The
    // traced leg is compared with the mean of the two untraced legs around
    // it, so a linear drift of host speed cancels out of trace.overhead.
    struct PlainLeg {
      Loop loop;
      std::vector<std::pair<std::string, uint64_t>> counts;
    };
    const auto run_plain = [&](int leg_threads, uint64_t leg_iterations) {
      PlainLeg leg;
      auto instance = MakeInstance(spec, args.seed, leg_threads);
      instance->Step();
      if (planned == 0) {
        // Three checked 4-thread legs, the traced one adding its exchange
        // audit when sharded, plus the DAG and the two count comparisons.
        planned =
            3 * instance->NumChecks() + (instance->Sharded() ? 1 : 0) + 3;
      }
      leg.loop = RunLoop(instance.get(), leg_iterations);
      leg.counts = instance->ExactCounts();
      if (leg_threads == threads) {
        instance->Check(&checks);
      }
      return leg;
    };
    const PlainLeg before = run_plain(threads, iterations);

    // The trace outlives the instance (its wrappers unregister from it on
    // destruction).
    LayerTrace trace;
    Loop traced;
    CounterDelta delta;
    double voxel_updates = 0;
    double slab_imbalance = 0;
    bool sharded = false;
    {
      auto instance = MakeInstance(spec, args.seed, threads);
      instance->EnableTrace(&trace);
      checks.Expect(true, "traced pipeline keeps the op DAG");
      instance->TracedStep(&trace);
      trace.Clear();
      delta.before = MetricsRegistry::Get().Snapshot();
      traced = RunLoop(instance.get(), iterations, &trace);
      delta.after = MetricsRegistry::Get().Snapshot();
      slab_imbalance =
          MetricsRegistry::Get().GaugeValue("sched.slab_imbalance");
      voxel_updates = instance->VoxelUpdatesPerIteration();
      sharded = instance->Sharded();
      const auto counts = instance->ExactCounts();
      checks.Expect(counts == before.counts,
                    "traced counts differ from the untraced run");
      for (size_t i = 0; i < counts.size() && i < before.counts.size(); ++i) {
        std::printf("exact count %s: untraced %llu, traced %llu\n",
                    counts[i].first.c_str(),
                    static_cast<unsigned long long>(before.counts[i].second),
                    static_cast<unsigned long long>(counts[i].second));
      }
      instance->Check(&checks);
    }
    if (!args.trace_out.empty() &&
        !trace.WriteTraceEvents(args.trace_out, spec.name)) {
      std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
    }

    // The same problem on one thread, over a prefix of the run.
    const PlainLeg serial = run_plain(1, spec.single_thread_iterations);
    const PlainLeg after = run_plain(threads, iterations);
    checks.Expect(after.counts == before.counts,
                  "exact counts differ between the two untraced runs");
    const size_t prefix = spec.single_thread_iterations;
    const double speedup =
        serial.loop.NsPerAgentIter() /
        ((before.loop.NsPerAgentIter(prefix) +
          after.loop.NsPerAgentIter(prefix)) /
         2);
    const double plain_ns =
        (before.loop.NsPerAgentIter() + after.loop.NsPerAgentIter()) / 2;

    const SpanTotals spans = Summarize(trace.spans());
    const double n = static_cast<double>(iterations);
    const auto ms = [&](const std::string& name) {
      const auto it = spans.seconds.find(name);
      return it == spans.seconds.end() ? 0.0 : it->second * 1e3 / n;
    };
    const auto seconds = [&](const std::string& name) {
      const auto it = spans.seconds.find(name);
      return it == spans.seconds.end() ? 0.0 : it->second;
    };
    const auto calls = [&](const std::string& name) {
      const auto it = spans.calls.find(name);
      return it == spans.calls.end() ? 0.0 : static_cast<double>(it->second);
    };
    const auto ratio = [](double num, double den) {
      return den > 0 ? num / den : 0.0;
    };
    const double wall = seconds("iteration");
    const double pair_visits = delta("env.neighbor_pair_visits");
    const double events =
        delta("commit.agents_added") + delta("commit.agents_removed");
    const double stolen =
        delta("sched.steal_local_blocks") + delta("sched.steal_remote_blocks");
    const double diffusion_s =
        sharded ? seconds("field_step") : seconds("diffusion");
    const double halo_records = delta("shard/halo_agents_sent");
    const auto shard_only = [&](double value) { return sharded ? value : 0; };

    metrics = {
        {"scheduler.iter_ms", wall * 1e3 / n, "ms"},
        {"scheduler.overlap_ratio", spans.overlap, "ratio"},
        {"scheduler.gap_ms", spans.gap * 1e3 / n, "ms"},
        {"load_balance.ms_per_call",
         ratio(seconds("load_balancing") * 1e3, calls("load_balancing")),
         "ms"},
        {"load_balance.share", ratio(seconds("load_balancing"), wall),
         "ratio"},
        {"env.update_ms", ms("environment_update"), "ms"},
        {"env.agents_indexed", delta("env.grid_agents_indexed") / n,
         "count/iter"},
        {"env.pair_visits", pair_visits / n, "count/iter"},
        {"behaviors.stage_ms", ms("behaviors"), "ms"},
        {"behaviors.busy_ns_per_agent",
         ratio(trace.behavior_busy_ns(),
               static_cast<double>(trace.behavior_agent_runs())),
         "ns"},
        {"mechanics.ms", ms("mechanical_forces"), "ms"},
        {"mechanics.ns_per_pair_visit",
         ratio(seconds("mechanical_forces") * 1e9, pair_visits), "ns"},
        {"mechanics.static_skips", delta("forces.static_agent_skips") / n,
         "count/iter"},
        {"diffusion.ms", diffusion_s * 1e3 / n, "ms"},
        {"diffusion.ns_per_voxel_update",
         ratio(diffusion_s * 1e9, voxel_updates * n), "ns"},
        {"commit.ms", ms("commit"), "ms"},
        {"commit.events", events / n, "count/iter"},
        {"commit.ns_per_event", ratio(seconds("commit") * 1e9, events), "ns"},
        {"soa.incremental_updates", delta("soa/incremental_updates") / n,
         "count/iter"},
        {"soa.full_rebuilds", delta("soa/full_rebuilds") / n, "count/iter"},
        {"memory.allocs", delta("alloc.news") / n, "count/iter"},
        {"memory.refill_batches",
         (delta("alloc.refill_central_batches") +
          delta("alloc.refill_carve_batches")) /
             n,
         "count/iter"},
        {"memory.migrated_batches", delta("alloc.migrated_batches") / n,
         "count/iter"},
        {"sched.steal_ratio", ratio(stolen, stolen + delta("sched.blocks_own")),
         "ratio"},
        {"sched.slab_imbalance", slab_imbalance, "ratio"},
        {"sched.speedup_vs_1t", speedup, "x"},
        {"shard.exchange_ms", ms("exchange"), "ms"},
        {"shard.step_ms", shard_only(ms("scheduler_iteration")), "ms"},
        {"shard.field_exchange_ms", ms("field_exchange"), "ms"},
        {"shard.field_step_ms", ms("field_step"), "ms"},
        {"shard.exchange_share",
         ratio(seconds("exchange") + seconds("field_exchange"), wall),
         "ratio"},
        {"shard.halo_records", halo_records / n, "count/iter"},
        {"shard.bytes_per_record",
         ratio(delta("shard/exchange_bytes"), halo_records), "B"},
        {"shard.migrations", delta("shard/migrations") / n, "count/iter"},
        {"shard.field_halo_bytes", delta("shard/field_halo_bytes") / n,
         "B/iter"},
        {"shard.field_deposits_forwarded",
         delta("shard/field_deposits_forwarded") / n, "count/iter"},
        {"trace.overhead", ratio(traced.NsPerAgentIter(), plain_ns) - 1,
         "ratio"},
    };
    std::printf("traced run: %llu iterations per 4-thread leg, %llu on one "
                "thread; ns/agent-iter untraced (mean of 2) %.1f, traced "
                "%.1f, 1 thread %.1f; %zu spans\n",
                static_cast<unsigned long long>(iterations),
                static_cast<unsigned long long>(spec.single_thread_iterations),
                plain_ns, traced.NsPerAgentIter(),
                serial.loop.NsPerAgentIter(), trace.spans().size());
  } catch (const std::exception& e) {
    FailSkipped(&checks, planned, e.what());
  }
  PrintResult(checks, metrics);
  return 0;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = value != "0";
    } else if (key == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

}  // namespace
}  // namespace bdm::perfbench

int main(int argc, char** argv) {
  using namespace bdm::perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-out <path>]\n",
                 argv[0]);
    return 2;
  }
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }
  const int threads = HostThreads();
  return args.trace ? RunTraced(*spec, args, threads)
                    : RunEndToEnd(*spec, args, threads);
}
