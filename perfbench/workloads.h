// The benchmark's workloads: each builds one engine instance through the
// public API (model registry, Simulation, ShardedSimulation), steps it one
// iteration at a time, optionally with layer tracing, and checks its output.
#ifndef BDM_PERFBENCH_WORKLOADS_H_
#define BDM_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "layer_trace.h"

namespace bdm::perfbench {

struct WorkloadSpec {
  std::string name;
  uint64_t agents = 0;
  /// Timed iterations per second of --seconds. Fixing the iteration count
  /// (instead of stopping on the clock) makes both sides of a comparison
  /// simulate the same iterations -- the same population trajectory and the
  /// same share of sort iterations.
  double iterations_per_second = 0;
  /// Traced-run iterations per second of --seconds, for each of the three
  /// 4-thread legs; the 1-thread leg runs a fixed prefix of them.
  double trace_iterations_per_second = 0;
  uint64_t single_thread_iterations = 0;
};

const WorkloadSpec* FindWorkload(const std::string& name);

/// Output checks of one run: every check attempted counts once.
struct Checks {
  int attempted = 0;
  int failed = 0;
  std::vector<std::string> failures;

  void Expect(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      failures.push_back(what);
    }
  }
};

class Instance {
 public:
  virtual ~Instance() = default;

  /// Live (owned) agents; sampled at each iteration start.
  virtual uint64_t Population() = 0;
  /// One iteration through the engine's own loop.
  virtual void Step() = 0;
  /// Swaps in the traced pipeline; call before the first iteration.
  virtual void EnableTrace(LayerTrace* trace) = 0;
  /// One iteration with spans around each layer call (EnableTrace first).
  virtual void TracedStep(LayerTrace* trace) = 0;
  /// Output checks on the quiesced instance. A traced sharded instance also
  /// audits the shards right after one more exchange.
  virtual void Check(Checks* checks) = 0;
  /// Number of checks Check makes, so a run that throws can count the
  /// skipped ones as failed.
  virtual int NumChecks() const = 0;
  /// Counts that repeat exactly between runs of the same seed and length.
  virtual std::vector<std::pair<std::string, uint64_t>> ExactCounts() = 0;
  /// Diffusion voxel updates one iteration computes (grid volumes times
  /// stencil substeps), from the grid sizes.
  virtual double VoxelUpdatesPerIteration() = 0;
  virtual bool Sharded() const = 0;
};

std::unique_ptr<Instance> MakeInstance(const WorkloadSpec& spec, uint64_t seed,
                                       int threads);

}  // namespace bdm::perfbench

#endif  // BDM_PERFBENCH_WORKLOADS_H_
