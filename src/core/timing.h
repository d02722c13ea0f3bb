// Wall-clock timing aggregation for the operation runtime breakdown
// (paper Figure 5 left).
//
// Single writer: every ScopedTimer of a Simulation fires on the one thread
// that drives it -- the scheduler's RunPlan runs each op on the calling
// thread, DiffusionOp::Run times its grids there, and the shard driver
// times each shard's field step on the main thread after the lanes have
// joined. Concurrently-stepping shards each own a Simulation and so an
// aggregator. Add() therefore writes the map directly; reads between
// Simulate calls see every sample.
#ifndef BDM_CORE_TIMING_H_
#define BDM_CORE_TIMING_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>

#include "obs/trace.h"
#include "sched/numa_thread_pool.h"

namespace bdm {

class TimingAggregator {
 public:
  struct Entry {
    double seconds = 0;
    uint64_t count = 0;
  };

  void Add(const std::string& name, double seconds) {
    auto& entry = entries_[name];
    entry.seconds += seconds;
    ++entry.count;
  }

  double TotalSeconds(const std::string& name) const {
    auto it = entries_.find(name);
    return it == entries_.end() ? 0.0 : it->second.seconds;
  }

  uint64_t Count(const std::string& name) const {
    auto it = entries_.find(name);
    return it == entries_.end() ? 0 : it->second.count;
  }

  /// Sum over top-level buckets. Names containing '/' are sub-timings of a
  /// parent bucket (e.g. "diffusion/substance_0" inside "diffusion") and
  /// are excluded to avoid double counting.
  double GrandTotalSeconds() const {
    double total = 0;
    for (const auto& [name, entry] : entries_) {
      if (name.find('/') == std::string::npos) {
        total += entry.seconds;
      }
    }
    return total;
  }

  /// name -> (seconds, count), ordered by name.
  const std::map<std::string, Entry>& raw() const { return entries_; }

  void Reset() { entries_.clear(); }

 private:
  std::map<std::string, Entry> entries_;
};

/// RAII timer adding its lifetime to an aggregator bucket. When a chrome
/// trace is being recorded (BDM_TRACE, obs/trace.h), the same lifetime is
/// additionally emitted as a trace span on the calling thread's slot track,
/// so every existing timing site is a trace site for free -- and shards
/// stepping on different lanes land on distinct Perfetto tracks. `iteration`
/// tags the span for per-step filtering (sites outside the scheduler may
/// leave it 0).
class ScopedTimer {
 public:
  ScopedTimer(TimingAggregator* aggregator, std::string name,
              uint64_t iteration = 0)
      : aggregator_(aggregator),
        name_(std::move(name)),
        iteration_(iteration),
        start_(std::chrono::steady_clock::now()) {}

  ~ScopedTimer() {
    const auto end = std::chrono::steady_clock::now();
    aggregator_->Add(name_,
                     std::chrono::duration<double>(end - start_).count());
    if (TraceRecorder::Active()) {
      TraceRecorder::Get().RecordSpan(name_, start_, end,
                                      NumaThreadPool::CurrentThreadSlot(),
                                      iteration_);
    }
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  TimingAggregator* aggregator_;
  std::string name_;
  uint64_t iteration_;
  std::chrono::steady_clock::time_point start_;
};

/// RAII trace-only span (no aggregator bucket): used for spans that would
/// double-count a TimingAggregator top-level bucket, like the scheduler's
/// whole-iteration envelope.
class TraceSpan {
 public:
  TraceSpan(std::string name, uint64_t iteration)
      : name_(std::move(name)),
        iteration_(iteration),
        start_(std::chrono::steady_clock::now()) {}

  ~TraceSpan() {
    if (TraceRecorder::Active()) {
      TraceRecorder::Get().RecordSpan(name_, start_,
                                      std::chrono::steady_clock::now(),
                                      NumaThreadPool::CurrentThreadSlot(),
                                      iteration_);
    }
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  std::string name_;
  uint64_t iteration_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace bdm

#endif  // BDM_CORE_TIMING_H_
