// Wall-clock timing aggregation for the operation runtime breakdown
// (paper Figure 5 left).
//
// Concurrency model (mirrors obs/metrics.h): a ScopedTimer fires on the
// thread that runs the op -- the main thread, or a shard lane, several of
// which step their shards at once. Add() therefore appends to a per-thread
// shard (indexed by NumaThreadPool::CurrentThreadSlot()); only the main
// thread (slot 0) updates the global map directly. Fold() drains the shards
// into the map and runs strictly between parallel regions -- the scheduler
// calls it at the end of every iteration, and every accessor folds lazily
// so ad-hoc reads between Simulate calls stay exact.
#ifndef BDM_CORE_TIMING_H_
#define BDM_CORE_TIMING_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
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
    const int slot = NumaThreadPool::CurrentThreadSlot();
    if (slot == 0) {
      auto& entry = entries_[name];
      entry.seconds += seconds;
      ++entry.count;
      return;
    }
    // Worker or lane thread: appending to the owned shard is the only
    // concurrency-safe move (the map may be mid-rebalance on another slot's
    // name). Folded at the end of the iteration.
    shards_[slot].emplace_back(name, seconds);
  }

  /// Drains every shard into the global map. Call only while no worker or
  /// lane thread is running timers (the end of a scheduler iteration, or any
  /// point between Simulate calls); the accessors below fold lazily under
  /// the same precondition.
  void Fold() const {
    for (int s = 1; s < MetricsRegistry::kMaxSlots; ++s) {
      auto& pending = shards_[s];
      if (pending.empty()) {
        continue;
      }
      for (const auto& [name, seconds] : pending) {
        auto& entry = entries_[name];
        entry.seconds += seconds;
        ++entry.count;
      }
      pending.clear();
    }
  }

  double TotalSeconds(const std::string& name) const {
    Fold();
    auto it = entries_.find(name);
    return it == entries_.end() ? 0.0 : it->second.seconds;
  }

  uint64_t Count(const std::string& name) const {
    Fold();
    auto it = entries_.find(name);
    return it == entries_.end() ? 0 : it->second.count;
  }

  /// Sum over top-level buckets. Names containing '/' are sub-timings of a
  /// parent bucket (e.g. "diffusion/substance_0" inside "diffusion") and
  /// are excluded to avoid double counting.
  double GrandTotalSeconds() const {
    Fold();
    double total = 0;
    for (const auto& [name, entry] : entries_) {
      if (name.find('/') == std::string::npos) {
        total += entry.seconds;
      }
    }
    return total;
  }

  /// name -> (seconds, count), ordered by name.
  const std::map<std::string, Entry>& raw() const {
    Fold();
    return entries_;
  }

  void Reset() {
    entries_.clear();
    for (int s = 0; s < MetricsRegistry::kMaxSlots; ++s) {
      shards_[s].clear();
    }
  }

 private:
  // mutable: Fold() is logically const (moves pending samples into the
  // totals they already belong to) and must be callable from const readers.
  mutable std::map<std::string, Entry> entries_;
  mutable std::vector<std::pair<std::string, double>>
      shards_[MetricsRegistry::kMaxSlots];
};

/// RAII timer adding its lifetime to an aggregator bucket. When a chrome
/// trace is being recorded (BDM_TRACE, obs/trace.h), the same lifetime is
/// additionally emitted as a trace span on the calling thread's slot track,
/// so every existing timing site is a trace site for free -- and
/// concurrently-running DAG ops land on distinct Perfetto tracks. `iteration`
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
