// MetricsRegistry: engine-wide named counters and gauges (observability
// layer, DESIGN.md Section 7).
//
// The paper's evaluation looks *inside* the engine (Figure 5: operation
// breakdown; Figures 7-9: optimization ablations); the counters here expose
// the same interior mechanics -- work-steal traffic, grid rebuild volume,
// static-agent skips, allocator free-list migrations, commit churn -- as
// machine-readable numbers a CI gate can assert on.
//
// Concurrency model: counter increments go to a per-thread *shard* (one
// cache-line-aligned array per thread slot), so the hot path is a single
// non-atomic memory add with no sharing. Shards are folded into the global
// totals by FlushShards(), which the scheduler calls once per iteration
// from the main thread -- strictly between parallel regions, so the pool's
// dispatch barrier orders every worker's shard writes before the flush
// reads them (the same reasoning as the diffusion deposit logs). Gauges are
// single-writer point-in-time values set between parallel regions.
//
// Thread slots follow the MemoryManager convention: slot 0 is the main
// (non-pool) thread, slot t+1 is pool worker t.
#ifndef BDM_OBS_METRICS_H_
#define BDM_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace bdm {

/// Point-in-time copy of every registered metric (see
/// MetricsRegistry::Snapshot).
struct MetricsSnapshot {
  std::vector<std::pair<std::string, uint64_t>> counters;  // name -> total
  std::vector<std::pair<std::string, double>> gauges;      // name -> value
};

class MetricsRegistry {
 public:
  /// Hard cap on distinct metrics; keeps a shard one small fixed-size array
  /// (2 cache lines of counters per 16 metrics) instead of a hash map.
  static constexpr int kMaxMetrics = 128;
  /// Hard cap on thread slots (main + workers + shard lanes), shared by
  /// every per-thread-slot array (metric shards, diffusion deposit logs,
  /// pool allocator caches). Shards live in one fixed-capacity allocation so
  /// growing the active slot count never reallocates under a running
  /// worker.
  static constexpr int kMaxSlots = 257;

  /// The process-wide registry (one Simulation is active per process, see
  /// core/simulation.h, so process scope == simulation scope).
  static MetricsRegistry& Get();

  /// Registers a counter (idempotent by name) and returns its stable id.
  /// Call once per site and cache the id; registration takes a mutex.
  int RegisterCounter(const std::string& name);
  /// Same for a gauge. Counters and gauges share the id space.
  int RegisterGauge(const std::string& name);

  /// Global on/off switch (Param::collect_metrics / BDM_METRICS=0).
  /// Instrumentation sites check this before counting so a disabled run
  /// pays one relaxed load + predictable branch per site.
  static bool Enabled() {
    return enabled_.load(std::memory_order_relaxed);
  }
  static void SetEnabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  /// Raises the active slot count to cover `num_slots` thread slots
  /// (workers + 1). Storage is preallocated at kMaxSlots capacity, so this
  /// only widens the range FlushShards folds -- safe to call whenever a new
  /// thread pool is constructed (its workers are not running jobs yet).
  void ConfigureSlots(int num_slots);

  /// Adds `delta` to counter `id` on the calling thread's shard. `slot` is
  /// the thread slot (pool worker tid + 1, main thread 0). Not atomic; a
  /// slot must only ever be used by its owning thread.
  void Add(int id, uint64_t delta, int slot) {
    shards_[slot].values[id] += delta;
  }

  /// Convenience overload resolving the slot from the calling thread.
  void Add(int id, uint64_t delta);

  /// Sets gauge `id`. Last-writer-wins: concurrent shard lanes may each
  /// publish their simulation's value (e.g. the SoA footprint during
  /// parallel shard stepping), so the store is relaxed-atomic rather than
  /// slot-sharded -- a gauge is a point sample, not an accumulator.
  void SetGauge(int id, double value) {
    gauges_[id].store(value, std::memory_order_relaxed);
  }

  /// Folds every shard into the global totals and zeroes the shards. Call
  /// from the main thread between parallel regions only (the scheduler does
  /// this at the end of every iteration).
  void FlushShards();

  /// Total of a counter by id (post-flush value; shards still in flight are
  /// not included).
  uint64_t CounterTotal(int id) const { return totals_[id]; }
  /// Total of a counter by name; 0 when the name was never registered.
  uint64_t CounterTotal(const std::string& name) const;
  double GaugeValue(const std::string& name) const;

  /// Copies every registered metric, ordered by name.
  MetricsSnapshot Snapshot() const;

  /// Zeroes all totals, shards, and gauges. Registered names and ids
  /// persist (instrumentation sites cache ids across simulations).
  void Reset();

 private:
  MetricsRegistry();

  enum class Kind : uint8_t { kCounter, kGauge };

  int RegisterImpl(const std::string& name, Kind kind);

  struct alignas(64) Shard {
    uint64_t values[kMaxMetrics] = {};
  };

  static std::atomic<bool> enabled_;

  mutable std::mutex register_mutex_;
  std::vector<std::string> names_;  // index == id
  std::vector<Kind> kinds_;
  std::unique_ptr<Shard[]> shards_;  // capacity kMaxSlots, never reallocated
  int num_slots_ = 1;                // slots FlushShards folds
  uint64_t totals_[kMaxMetrics] = {};
  std::atomic<double> gauges_[kMaxMetrics] = {};
};

}  // namespace bdm

#endif  // BDM_OBS_METRICS_H_
