#include "obs/metrics.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>

#include "sched/numa_thread_pool.h"

namespace bdm {

std::atomic<bool> MetricsRegistry::enabled_{true};

MetricsRegistry& MetricsRegistry::Get() {
  static MetricsRegistry registry;
  return registry;
}

MetricsRegistry::MetricsRegistry()
    : shards_(std::make_unique<Shard[]>(kMaxSlots)) {}

int MetricsRegistry::RegisterImpl(const std::string& name, Kind kind) {
  std::scoped_lock lock(register_mutex_);
  for (size_t id = 0; id < names_.size(); ++id) {
    if (names_[id] == name) {
      assert(kinds_[id] == kind && "metric re-registered with another kind");
      return static_cast<int>(id);
    }
  }
  if (names_.size() >= kMaxMetrics) {
    throw std::length_error("MetricsRegistry: more than kMaxMetrics metrics");
  }
  names_.push_back(name);
  kinds_.push_back(kind);
  return static_cast<int>(names_.size() - 1);
}

int MetricsRegistry::RegisterCounter(const std::string& name) {
  return RegisterImpl(name, Kind::kCounter);
}

int MetricsRegistry::RegisterGauge(const std::string& name) {
  return RegisterImpl(name, Kind::kGauge);
}

void MetricsRegistry::ConfigureSlots(int num_slots) {
  assert(num_slots <= kMaxSlots && "topology exceeds metrics slot capacity");
  std::scoped_lock lock(register_mutex_);
  num_slots_ = std::clamp(num_slots, num_slots_, kMaxSlots);
}

void MetricsRegistry::Add(int id, uint64_t delta) {
  // CurrentThreadSlot (not worker id + 1): a shard lane thread stepping one
  // of several concurrently-stepping shards resolves to its own slot past
  // the workers, never to the main thread's shard 0.
  Add(id, delta, NumaThreadPool::CurrentThreadSlot());
}

void MetricsRegistry::FlushShards() {
  // Once per iteration from the main thread; the lock pins names_/num_slots_
  // against a concurrent registration (uncontended in steady state).
  std::scoped_lock lock(register_mutex_);
  const int num_metrics = static_cast<int>(names_.size());
  for (int slot = 0; slot < num_slots_; ++slot) {
    Shard& shard = shards_[slot];
    for (int id = 0; id < num_metrics; ++id) {
      totals_[id] += shard.values[id];
      shard.values[id] = 0;
    }
  }
}

uint64_t MetricsRegistry::CounterTotal(const std::string& name) const {
  std::scoped_lock lock(register_mutex_);
  for (size_t id = 0; id < names_.size(); ++id) {
    if (names_[id] == name && kinds_[id] == Kind::kCounter) {
      return totals_[id];
    }
  }
  return 0;
}

double MetricsRegistry::GaugeValue(const std::string& name) const {
  std::scoped_lock lock(register_mutex_);
  for (size_t id = 0; id < names_.size(); ++id) {
    if (names_[id] == name && kinds_[id] == Kind::kGauge) {
      return gauges_[id].load(std::memory_order_relaxed);
    }
  }
  return 0;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snapshot;
  std::scoped_lock lock(register_mutex_);
  for (size_t id = 0; id < names_.size(); ++id) {
    if (kinds_[id] == Kind::kCounter) {
      snapshot.counters.emplace_back(names_[id], totals_[id]);
    } else {
      snapshot.gauges.emplace_back(names_[id],
                                   gauges_[id].load(std::memory_order_relaxed));
    }
  }
  std::sort(snapshot.counters.begin(), snapshot.counters.end());
  std::sort(snapshot.gauges.begin(), snapshot.gauges.end());
  return snapshot;
}

void MetricsRegistry::Reset() {
  std::scoped_lock lock(register_mutex_);
  // Clear the full capacity, not just the active slots: a pool used before
  // this registry was (re)configured may have parked counts in higher slots.
  for (int slot = 0; slot < kMaxSlots; ++slot) {
    std::memset(shards_[slot].values, 0, sizeof(shards_[slot].values));
  }
  std::memset(totals_, 0, sizeof(totals_));
  for (auto& gauge : gauges_) {
    gauge.store(0, std::memory_order_relaxed);
  }
}

}  // namespace bdm
