#include "core/soa_store.h"

#include "core/agent.h"
#include "core/resource_manager.h"
#include "core/soa_dirty.h"
#include "obs/metrics.h"
#include "sched/numa_thread_pool.h"

namespace bdm {

namespace {

struct SoaMetrics {
  int mirror_bytes = MetricsRegistry::Get().RegisterGauge("soa/mirror_bytes");
  int incremental_updates =
      MetricsRegistry::Get().RegisterCounter("soa/incremental_updates");
  int full_rebuilds =
      MetricsRegistry::Get().RegisterCounter("soa/full_rebuilds");
};

const SoaMetrics& Metrics() {
  static const SoaMetrics metrics;
  return metrics;
}

}  // namespace

// ---------------------------------------------------------------------------
// ForceAccumulator
// ---------------------------------------------------------------------------

void SoaStore::ForceAccumulator::BeginPass(uint64_t count, int num_slabs) {
  if (fx_.size() < count) {
    const uint64_t cap = count + count / 2;
    fx_.Reset(cap);
    fy_.Reset(cap);
    fz_.Reset(cap);
    non_zero_.Reset(cap);
  }
  num_slabs_ = num_slabs;
  logs_.resize(static_cast<size_t>(num_slabs) * num_slabs);
  for (Log& log : logs_) {
    log.chunks.clear();
    log.size = 0;
  }
  chunks_in_use_ = 0;
}

SoaStore::ForceAccumulator::Chunk* SoaStore::ForceAccumulator::AcquireChunk() {
  std::lock_guard<std::mutex> lock(chunks_mutex_);
  if (chunks_in_use_ == chunks_.size()) {
    chunks_.push_back(std::make_unique<Chunk>());
  }
  return chunks_[chunks_in_use_++].get();
}

uint64_t SoaStore::ForceAccumulator::LogEntries() const {
  uint64_t entries = 0;
  for (const Log& log : logs_) {
    entries += log.size;
  }
  return entries;
}

uint64_t SoaStore::ForceAccumulator::Bytes() const {
  uint64_t bytes = fx_.size() * sizeof(real_t) * 3 +
                   non_zero_.size() * sizeof(uint32_t) +
                   logs_.capacity() * sizeof(Log) +
                   chunks_.capacity() * sizeof(chunks_[0]) +
                   chunks_.size() * sizeof(Chunk);
  for (const Log& log : logs_) {
    bytes += log.chunks.capacity() * sizeof(Chunk*);
  }
  return bytes;
}

// ---------------------------------------------------------------------------
// Layout helpers
// ---------------------------------------------------------------------------

void SoaStore::Reallocate(uint64_t min_capacity) {
  agents_.Reset(min_capacity);
  pos_x_.Reset(min_capacity);
  pos_y_.Reset(min_capacity);
  pos_z_.Reset(min_capacity);
  diameter_.Reset(min_capacity);
  is_static_.Reset(min_capacity);
  capacity_ = min_capacity;
}

uint64_t SoaStore::MemoryFootprintBytes() const {
  return capacity_ * (sizeof(Agent*) + 4 * sizeof(real_t) + sizeof(uint8_t)) +
         forces_.Bytes();
}

void SoaStore::UpdateFootprintGauge() {
  if (MetricsRegistry::Enabled()) {
    MetricsRegistry::Get().SetGauge(
        Metrics().mirror_bytes, static_cast<double>(MemoryFootprintBytes()));
  }
}

// ---------------------------------------------------------------------------
// Rebuild / refresh
// ---------------------------------------------------------------------------

void SoaStore::FullRebuild(const ResourceManager& rm, NumaThreadPool* pool) {
  const int num_domains = rm.GetNumDomains();
  domain_offset_.assign(num_domains + 1, 0);
  for (int d = 0; d < num_domains; ++d) {
    domain_offset_[d + 1] = domain_offset_[d] + rm.GetNumAgents(d);
  }
  const uint64_t total = domain_offset_[num_domains];
  if (total > capacity_) {
    Reallocate(total + total / 2);  // headroom amortizes growth
  }
  for (int d = 0; d < num_domains; ++d) {
    const std::vector<Agent*>& src = rm.GetAgentVector(d);
    const uint64_t offset = domain_offset_[d];
    pool->ParallelFor(0, static_cast<int64_t>(src.size()), 2048,
                      [&](int64_t lo, int64_t hi, int) {
                        for (int64_t i = lo; i < hi; ++i) {
                          Agent* agent = src[i];
                          const uint64_t dense = offset + i;
                          agents_[dense] = agent;
                          const Real3& p = agent->GetPosition();
                          pos_x_[dense] = p.x;
                          pos_y_[dense] = p.y;
                          pos_z_[dense] = p.z;
                          diameter_[dense] = agent->GetDiameter();
                          is_static_[dense] = agent->IsStatic() ? 1 : 0;
                        }
                      });
  }
  live_ = true;
  structure_dirty_.store(false, std::memory_order_relaxed);
  // The rebuild just read the current AoS geometry, so any earlier dirty
  // mark is consumed. Runs between parallel regions -- no concurrent
  // mutators can set the flag while we clear it. In sticky mode (parallel
  // shard stepping) the global flag belongs to ALL concurrently-stepping
  // simulations and must not be consumed by one of them.
  if (!soa::g_dirty_sticky.load(std::memory_order_relaxed)) {
    soa::g_aos_geometry_dirty.store(false, std::memory_order_relaxed);
  }
  geometry_stale_.store(false, std::memory_order_relaxed);
  if (MetricsRegistry::Enabled()) {
    MetricsRegistry::Get().Add(Metrics().full_rebuilds, 1);
  }
  UpdateFootprintGauge();
}

void SoaStore::RefreshGeometry(NumaThreadPool* pool) {
  const int64_t total = static_cast<int64_t>(TotalAgents());
  pool->RunLogicalSlabs(total, [&](int64_t lo, int64_t hi, int) {
    for (int64_t i = lo; i < hi; ++i) {
      Agent* agent = agents_[i];
      const Real3& p = agent->GetPosition();
      pos_x_[i] = p.x;
      pos_y_[i] = p.y;
      pos_z_[i] = p.z;
      diameter_[i] = agent->GetDiameter();
      is_static_[i] = agent->IsStatic() ? 1 : 0;
    }
  });
  if (!soa::g_dirty_sticky.load(std::memory_order_relaxed)) {
    soa::g_aos_geometry_dirty.store(false, std::memory_order_relaxed);
  }
  geometry_stale_.store(false, std::memory_order_relaxed);
  if (MetricsRegistry::Enabled()) {
    MetricsRegistry::Get().Add(Metrics().incremental_updates, 1);
  }
}

void SoaStore::EnsureCurrent(const ResourceManager& rm, NumaThreadPool* pool) {
  if (!live_ || structure_dirty_.load(std::memory_order_relaxed)) {
    FullRebuild(rm, pool);
    return;
  }
  if (soa::g_aos_geometry_dirty.load(std::memory_order_relaxed) ||
      geometry_stale_.load(std::memory_order_relaxed)) {
    RefreshGeometry(pool);
  }
}

}  // namespace bdm
