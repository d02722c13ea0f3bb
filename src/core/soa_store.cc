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
// ForceShards
// ---------------------------------------------------------------------------

void SoaStore::ForceShards::Ensure(int num_threads, uint64_t count) {
  if (static_cast<int>(shards_.size()) < num_threads) {
    shards_.resize(num_threads);
  }
  for (auto& shard : shards_) {
    if (shard.fx.size() < count) {
      const uint64_t cap = count + count / 2;
      shard.fx.Reset(cap);
      shard.fy.Reset(cap);
      shard.fz.Reset(cap);
      shard.non_zero.Reset(cap);
    }
  }
}

uint64_t SoaStore::ForceShards::Bytes() const {
  uint64_t bytes = 0;
  for (const auto& shard : shards_) {
    bytes += shard.fx.size() * sizeof(real_t) * 3 +
             shard.non_zero.size() * sizeof(uint32_t);
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
         force_shards_.Bytes();
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
  const auto slabs = pool->MakeSlabPartition(0, total);
  pool->RunSlabs(slabs, [&](int64_t lo, int64_t hi, int) {
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
