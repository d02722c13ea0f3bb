#include "memory/memory_manager.h"

#include <cstdlib>
#include <new>

#include "obs/metrics.h"
#include "sched/numa_thread_pool.h"

namespace bdm {

MemoryManager* MemoryManager::global_ = nullptr;

MemoryManager::MemoryManager(const Topology& topology,
                             const NumaPoolAllocator::Config& config)
    : topology_(topology),
      config_(config),
      segment_size_(kPageSize << config.aligned_pages_shift) {}

MemoryManager::~MemoryManager() {
  if (global_ == this) {
    global_ = nullptr;
  }
}

int MemoryManager::ThreadSlot() const {
  // Slot 0 = main thread, tid+1 = pool worker tid, shard lane threads use
  // the slots bound past the workers. Mapping lanes onto slot 0 (the
  // CurrentThreadId()+1 formula) would race their unguarded free lists with
  // the main thread's when lanes allocate concurrently.
  return NumaThreadPool::CurrentThreadSlot();
}

int MemoryManager::DomainOfCurrentThread() const {
  const int tid = NumaThreadPool::CurrentThreadId();
  return tid < 0 ? 0 : topology_.DomainOfThread(tid);
}

NumaPoolAllocator* MemoryManager::GetPool(size_t size_class, int domain) {
  {
    std::shared_lock lock(pools_mutex_);
    auto it = pools_.find(size_class);
    if (it != pools_.end()) {
      return it->second[domain].get();
    }
  }
  std::unique_lock lock(pools_mutex_);
  auto& per_domain = pools_[size_class];
  if (per_domain.empty()) {
    per_domain.reserve(topology_.NumDomains());
    for (int d = 0; d < topology_.NumDomains(); ++d) {
      // Size the per-thread free-list arrays at the full thread-slot
      // capacity (not NumThreads()+1) so lane threads -- slots past the
      // workers -- get their own unguarded lists too. ~8KB per pool.
      per_domain.push_back(std::make_unique<NumaPoolAllocator>(
          size_class, d, MetricsRegistry::kMaxSlots, config_));
    }
  }
  return per_domain[domain].get();
}

void* MemoryManager::New(size_t size) {
  const size_t size_class = SizeClass(size);
  if (size_class > NumaPoolAllocator::MaxElementSize(config_)) {
    // Large-object fallback: a segment-aligned direct allocation whose
    // header is null, which Delete uses to tell it apart from pool memory.
    void* base = std::aligned_alloc(
        segment_size_,
        (size + NumaPoolAllocator::kSegmentHeaderSize + segment_size_ - 1) /
            segment_size_ * segment_size_);
    if (base == nullptr) {
      throw std::bad_alloc();
    }
    *static_cast<void**>(base) = nullptr;
    return static_cast<char*>(base) + NumaPoolAllocator::kSegmentHeaderSize;
  }
  return GetPool(size_class, DomainOfCurrentThread())->New(ThreadSlot());
}

void MemoryManager::Delete(void* p) {
  auto* pool = NumaPoolAllocator::FromPointer(p, segment_size_);
  if (pool == nullptr) {
    std::free(static_cast<char*>(p) - NumaPoolAllocator::kSegmentHeaderSize);
    return;
  }
  pool->Delete(p, ThreadSlot());
}

int MemoryManager::DomainOf(const void* p) const {
  const auto* pool = NumaPoolAllocator::FromPointer(p, segment_size_);
  return pool == nullptr ? -1 : pool->numa_domain();
}

size_t MemoryManager::TotalReserved() const {
  std::shared_lock lock(pools_mutex_);
  size_t total = 0;
  for (const auto& [size_class, per_domain] : pools_) {
    for (const auto& pool : per_domain) {
      total += pool->TotalReserved();
    }
  }
  return total;
}

}  // namespace bdm
