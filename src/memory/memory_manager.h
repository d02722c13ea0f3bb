// Front end of the BioDynaMo-style allocator (paper Section 4.3).
//
// The manager owns one NumaPoolAllocator per (size class, NUMA domain).
// Agents and behaviors route their operator new/delete through the manager
// when the engine is configured with use_bdm_memory_manager, so objects of
// equal size end up densely packed ("columnar") in per-domain pools.
// Deallocation recovers the owning pool from the pointer itself via the
// segment header, so it needs neither the size nor the domain; DomainOf
// reads the same header to tell where an object lives.
#ifndef BDM_MEMORY_MEMORY_MANAGER_H_
#define BDM_MEMORY_MEMORY_MANAGER_H_

#include <cstddef>
#include <memory>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "memory/numa_pool_allocator.h"
#include "numa/topology.h"

namespace bdm {

class MemoryManager {
 public:
  MemoryManager(const Topology& topology,
                const NumaPoolAllocator::Config& config = {});
  ~MemoryManager();

  MemoryManager(const MemoryManager&) = delete;
  MemoryManager& operator=(const MemoryManager&) = delete;

  /// Allocates `size` bytes from the calling thread's domain pool.
  /// Requests larger than a pool segment fall back to an aligned direct
  /// allocation that Delete recognizes via a null segment header.
  void* New(size_t size);

  /// Returns memory obtained from New.
  void Delete(void* p);

  /// NUMA domain of the pool that owns `p` (memory obtained from New), read
  /// from its segment header; -1 for a large-object fallback allocation.
  int DomainOf(const void* p) const;

  /// Total bytes currently reserved from the OS across all pools.
  size_t TotalReserved() const;

  size_t segment_size() const { return segment_size_; }

  /// Process-wide manager used by Agent/Behavior operator new. Null when the
  /// engine runs on the system allocator. Set by Simulation.
  static MemoryManager* GetGlobal() { return global_; }
  static void SetGlobal(MemoryManager* manager) { global_ = manager; }

 private:
  /// 16-byte size-class quantization bounds the number of pools without
  /// noticeable internal fragmentation for agent-sized objects.
  static size_t SizeClass(size_t size) { return (size + 15) / 16 * 16; }

  int ThreadSlot() const;
  int DomainOfCurrentThread() const;

  NumaPoolAllocator* GetPool(size_t size_class, int domain);

  Topology topology_;
  NumaPoolAllocator::Config config_;
  size_t segment_size_;

  mutable std::shared_mutex pools_mutex_;
  // size class -> one pool per domain
  std::unordered_map<size_t, std::vector<std::unique_ptr<NumaPoolAllocator>>> pools_;

  static MemoryManager* global_;
};

}  // namespace bdm

#endif  // BDM_MEMORY_MEMORY_MANAGER_H_
