// Pool allocator for one (element size, NUMA domain) pair (paper Section 4.3).
//
// Memory arrives in large blocks of exponentially growing size
// (mem_mgr_growth_rate) and is divided into N-page-aligned *segments*
// (mem_mgr_aligned_pages_shift). The first word of every segment points back
// to the owning NumaPoolAllocator, so deallocation resolves its pool in
// constant time from the pointer value alone. Elements never straddle a
// segment boundary (that would clobber the next segment's metadata), which
// wastes at most element_size - 1 bytes per segment -- exactly the overhead
// the paper enumerates.
//
// Fast-path allocation and deallocation touch only the calling thread's
// thread-local free list. When a thread-local list grows past a threshold,
// whole batches migrate to a mutex-guarded central list (and back on
// demand), so cross-thread traffic happens once per kFreeListBatchSize
// operations at worst.
#ifndef BDM_MEMORY_NUMA_POOL_ALLOCATOR_H_
#define BDM_MEMORY_NUMA_POOL_ALLOCATOR_H_

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "memory/free_list.h"

namespace bdm {

inline constexpr size_t kPageSize = 4096;

class NumaPoolAllocator {
 public:
  struct Config {
    /// Segment size = kPageSize << aligned_pages_shift.
    int aligned_pages_shift = 5;  // 128 KiB segments
    /// Factor by which consecutive block allocations grow.
    double growth_rate = 2.0;
    /// Size of the first block in bytes (rounded up to a segment multiple).
    size_t initial_block_size = 1 << 17;
    /// Cap for block growth.
    size_t max_block_size = size_t{1} << 26;
    /// A thread-local list migrates surplus batches to the central list once
    /// it holds more than this many full batches.
    size_t max_local_batches = 4;
  };

  /// `num_thread_slots` must cover every thread that can ever call
  /// New/Delete (workers + main thread).
  NumaPoolAllocator(size_t element_size, int numa_domain, int num_thread_slots,
                    const Config& config);
  ~NumaPoolAllocator();

  NumaPoolAllocator(const NumaPoolAllocator&) = delete;
  NumaPoolAllocator& operator=(const NumaPoolAllocator&) = delete;

  /// Allocates one element. `thread_slot` indexes the calling thread's local
  /// free list.
  void* New(int thread_slot);

  /// Returns one element to the pool.
  void Delete(void* p, int thread_slot);

  size_t element_size() const { return element_size_; }
  int numa_domain() const { return numa_domain_; }
  size_t segment_size() const { return segment_size_; }

  /// Total bytes obtained from the OS by this pool.
  size_t TotalReserved() const { return total_reserved_; }

  /// Largest element this pool layout can serve for the given config.
  static size_t MaxElementSize(const Config& config) {
    return (kPageSize << config.aligned_pages_shift) - kSegmentHeaderSize;
  }

  /// Resolves the owning allocator of an element from its address. Works for
  /// any pointer returned by New given the global segment size. Returns the
  /// value stored in the segment header (nullptr for large-object fallback
  /// allocations, see MemoryManager).
  static NumaPoolAllocator* FromPointer(const void* p, size_t segment_size) {
    auto addr = reinterpret_cast<uintptr_t>(p);
    auto* segment = reinterpret_cast<void* const*>(addr & ~(segment_size - 1));
    return static_cast<NumaPoolAllocator*>(*segment);
  }

  static constexpr size_t kSegmentHeaderSize = 16;

 private:
  /// Refills the thread's local list with one batch: from the central list
  /// if possible, otherwise by carving fresh elements out of block memory.
  void Refill(int thread_slot);

  /// Carves up to kFreeListBatchSize elements from the current block (and a
  /// fresh block if needed), pushing them onto `list`. Called with
  /// block_mutex_ held.
  void CarveBatchLocked(FreeList* list);

  /// Allocates a new segment-aligned block from the OS. Called with
  /// block_mutex_ held.
  void AllocateBlockLocked();

  const size_t element_size_;
  const int numa_domain_;
  const Config config_;
  const size_t segment_size_;
  const size_t elements_per_segment_;

  std::vector<FreeList> local_;  // one per thread slot

  std::mutex central_mutex_;
  FreeList central_;

  // Bump-carving state over the newest block. "Initialization ... is
  // performed on-demand in smaller segments" (paper): list nodes are created
  // lazily, one batch at a time, instead of when the block is allocated.
  std::mutex block_mutex_;
  std::vector<void*> blocks_;
  char* carve_cursor_ = nullptr;        // next element to hand out
  char* carve_segment_end_ = nullptr;   // end of the segment being carved
  char* carve_block_end_ = nullptr;     // end of the block being carved
  size_t next_block_size_;
  size_t total_reserved_ = 0;
};

}  // namespace bdm

#endif  // BDM_MEMORY_NUMA_POOL_ALLOCATOR_H_
