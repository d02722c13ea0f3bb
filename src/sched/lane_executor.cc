#include "sched/lane_executor.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace bdm {

LaneExecutor::LaneExecutor(NumaThreadPool* pool, int max_lanes, int slot_base)
    : pool_(pool) {
  const int workers = pool_->NumThreads();
  slot_base_ = slot_base >= 0 ? slot_base : workers + 1;
  // Every lane occupies the thread slot slot_base_+lane in the metrics /
  // trace / deposit-log shard spaces, all capped at kMaxSlots.
  if (slot_base_ >= MetricsRegistry::kMaxSlots) {
    throw std::invalid_argument(
        "LaneExecutor: lane slot base " + std::to_string(slot_base_) +
        " leaves no thread slot below " +
        std::to_string(MetricsRegistry::kMaxSlots));
  }
  const int lanes = std::clamp(std::min(max_lanes, workers), 1,
                               MetricsRegistry::kMaxSlots - slot_base_);
  lanes_ = std::vector<Lane>(static_cast<size_t>(lanes));
  MetricsRegistry::Get().ConfigureSlots(slot_base_ + lanes);
  for (int l = 0; l < lanes; ++l) {
    TraceRecorder::Get().SetThreadName(LaneThreadSlot(l),
                                       "shard lane " + std::to_string(l));
    lanes_[l].thread = std::thread([this, l] { LaneLoop(l); });
  }
}

LaneExecutor::~LaneExecutor() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_lane_.notify_all();
  for (Lane& lane : lanes_) {
    lane.thread.join();
  }
}

void LaneExecutor::Execute(int count, const std::function<void(int)>& body,
                           const std::vector<double>& weights) {
  if (count <= 0) {
    return;
  }
  std::unique_lock<std::mutex> lock(mu_);
  assert(body_ == nullptr && "LaneExecutor::Execute is not reentrant");
  body_ = &body;
  count_ = count;
  next_ = 0;
  weights_ = weights;
  owner_.assign(static_cast<size_t>(pool_->NumThreads()), -1);
  remaining_ = count;
  cancel_ = false;
  error_ = nullptr;
  cv_lane_.notify_all();
  cv_main_.wait(lock, [this] { return remaining_ == 0; });
  body_ = nullptr;
  count_ = 0;
  std::exception_ptr error = error_;
  error_ = nullptr;
  if (error) {
    std::rethrow_exception(error);
  }
}

void LaneExecutor::LaneLoop(int lane) {
  // Bind this thread's shard slot once; the team half of the binding is
  // refreshed by AcquireTeam before every body.
  NumaThreadPool::BindLane(&lanes_[lane].binding, LaneThreadSlot(lane));
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_lane_.wait(lock, [this] {
      return shutdown_ ||
             (next_ < count_ && (cancel_ || FreeWorkers() > 0));
    });
    if (shutdown_) {
      return;
    }
    const int index = next_++;
    if (!cancel_) {
      AcquireTeam(lane, index);
      lanes_[lane].running = true;
      lock.unlock();
      try {
        (*body_)(index);
      } catch (...) {
        lock.lock();
        if (!error_) {
          error_ = std::current_exception();
        }
        // Skip every not-yet-started body so Execute can terminate and
        // rethrow; co-running bodies finish normally.
        cancel_ = true;
        lock.unlock();
      }
      lock.lock();
      lanes_[lane].running = false;
      ReleaseTeam(lane);
    }
    if (next_ == count_) {
      // Nobody is waiting for workers: widen the running lanes into the
      // just-freed interval so finishing bodies donate their workers.
      GrowRunningLanes();
    }
    if (FreeWorkers() > 0) {
      cv_lane_.notify_all();
    }
    if (--remaining_ == 0) {
      cv_main_.notify_all();
    }
  }
}

int LaneExecutor::FreeWorkers() const {
  int free = 0;
  for (int owner : owner_) {
    free += owner < 0 ? 1 : 0;
  }
  return free;
}

void LaneExecutor::AcquireTeam(int lane, int index) {
  // Weight-proportional share of the free workers against the bodies not
  // yet started. When this is the last one, take everything that is free.
  const auto weight_of = [this](int i) {
    return i < static_cast<int>(weights_.size()) && weights_[i] > 0
               ? weights_[i]
               : 1.0;
  };
  const int total_free = FreeWorkers();
  assert(total_free > 0);
  int desired = total_free;
  if (next_ < count_) {
    const double w = weight_of(index);
    double others = 0;
    for (int r = next_; r < count_; ++r) {
      others += weight_of(r);
    }
    desired = static_cast<int>(total_free * (w / (w + others)) + 0.5);
    desired = std::max(desired, 1);
  }
  // Teams are contiguous worker ranges (slab partitions and RunSlots chunk
  // by rank); grant from the largest free interval.
  const int n = static_cast<int>(owner_.size());
  int best_begin = -1;
  int best_len = 0;
  for (int i = 0; i < n;) {
    if (owner_[i] >= 0) {
      ++i;
      continue;
    }
    int j = i;
    while (j < n && owner_[j] < 0) {
      ++j;
    }
    if (j - i > best_len) {
      best_len = j - i;
      best_begin = i;
    }
    i = j;
  }
  assert(best_len > 0);
  const int begin = best_begin;
  const int end = begin + std::min(desired, best_len);
  for (int i = begin; i < end; ++i) {
    owner_[i] = lane;
  }
  lanes_[lane].team = {begin, end};
  lanes_[lane].binding.Store(begin, end);
}

void LaneExecutor::ReleaseTeam(int lane) {
  const NumaThreadPool::Team team = lanes_[lane].team;
  for (int i = team.begin; i < team.end; ++i) {
    owner_[i] = -1;
  }
  lanes_[lane].team = {0, 0};
}

void LaneExecutor::GrowRunningLanes() {
  // Grow-only widening: extending a running lane's interval into FREE
  // workers is safe mid-body -- its next pool dispatch snapshots the wider
  // team; a dispatch already in flight keeps the narrower snapshot. Teams
  // never shrink while a body runs, so no worker is ever shared.
  for (int l = 0; l < NumLanes(); ++l) {
    Lane& lane = lanes_[l];
    if (!lane.running) {
      continue;
    }
    int begin = lane.team.begin;
    int end = lane.team.end;
    while (end < static_cast<int>(owner_.size()) && owner_[end] < 0) {
      owner_[end] = l;
      ++end;
    }
    while (begin > 0 && owner_[begin - 1] < 0) {
      --begin;
      owner_[begin] = l;
    }
    if (begin != lane.team.begin || end != lane.team.end) {
      lane.team = {begin, end};
      lane.binding.Store(begin, end);
    }
  }
}

}  // namespace bdm
