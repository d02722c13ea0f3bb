// TraceRecorder: chrome://tracing span export (observability layer,
// DESIGN.md Section 7).
//
// When BDM_TRACE=<path> is set, every ScopedTimer the engine runs (one per
// operation per iteration, plus per-substance diffusion sub-timers and the
// scheduler's whole-iteration span) is recorded as a Trace Event Format
// "complete" event and written as JSON the Simulation can be inspected with
// in Perfetto / chrome://tracing. The format is the stable documented one:
// {"traceEvents": [{"name", "ph": "X", "ts", "dur", "pid", "tid", "args"}]}.
//
// Recording cost when inactive is one relaxed atomic load per ScopedTimer
// destruction; when active, one mutex push_back per span -- spans are
// per-operation (a handful per iteration), never per-agent, so contention
// is irrelevant.
#ifndef BDM_OBS_TRACE_H_
#define BDM_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace bdm {

class TraceRecorder {
 public:
  using Clock = std::chrono::steady_clock;

  static TraceRecorder& Get();

  /// True while a trace is being collected. Span-recording sites check this
  /// before paying for anything.
  static bool Active() { return active_.load(std::memory_order_relaxed); }

  /// Clears any previous events and starts collecting. `process_name` is
  /// emitted as the trace's process metadata (the Simulation name).
  void Start(const std::string& process_name);

  /// Records one completed span. `tid_slot` follows the thread-slot
  /// convention (0 = main thread, t+1 = pool worker t, shard lane threads on
  /// slots past the workers); `iteration` is attached to the event args so
  /// spans can be filtered per step.
  void RecordSpan(const std::string& name, Clock::time_point start,
                  Clock::time_point end, int tid_slot, uint64_t iteration);

  /// Registers a display name for a thread slot's track ("shard lane 0",
  /// ...).
  /// Unregistered slots that carry spans get a default name in Stop().
  /// Names persist across Start/Stop cycles (lane threads outlive traces).
  void SetThreadName(int tid_slot, const std::string& name);

  /// Stops collecting and writes the collected events to `path` as a
  /// chrome://tracing JSON document. Returns the number of span events
  /// written (0 also when the file could not be opened).
  uint64_t Stop(const std::string& path);

  /// Number of spans collected so far (test hook).
  uint64_t NumSpans() const;

 private:
  struct Event {
    std::string name;
    double ts_us;   // microseconds since Start
    double dur_us;  // span duration in microseconds
    int tid_slot;
    uint64_t iteration;
  };

  static std::atomic<bool> active_;

  mutable std::mutex mutex_;
  std::string process_name_;
  Clock::time_point origin_;
  std::vector<Event> events_;
  std::map<int, std::string> thread_names_;  // tid_slot -> track name
};

}  // namespace bdm

#endif  // BDM_OBS_TRACE_H_
