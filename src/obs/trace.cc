#include "obs/trace.h"

#include <cstdio>
#include <fstream>

namespace bdm {

std::atomic<bool> TraceRecorder::active_{false};

TraceRecorder& TraceRecorder::Get() {
  static TraceRecorder recorder;
  return recorder;
}

void TraceRecorder::Start(const std::string& process_name) {
  std::scoped_lock lock(mutex_);
  events_.clear();
  process_name_ = process_name;
  origin_ = Clock::now();
  active_.store(true, std::memory_order_relaxed);
}

void TraceRecorder::RecordSpan(const std::string& name, Clock::time_point start,
                               Clock::time_point end, int tid_slot,
                               uint64_t iteration) {
  std::scoped_lock lock(mutex_);
  if (!active_.load(std::memory_order_relaxed)) {
    return;  // Stop raced with a span destructor; drop the straggler
  }
  const auto us = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  events_.push_back({name, us(start), us(end) - us(start), tid_slot, iteration});
}

void TraceRecorder::SetThreadName(int tid_slot, const std::string& name) {
  std::scoped_lock lock(mutex_);
  thread_names_[tid_slot] = name;
}

namespace {

/// Escapes a string for inclusion inside JSON quotes. Engine span names are
/// plain identifiers, but model/substance names flow in via sub-timers.
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

uint64_t TraceRecorder::Stop(const std::string& path) {
  std::scoped_lock lock(mutex_);
  active_.store(false, std::memory_order_relaxed);
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "BDM_TRACE: cannot open %s for writing\n",
                 path.c_str());
    events_.clear();
    return 0;
  }
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  // Process/thread metadata first: names the track headers in Perfetto.
  // Every slot that carries spans gets a thread_name record, so a sharded
  // trace shows one labelled track per shard lane and the shards' steps
  // are visibly side by side.
  out << "  {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0,"
      << " \"args\": {\"name\": \"" << JsonEscape(process_name_) << "\"}},\n";
  std::map<int, std::string> tracks = thread_names_;
  tracks.emplace(0, "scheduler (main)");
  for (const Event& e : events_) {
    tracks.emplace(e.tid_slot, "worker " + std::to_string(e.tid_slot - 1));
  }
  bool first_track = true;
  for (const auto& [slot, track_name] : tracks) {
    out << (first_track ? "" : ",\n") << "  {\"name\": \"thread_name\","
        << " \"ph\": \"M\", \"pid\": 1, \"tid\": " << slot
        << ", \"args\": {\"name\": \"" << JsonEscape(track_name) << "\"}}";
    first_track = false;
  }
  for (const Event& e : events_) {
    out << ",\n  {\"name\": \"" << JsonEscape(e.name) << "\", \"cat\": \"op\","
        << " \"ph\": \"X\", \"ts\": " << e.ts_us << ", \"dur\": " << e.dur_us
        << ", \"pid\": 1, \"tid\": " << e.tid_slot
        << ", \"args\": {\"iteration\": " << e.iteration << "}}";
  }
  out << "\n]}\n";
  const uint64_t written = events_.size();
  events_.clear();
  std::printf("BDM_TRACE: wrote %llu spans to %s\n",
              static_cast<unsigned long long>(written), path.c_str());
  return written;
}

uint64_t TraceRecorder::NumSpans() const {
  std::scoped_lock lock(mutex_);
  return events_.size();
}

}  // namespace bdm
