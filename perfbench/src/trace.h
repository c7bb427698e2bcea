// Span recorder for traced runs. Every layer call the benchmark makes is
// bracketed by a span on a named lane (one lane per driving thread, so
// recording takes no lock); GC pauses from each VM's GcLog join the same
// steady clock as lanes of their own. Spans stay in memory and are written
// once, at the end, as a Chrome trace-event JSON file (Perfetto and
// chrome://tracing open it as is).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "runtime/gc_log.h"

namespace pb {

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}

  bool on() const { return on_; }

  // Registers a lane; call before the threads that record on it start.
  // Returns a lane id (or -1 when tracing is off).
  int lane(const std::string& name);

  // Records one span. `name` must be a string literal. Each lane must be
  // written by one thread at a time.
  void span(int lane, const char* name, std::int64_t start_ns,
            std::int64_t end_ns, std::uint64_t arg = 0) {
    if (!on_ || lane < 0) return;
    lanes_[static_cast<std::size_t>(lane)]->spans.push_back(
        {name, start_ns, end_ns, arg});
  }

  // Adds a VM's stop-the-world pauses as a lane of their own.
  void add_pauses(const std::string& lane_name,
                  const std::vector<mgc::PauseEvent>& pauses);

  // Writes the trace-event file. Per lane and span name, the first
  // kKeepPerLane spans and every span at or above that name's
  // 99th-percentile duration are written (a kv run makes millions of
  // request spans); all pauses are.
  // Returns false when the file cannot be written.
  bool write(const std::string& path) const;

  static constexpr std::size_t kKeepPerLane = 20000;

 private:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::uint64_t arg;
  };
  struct Lane {
    std::string name;
    std::vector<Span> spans;
  };
  struct PauseLane {
    std::string name;
    std::vector<mgc::PauseEvent> pauses;
  };
  bool on_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::vector<PauseLane> pause_lanes_;
};

// Times a call into a layer and records it as a span.
class SpanScope {
 public:
  SpanScope(Tracer& t, int lane, const char* name, std::uint64_t arg = 0);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer& t_;
  int lane_;
  const char* name_;
  std::uint64_t arg_;
  std::int64_t start_ns_;
};

}  // namespace pb
