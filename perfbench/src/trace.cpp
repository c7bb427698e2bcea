#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <map>

#include "support/clock.h"

namespace pb {

int Tracer::lane(const std::string& name) {
  if (!on_) return -1;
  lanes_.push_back(std::make_unique<Lane>(Lane{name, {}}));
  return static_cast<int>(lanes_.size() - 1);
}

void Tracer::add_pauses(const std::string& lane_name,
                        const std::vector<mgc::PauseEvent>& pauses) {
  if (on_) pause_lanes_.push_back({lane_name, pauses});
}

namespace {

// Trace-event timestamps are microseconds; keep nanosecond precision.
double us(std::int64_t ns) { return static_cast<double>(ns) / 1000.0; }

void write_thread_name(std::FILE* f, int tid, const std::string& name,
                       bool* first) {
  std::fprintf(f,
               "%s\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
               "\"tid\":%d,\"args\":{\"name\":\"%s\"}}",
               *first ? "" : ",", tid, name.c_str());
  *first = false;
}

}  // namespace

bool Tracer::write(const std::string& path) const {
  if (!on_) return true;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  // All timestamps are relative to the earliest recorded instant.
  std::int64_t origin = INT64_MAX;
  for (const auto& l : lanes_) {
    for (const Span& s : l->spans) origin = std::min(origin, s.start_ns);
  }
  for (const PauseLane& pl : pause_lanes_) {
    for (const mgc::PauseEvent& e : pl.pauses) {
      origin = std::min(origin, e.start_ns);
    }
  }
  if (origin == INT64_MAX) origin = 0;

  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  bool first = true;
  int tid = 0;
  for (const auto& l : lanes_) {
    ++tid;
    write_thread_name(f, tid, l->name, &first);
    // Per span name: the first kKeepPerLane spans, then only those at or
    // above that name's 99th-percentile duration.
    std::map<std::string, std::vector<std::int64_t>> durs;
    for (const Span& s : l->spans) durs[s.name].push_back(s.end_ns - s.start_ns);
    std::map<std::string, std::int64_t> slow;
    for (auto& [name, d] : durs) {
      slow[name] = INT64_MAX;
      if (d.size() > kKeepPerLane) {
        auto p99 = d.begin() + static_cast<std::ptrdiff_t>(d.size() * 99 / 100);
        std::nth_element(d.begin(), p99, d.end());
        slow[name] = *p99;
      }
    }
    std::map<std::string, std::size_t> seen;
    for (const Span& s : l->spans) {
      if (seen[s.name]++ >= kKeepPerLane &&
          s.end_ns - s.start_ns < slow[s.name]) {
        continue;
      }
      std::fprintf(f,
                   ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"arg\":%llu}}",
                   s.name, tid, us(s.start_ns - origin),
                   us(s.end_ns - s.start_ns),
                   static_cast<unsigned long long>(s.arg));
    }
  }
  for (const PauseLane& pl : pause_lanes_) {
    ++tid;
    write_thread_name(f, tid, pl.name, &first);
    for (const mgc::PauseEvent& e : pl.pauses) {
      std::fprintf(
          f,
          ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
          "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"cause\":\"%s\","
          "\"used_before\":%zu,\"used_after\":%zu,\"root_scan_us\":%.3f,"
          "\"card_scan_us\":%.3f,\"evac_drain_us\":%.3f,\"failures\":%u}}",
          mgc::pause_kind_name(e.kind), tid, us(e.start_ns - origin),
          us(e.end_ns - e.start_ns), mgc::gc_cause_name(e.cause),
          e.used_before, e.used_after, us(e.phases.root_scan_ns),
          us(e.phases.card_scan_ns), us(e.phases.evac_drain_ns),
          e.failures.promotion_failures + e.failures.concurrent_mode_failures +
              e.failures.evacuation_failures);
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

SpanScope::SpanScope(Tracer& t, int lane, const char* name, std::uint64_t arg)
    : t_(t), lane_(lane), name_(name), arg_(arg),
      start_ns_(t.on() ? mgc::now_ns() : 0) {}

SpanScope::~SpanScope() {
  if (t_.on()) t_.span(lane_, name_, start_ns_, mgc::now_ns(), arg_);
}

}  // namespace pb
