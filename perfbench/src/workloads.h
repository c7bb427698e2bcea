// The three workloads and the metric helpers they share.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/gc_cost.h"
#include "runtime/gc_log.h"
#include "stats.h"
#include "support/clock.h"
#include "trace.h"

namespace pb {

struct Options {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Collector override for side-by-side comparisons (empty = the
  // workload's own collector).
  std::string gc;
};

// Instant the process started its set-up (static initialisation of the
// benchmark binary), for setup_s.
std::int64_t process_start_ns();

RunResult run_dacapo(const Options& o, Tracer& tr);
RunResult run_kvnet(const Options& o, Tracer& tr);
RunResult run_repl(const Options& o, Tracer& tr);

// The measured phase: wall and process-CPU bounds, and the peak resident
// set size when it ended (the analysis after it does not count).
struct Window {
  std::int64_t t0_ns = 0;
  std::int64_t t1_ns = 0;
  std::int64_t cpu0_ns = 0;
  std::int64_t cpu1_ns = 0;
  double peak_rss_mb = 0.0;

  void start() {
    t0_ns = mgc::now_ns();
    cpu0_ns = mgc::process_cpu_ns();
  }
  void stop() {
    t1_ns = mgc::now_ns();
    cpu1_ns = mgc::process_cpu_ns();
    peak_rss_mb = pb::peak_rss_mb();
  }
};

// One client request: its interval on the steady clock.
struct Sample {
  std::int64_t start_ns;
  std::int64_t end_ns;
  bool read;
};

// A client's request samples, in a buffer allocated and touched before the
// measured phase, so that phase's resident memory does not grow with the
// number of requests it completes.
class SampleLog {
 public:
  explicit SampleLog(std::size_t capacity) : buf_(capacity) {}

  void add(const Sample& s) {
    if (n_ == buf_.size()) buf_.resize(2 * n_ + 1);
    buf_[n_++] = s;
  }
  std::size_t size() const { return n_; }
  const Sample* begin() const { return buf_.data(); }
  const Sample* end() const { return buf_.data() + n_; }

 private:
  std::vector<Sample> buf_;
  std::size_t n_ = 0;
};

// Adds the end-to-end metrics every workload reports.
void add_end_to_end(RunResult& r, double setup_s, const Window& w,
                    std::uint64_t ops, const std::vector<double>& op_us,
                    const std::vector<mgc::PauseEvent>& pauses);

// Adds the gc.*, heap.* and runtime cost-channel layer metrics from the
// pauses of the measured phase and the cost-snapshot deltas over it.
void add_gc_layers(RunResult& r, const std::vector<mgc::PauseEvent>& pauses,
                   const mgc::GcCostSnapshot& cost_delta);

mgc::GcCostSnapshot cost_delta(const mgc::GcCostSnapshot& a,
                               const mgc::GcCostSnapshot& b);
void cost_add(mgc::GcCostSnapshot& into, const mgc::GcCostSnapshot& d);

// Total duration (ns) of the pauses that overlap [t0_ns, t1_ns].
std::int64_t pause_ns_within(const std::vector<mgc::PauseEvent>& sorted,
                             std::int64_t t0_ns, std::int64_t t1_ns);

// Number of [start, start + latency] intervals that overlap a pause.
// `pauses` must be sorted by start.
std::uint64_t count_in_pause(const std::vector<mgc::PauseEvent>& pauses,
                             const std::vector<std::pair<std::int64_t, std::int64_t>>& ivals);

}  // namespace pb
