// Sample statistics and the result record every workload fills in.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/gc_log.h"

namespace pb {

// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> xs, double q);
inline double median(std::vector<double> xs) { return quantile(std::move(xs), 0.5); }
double sum(const std::vector<double>& xs);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What one run reports. `problems` holds every failed output check; the
// run is correct when it is empty.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> problems;

  void e2e(const std::string& name, double v, const char* unit) {
    end_to_end.push_back({name, v, unit});
  }
  void layer(const std::string& name, double v, const char* unit) {
    per_layer.push_back({name, v, unit});
  }
};

// Pauses of one VM's log that started inside [t0_ns, t1_ns].
std::vector<mgc::PauseEvent> pauses_between(const mgc::GcLog& log,
                                            std::int64_t t0_ns,
                                            std::int64_t t1_ns);

// Peak resident set size of this process, in MB.
double peak_rss_mb();

}  // namespace pb
