#include "stats.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>

namespace pb {

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

double sum(const std::vector<double>& xs) {
  double s = 0.0;
  for (double x : xs) s += x;
  return s;
}

std::vector<mgc::PauseEvent> pauses_between(const mgc::GcLog& log,
                                            std::int64_t t0_ns,
                                            std::int64_t t1_ns) {
  std::vector<mgc::PauseEvent> out;
  for (const mgc::PauseEvent& e : log.snapshot()) {
    if (e.start_ns >= t0_ns && e.start_ns <= t1_ns) out.push_back(e);
  }
  return out;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

}  // namespace pb
