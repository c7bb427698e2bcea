#include <algorithm>

#include "workloads.h"

namespace pb {

namespace {
const std::int64_t kProcessStartNs = mgc::now_ns();

double to_us(std::int64_t ns) { return static_cast<double>(ns) / 1e3; }
double to_ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }
}  // namespace

std::int64_t process_start_ns() { return kProcessStartNs; }

void add_end_to_end(RunResult& r, double setup_s, const Window& w,
                    std::uint64_t ops, const std::vector<double>& op_us,
                    const std::vector<mgc::PauseEvent>& pauses) {
  const double secs = static_cast<double>(w.t1_ns - w.t0_ns) / 1e9;
  const double n = static_cast<double>(std::max<std::uint64_t>(ops, 1));
  std::vector<double> pause_us;
  for (const mgc::PauseEvent& e : pauses) {
    pause_us.push_back(to_us(e.end_ns - e.start_ns));
  }
  r.e2e("setup_s", setup_s, "s");
  r.e2e("ops_per_s", static_cast<double>(ops) / secs, "op/s");
  r.e2e("op_p50_us", quantile(op_us, 0.5), "us");
  r.e2e("op_p99_us", quantile(op_us, 0.99), "us");
  r.e2e("pause_p50_us", median(pause_us), "us");
  r.e2e("pause_total_ms", sum(pause_us) / 1e3, "ms");
  r.e2e("cpu_us_per_op", to_us(w.cpu1_ns - w.cpu0_ns) / n, "us");
  r.e2e("peak_rss_mb", w.peak_rss_mb, "MB");
}

void add_gc_layers(RunResult& r, const std::vector<mgc::PauseEvent>& pauses,
                   const mgc::GcCostSnapshot& cost) {
  std::vector<double> young_us, full_us, remark_us, live_after_mb;
  std::int64_t root = 0, card = 0, drain = 0, young_total = 0;
  std::uint64_t degraded = 0;
  for (const mgc::PauseEvent& e : pauses) {
    const std::int64_t d = e.end_ns - e.start_ns;
    if (e.failures.any()) ++degraded;
    if (e.kind == mgc::PauseKind::kYoungGc) {
      young_us.push_back(to_us(d));
      young_total += d;
      root += e.phases.root_scan_ns;
      card += e.phases.card_scan_ns;
      drain += e.phases.evac_drain_ns;
    } else if (e.kind == mgc::PauseKind::kInitialMark ||
               e.kind == mgc::PauseKind::kRemark) {
      remark_us.push_back(to_us(d));
    }
    if (e.full) {
      full_us.push_back(to_us(d));
      live_after_mb.push_back(static_cast<double>(e.used_after) / (1 << 20));
    }
  }
  r.layer("runtime.alloc_slow_ms", to_ms(cost.alloc_slow_ns), "ms");
  r.layer("runtime.alloc_slow_calls",
          static_cast<double>(cost.alloc_slow_calls), "count");
  r.layer("runtime.barrier_ops", static_cast<double>(cost.barrier_ops()),
          "count");
  r.layer("gc.young_pauses", static_cast<double>(young_us.size()), "count");
  r.layer("gc.young_pause_p50_us", quantile(young_us, 0.5), "us");
  r.layer("gc.young_pause_p99_us", quantile(young_us, 0.99), "us");
  r.layer("gc.full_pause_p50_us", median(full_us), "us");
  r.layer("gc.remark_pause_p50_us", median(remark_us), "us");
  r.layer("gc.root_scan_ms", to_ms(root), "ms");
  r.layer("gc.card_scan_ms", to_ms(card), "ms");
  r.layer("gc.evac_drain_ms", to_ms(drain), "ms");
  r.layer("gc.young_unattributed_ms", to_ms(young_total - root - card - drain),
          "ms");
  r.layer("gc.concurrent_cpu_ms", to_ms(cost.concurrent_ns), "ms");
  r.layer("gc.concurrent_cycles", static_cast<double>(cost.concurrent_cycles),
          "count");
  r.layer("gc.degraded_pauses", static_cast<double>(degraded), "count");
  r.layer("heap.live_after_full_mb", median(live_after_mb), "MB");
}

mgc::GcCostSnapshot cost_delta(const mgc::GcCostSnapshot& a,
                               const mgc::GcCostSnapshot& b) {
  mgc::GcCostSnapshot d;
  d.pause_ns = b.pause_ns - a.pause_ns;
  d.pauses = b.pauses - a.pauses;
  d.alloc_slow_ns = b.alloc_slow_ns - a.alloc_slow_ns;
  d.alloc_slow_calls = b.alloc_slow_calls - a.alloc_slow_calls;
  d.barrier_card_ops = b.barrier_card_ops - a.barrier_card_ops;
  d.barrier_satb_ops = b.barrier_satb_ops - a.barrier_satb_ops;
  d.barrier_rset_ops = b.barrier_rset_ops - a.barrier_rset_ops;
  d.concurrent_ns = b.concurrent_ns - a.concurrent_ns;
  d.concurrent_cycles = b.concurrent_cycles - a.concurrent_cycles;
  return d;
}

void cost_add(mgc::GcCostSnapshot& into, const mgc::GcCostSnapshot& d) {
  into.pause_ns += d.pause_ns;
  into.pauses += d.pauses;
  into.alloc_slow_ns += d.alloc_slow_ns;
  into.alloc_slow_calls += d.alloc_slow_calls;
  into.barrier_card_ops += d.barrier_card_ops;
  into.barrier_satb_ops += d.barrier_satb_ops;
  into.barrier_rset_ops += d.barrier_rset_ops;
  into.concurrent_ns += d.concurrent_ns;
  into.concurrent_cycles += d.concurrent_cycles;
}

std::int64_t pause_ns_within(const std::vector<mgc::PauseEvent>& sorted,
                             std::int64_t t0_ns, std::int64_t t1_ns) {
  std::int64_t total = 0;
  auto it = std::lower_bound(
      sorted.begin(), sorted.end(), t0_ns,
      [](const mgc::PauseEvent& e, std::int64_t t) { return e.end_ns < t; });
  for (; it != sorted.end() && it->start_ns <= t1_ns; ++it) {
    total += std::min(it->end_ns, t1_ns) - std::max(it->start_ns, t0_ns);
  }
  return total;
}

std::uint64_t count_in_pause(
    const std::vector<mgc::PauseEvent>& pauses,
    const std::vector<std::pair<std::int64_t, std::int64_t>>& ivals) {
  // Union of the pause intervals (several VMs may pause at once).
  std::vector<std::pair<std::int64_t, std::int64_t>> merged;
  for (const mgc::PauseEvent& e : pauses) {
    if (!merged.empty() && e.start_ns <= merged.back().second) {
      merged.back().second = std::max(merged.back().second, e.end_ns);
    } else {
      merged.emplace_back(e.start_ns, e.end_ns);
    }
  }
  std::uint64_t n = 0;
  for (const auto& [s, e] : ivals) {
    auto it = std::lower_bound(
        merged.begin(), merged.end(), s,
        [](const std::pair<std::int64_t, std::int64_t>& p, std::int64_t t) {
          return p.second < t;
        });
    if (it != merged.end() && it->first <= e) ++n;
  }
  return n;
}

}  // namespace pb
