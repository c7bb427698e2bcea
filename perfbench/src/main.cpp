// perfbench: runs one workload and prints its metrics. Usage:
//
//   perfbench --workload dacapo|kv-net|repl-write --seed N --seconds S
//             --trace 0|1 [--trace-out PATH] [--gc NAME]
//
// Human-readable progress goes to stderr. The last line of stdout is one
// JSON object: {"correct", "attempted", "failed", "metrics"}. Untraced
// runs report the end-to-end metrics, traced runs the per-layer ones (and
// write the trace-event file to --trace-out). --gc swaps the workload's
// collector, for side-by-side comparisons outside the recorded runs.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>

#include "workloads.h"

namespace {

using pb::Metric;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Every per-layer metric a traced run reports, whatever the workload. A
// layer the workload does not run reports 0 (see README.md).
const MetricSpec kLayerMetrics[] = {
    {"runtime.mutator_ms", "ms"},
    {"runtime.alloc_slow_ms", "ms"},
    {"runtime.alloc_slow_calls", "count"},
    {"runtime.barrier_ops", "count"},
    {"runtime.system_gc_overhead_us", "us"},
    {"runtime.allocated_mb", "MB"},
    {"gc.young_pauses", "count"},
    {"gc.young_pause_p50_us", "us"},
    {"gc.young_pause_p99_us", "us"},
    {"gc.full_pause_p50_us", "us"},
    {"gc.remark_pause_p50_us", "us"},
    {"gc.root_scan_ms", "ms"},
    {"gc.card_scan_ms", "ms"},
    {"gc.evac_drain_ms", "ms"},
    {"gc.young_unattributed_ms", "ms"},
    {"gc.concurrent_cpu_ms", "ms"},
    {"gc.concurrent_cycles", "count"},
    {"gc.degraded_pauses", "count"},
    {"gc.requests_in_pause", "count"},
    {"heap.live_after_full_mb", "MB"},
    {"dacapo.xalan.iter_ms", "ms"},
    {"dacapo.h2.iter_ms", "ms"},
    {"dacapo.pmd.iter_ms", "ms"},
    {"dacapo.jython.iter_ms", "ms"},
    {"dacapo.lusearch.iter_ms", "ms"},
    {"kvstore.get_us", "us"},
    {"kvstore.put_us", "us"},
    {"kvstore.server_execute_us", "us"},
    {"kvstore.flushes", "count"},
    {"kvstore.shed", "count"},
    {"net.round_trip_us", "us"},
    {"net.overhead_us", "us"},
    {"replication.write_p50_us", "us"},
    {"replication.read_p50_us", "us"},
    {"replication.quorum_overhead_us", "us"},
    {"replication.entries_per_append", "entries/append"},
    {"replication.acks_per_kwrite", "acks/kwrite"},
    {"replication.heartbeats_per_kwrite", "hb/kwrite"},
    {"replication.elections", "count"},
    {"replication.redirects", "count"},
    {"replication.writes_failed", "count"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload dacapo|kv-net|"
               "repl-write --seed N --seconds S --trace 0|1 "
               "[--trace-out PATH] [--gc NAME]\n",
               why);
  std::exit(2);
}

std::string number(double v) {
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

void print_metrics(const std::vector<Metric>& ms, std::string* out) {
  bool first = true;
  for (const Metric& m : ms) {
    *out += first ? "" : ", ";
    first = false;
    *out += "\"" + m.name + "\": {\"value\": " +
            number(std::isfinite(m.value) ? m.value : 0.0) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
}

}  // namespace

int main(int argc, char** argv) {
  pb::Options o;
  std::string workload;
  std::string trace_out;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    if (a == "--workload") {
      workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), nullptr, 10);
      have_seed = true;
    } else if (a == "--seconds") {
      o.seconds = std::atof(v.c_str());
      have_seconds = o.seconds > 0;
    } else if (a == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      o.trace = v == "1";
      have_trace = true;
    } else if (a == "--trace-out") {
      trace_out = v;
    } else if (a == "--gc") {
      o.gc = v;
    } else {
      usage(("unknown flag " + a).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    usage("--seed, --seconds (> 0) and --trace are required");
  }

  pb::Tracer tracer(o.trace);
  pb::RunResult r;
  if (workload == "dacapo") {
    r = pb::run_dacapo(o, tracer);
  } else if (workload == "kv-net") {
    r = pb::run_kvnet(o, tracer);
  } else if (workload == "repl-write") {
    r = pb::run_repl(o, tracer);
  } else {
    usage("unknown workload");
  }

  // Traced runs report every per-layer metric; a layer this workload does
  // not exercise reads 0.
  std::set<std::string> known;
  for (const MetricSpec& s : kLayerMetrics) known.insert(s.name);
  std::set<std::string> have;
  for (const Metric& m : r.per_layer) {
    if (known.count(m.name) == 0) r.problems.push_back("unlisted metric " + m.name);
    have.insert(m.name);
  }
  for (const MetricSpec& s : kLayerMetrics) {
    if (have.count(s.name) == 0) r.layer(s.name, 0.0, s.unit);
  }
  const std::vector<Metric>& shown = o.trace ? r.per_layer : r.end_to_end;
  for (const Metric& m : shown) {
    if (!std::isfinite(m.value)) r.problems.push_back("non-finite " + m.name);
  }

  if (o.trace && !trace_out.empty()) {
    if (!tracer.write(trace_out)) {
      r.problems.push_back("cannot write trace file " + trace_out);
    } else {
      std::fprintf(stderr, "trace written to %s\n", trace_out.c_str());
    }
  }
  for (const std::string& p : r.problems) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", p.c_str());
  }
  // The other set of metrics goes to stderr: a traced run's end-to-end
  // figures give the tracing overhead.
  for (const Metric& m : o.trace ? r.end_to_end : r.per_layer) {
    std::fprintf(stderr, "  %-36s %14.4f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  std::string out = "{\"correct\": ";
  out += r.problems.empty() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  print_metrics(shown, &out);
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return 0;
}
