// dacapo: the paper's DaCapo analogues under ParallelOld (4 GC threads, 4
// mutator threads), one VM per kernel as DaCapo runs one JVM per
// benchmark. An operation is one measured iteration: the system GC that
// DaCapo runs before it plus the kernel iteration itself.
#include <algorithm>
#include <cstdio>
#include <memory>

#include "checks.h"
#include "dacapo/workload.h"
#include "runtime/heap_verifier.h"
#include "workloads.h"

namespace pb {

namespace {

using mgc::Vm;

// Allocation-heavy multi-threaded kernels of the paper's stable subset,
// plus lusearch (the paper's headline parallel-GC benchmark).
const char* const kKernels[] = {"xalan", "h2", "pmd", "jython", "lusearch"};
constexpr int kMutators = 4;
constexpr int kGcThreads = 4;
constexpr int kWarmupRounds = 3;

struct Kernel {
  std::string name;
  std::uint64_t seed = 0;
  std::unique_ptr<Vm> vm;
  std::unique_ptr<mgc::dacapo::Benchmark> bench;
  std::unique_ptr<Ledger> ledger;
  int lane = -1;
  // Per measured op: [sys0, sys1] system GC call, [it0, it1] iteration.
  struct Op {
    std::int64_t sys0, sys1, it0, it1;
  };
  std::vector<Op> ops;
};

// One operation on kernel k: system GC, relink (untimed), iteration,
// ledger check (untimed). Returns the op's timed spans.
Kernel::Op run_op(Kernel& k, std::uint64_t round, Tracer& tr, Checks& c) {
  Kernel::Op op{};
  {
    Vm::MutatorScope scope(*k.vm, "bench");
    op.sys0 = mgc::now_ns();
    scope.mutator().system_gc();
    op.sys1 = mgc::now_ns();
    tr.span(k.lane, "Mutator::system_gc", op.sys0, op.sys1, round);
    SpanScope s(tr, k.lane, "Ledger::relink", round);
    k.ledger->relink(scope.mutator(), round);
  }
  op.it0 = mgc::now_ns();
  k.bench->run_iteration(*k.vm, kMutators,
                         k.seed * 1000003 + round * 7919);
  op.it1 = mgc::now_ns();
  tr.span(k.lane, "Benchmark::run_iteration", op.it0, op.it1, round);
  {
    Vm::MutatorScope scope(*k.vm, "bench");
    SpanScope s(tr, k.lane, "Ledger::check", round);
    k.ledger->check(c);
  }
  return op;
}

}  // namespace

RunResult run_dacapo(const Options& o, Tracer& tr) {
  RunResult r;
  Checks c;
  mgc::GcKind gc = mgc::GcKind::kParallelOld;
  if (!o.gc.empty()) gc = mgc::gc_kind_from_name(o.gc);
  mgc::VmConfig cfg = mgc::VmConfig::baseline(gc);
  cfg.gc_threads = kGcThreads;

  std::vector<Kernel> ks;
  std::uint64_t setup_alloc = 0;
  for (std::size_t i = 0; i < std::size(kKernels); ++i) {
    Kernel k;
    k.name = kKernels[i];
    k.seed = o.seed * 0x100000001b3ULL + i;
    k.lane = tr.lane("bench " + k.name);
    k.vm = std::make_unique<Vm>(cfg);
    k.bench = mgc::dacapo::make_benchmark(k.name);
    {
      SpanScope s(tr, k.lane, "Benchmark::setup");
      k.bench->setup(*k.vm, k.seed);
    }
    k.ledger = std::make_unique<Ledger>(*k.vm, k.seed);
    ks.push_back(std::move(k));
  }
  // Warm-up rounds go with set-up: fixed inputs, so the allocation they
  // make is the same for the same seed.
  for (int w = 0; w < kWarmupRounds; ++w) {
    for (Kernel& k : ks) run_op(k, 1000000 + w, tr, c);
  }
  for (Kernel& k : ks) setup_alloc += k.vm->total_allocated_bytes();

  std::vector<mgc::GcCostSnapshot> cost0;
  for (Kernel& k : ks) cost0.push_back(k.vm->cost_snapshot());
  Window w;
  w.start();
  const double setup_s = static_cast<double>(w.t0_ns - process_start_ns()) / 1e9;
  const std::int64_t deadline =
      w.t0_ns + static_cast<std::int64_t>(o.seconds * 1e9);
  std::uint64_t round = 0;
  // Whole rounds only: every kernel runs once per round.
  while (mgc::now_ns() < deadline) {
    for (Kernel& k : ks) k.ops.push_back(run_op(k, round, tr, c));
    ++round;
  }
  w.stop();

  // Only the timed parts of an op count: the ledger work between them and
  // after them is the check's, not the workload's.
  std::vector<double> op_us;
  std::vector<mgc::PauseEvent> all_pauses;
  mgc::GcCostSnapshot cost{};
  double mutator_ms = 0.0;
  std::vector<double> sysgc_overhead_us;
  for (std::size_t i = 0; i < ks.size(); ++i) {
    Kernel& k = ks[i];
    std::vector<mgc::PauseEvent> p =
        pauses_between(k.vm->gc_log(), w.t0_ns, w.t1_ns);
    std::vector<double> iter_ms;
    for (const Kernel::Op& op : k.ops) {
      op_us.push_back(static_cast<double>((op.sys1 - op.sys0) +
                                          (op.it1 - op.it0)) / 1e3);
      iter_ms.push_back(static_cast<double>(op.it1 - op.it0) / 1e6);
      mutator_ms += static_cast<double>((op.it1 - op.it0) -
                                        pause_ns_within(p, op.it0, op.it1)) /
                    1e6;
      sysgc_overhead_us.push_back(
          static_cast<double>((op.sys1 - op.sys0) -
                              pause_ns_within(p, op.sys0, op.sys1)) /
          1e3);
    }
    r.layer("dacapo." + k.name + ".iter_ms", median(iter_ms), "ms");
    cost_add(cost, cost_delta(cost0[i], k.vm->cost_snapshot()));
    all_pauses.insert(all_pauses.end(), p.begin(), p.end());
    tr.add_pauses("gc " + k.name, p);
  }
  r.attempted = op_us.size();
  add_end_to_end(r, setup_s, w, op_us.size(), op_us, all_pauses);
  add_gc_layers(r, all_pauses, cost);
  r.layer("runtime.mutator_ms", mutator_ms, "ms");
  r.layer("runtime.system_gc_overhead_us", median(sysgc_overhead_us), "us");
  r.layer("runtime.allocated_mb", static_cast<double>(setup_alloc) / (1 << 20),
          "MB");

  // End-of-run checks per kernel VM: the heap verifier at a safepoint, and
  // two back-to-back full GCs on the quiescent heap leave the same
  // occupancy.
  for (Kernel& k : ks) {
    Vm::MutatorScope scope(*k.vm, "verifier");
    const mgc::VerifyReport rep = mgc::verify_heap_at_safepoint(scope.mutator());
    for (const std::string& p : rep.problems) {
      c.fail(k.name + ": heap verifier: " + p);
    }
    const std::size_t before = k.vm->gc_log().count();
    scope.mutator().system_gc();
    scope.mutator().system_gc();
    const std::vector<mgc::PauseEvent> ev = k.vm->gc_log().snapshot();
    std::vector<std::size_t> after;
    for (std::size_t j = before; j < ev.size(); ++j) {
      if (ev[j].full) after.push_back(ev[j].used_after);
    }
    if (after.size() != 2) {
      c.fail(k.name + ": expected 2 full GCs from 2 system GCs, saw " +
             std::to_string(after.size()));
    } else {
      c.expect_eq(k.name + ": occupancy after back-to-back full GCs", after[1],
                  after[0]);
    }
    k.ledger->check(c);
  }
  std::fprintf(stderr, "dacapo: %llu rounds, %zu ops, %zu pauses\n",
               static_cast<unsigned long long>(round), op_us.size(),
               all_pauses.size());
  r.problems = c.problems();
  return r;
}

}  // namespace pb
