// Self-test of the benchmark's output checks: each check passes on the
// program's real output and reports a failure once its expectation is
// corrupted (a flipped expected byte, a dropped key, a miscounted total, a
// wrong native copy). Exits non-zero if any check misbehaves.
#include <cstdio>
#include <string>
#include <vector>

#include "checks.h"
#include "kvstore/server.h"
#include "kvstore/sharded_store.h"
#include "net/blocking_client.h"
#include "net/net_server.h"
#include "runtime/managed.h"

namespace {

int g_bad = 0;

// `c` must have recorded failures exactly when `want_fail` is set.
void expect_outcome(const char* name, const pb::Checks& c, bool want_fail) {
  const bool failed = !c.ok();
  const bool good = failed == want_fail;
  if (!good) ++g_bad;
  std::printf("%-4s %s (%s, %llu failure(s))\n", good ? "ok" : "BAD", name,
              want_fail ? "must fail" : "must pass",
              static_cast<unsigned long long>(c.failures()));
}

mgc::VmConfig small_vm(mgc::GcKind gc) {
  mgc::VmConfig cfg = mgc::VmConfig::baseline(gc);
  cfg.heap_bytes = 32 * mgc::MiB;
  cfg.young_bytes = 8 * mgc::MiB;
  cfg.gc_threads = 2;
  return cfg;
}

void kv_checks() {
  constexpr std::size_t kLen = 1024;
  constexpr std::uint64_t kKeys = 300;
  mgc::Vm vm(small_vm(mgc::GcKind::kSerial));
  mgc::kv::StoreConfig scfg = mgc::kv::StoreConfig::default_config(32 * mgc::MiB);
  scfg.value_len = kLen;
  mgc::kv::ShardedStore store(vm, scfg, 2);
  mgc::kv::Server server(vm, store, mgc::kv::ServerConfig{});
  mgc::net::NetServer net(server);

  // Rows written the way the workloads write them: through the server
  // front-end, so the workers produce the bytes.
  const std::uint64_t completed0 = server.completed();
  const std::uint64_t frames0 = net.stats().frames_in;
  std::uint64_t answered = 0;
  {
    mgc::net::BlockingClient cli("127.0.0.1", net.port());
    for (std::uint64_t k = 0; k < kKeys; ++k) {
      mgc::kv::Request req;
      req.op = k % 3 == 0 ? mgc::kv::OpType::kRead : mgc::kv::OpType::kInsert;
      req.key = k % 3 == 0 ? k / 2 : k;
      req.value_len = kLen;
      mgc::net::ResponseFrame resp;
      if (cli.call_once(req, &resp)) ++answered;
    }
  }
  std::vector<std::uint64_t> keys;
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    if (k % 3 != 0) keys.push_back(k);
  }
  const std::uint64_t completed = server.completed() - completed0;
  const std::uint64_t frames = net.stats().frames_in - frames0;
  {
    pb::Checks c;
    pb::check_request_counts(c, answered, completed, frames);
    expect_outcome("request counts as measured", c, false);
  }
  {
    pb::Checks c;
    pb::check_request_counts(c, answered + 1, completed, frames);
    expect_outcome("request counts, answered miscounted by one", c, true);
  }
  {
    mgc::Vm::MutatorScope scope(vm, "selftest");
    pb::Checks ok;
    pb::check_rows(ok, scope.mutator(), store, keys, kLen);
    expect_outcome("rows read back", ok, false);

    pb::Checks flipped;
    pb::check_rows(flipped, scope.mutator(), store, keys, kLen,
                   [](std::uint64_t key, std::size_t len) {
                     std::vector<char> v = pb::expected_value(key, len);
                     if (key == 7) v[3] ^= 0x20;
                     return v;
                   });
    expect_outcome("rows, one expected byte flipped", flipped, true);

    pb::Checks tail;
    pb::check_rows(tail, scope.mutator(), store, keys, kLen,
                   [](std::uint64_t key, std::size_t len) {
                     std::vector<char> v = pb::expected_value(key, len);
                     if (key == 8) v[len - 1] = 1;
                     return v;
                   });
    expect_outcome("rows, one expected tail byte flipped", tail, true);

    pb::Checks longer;
    pb::check_rows(longer, scope.mutator(), store, keys, kLen + 1);
    expect_outcome("rows, expected length off by one", longer, true);

    const std::uint64_t dropped = 10;
    store.shard(store.shard_of(dropped)).remove(scope.mutator(), dropped);
    pb::Checks gone;
    pb::check_rows(gone, scope.mutator(), store, keys, kLen);
    expect_outcome("rows, one key dropped from the store", gone, true);
  }
  net.shutdown();
  {
    pb::Checks c;
    pb::check_drained(c, net.per_loop_stats());
    expect_outcome("front-end drained", c, false);
  }
  {
    std::vector<mgc::net::NetServerStats> loops = net.per_loop_stats();
    loops.back().frames_out -= 1;
    pb::Checks c;
    pb::check_drained(c, loops);
    expect_outcome("front-end drain, one response miscounted", c, true);
  }
  server.shutdown();
}

void ledger_checks() {
  mgc::Vm vm(small_vm(mgc::GcKind::kParallelOld));
  pb::Ledger ledger(vm, 42);
  mgc::Vm::MutatorScope scope(vm, "selftest");
  mgc::Mutator& m = scope.mutator();
  for (std::uint64_t round = 0; round < 4; ++round) {
    m.system_gc();
    ledger.relink(m, round);
    // Enough garbage for several young collections between relink and
    // check: the relinked children survive them only through card marks.
    for (int i = 0; i < 200000; ++i) {
      mgc::Local junk(m, m.alloc(1, 6));
      (void)junk;
    }
  }
  {
    pb::Checks c;
    ledger.check(c);
    expect_outcome("ledger after relinks and young GCs", c, false);
  }
  {
    ledger.mirror()[5] ^= 1;
    pb::Checks c;
    ledger.check(c);
    expect_outcome("ledger, native copy corrupted", c, true);
    ledger.mirror()[5] ^= 1;
  }
  {
    ledger.corrupt_managed(9);
    pb::Checks c;
    ledger.check(c);
    expect_outcome("ledger, managed child corrupted", c, true);
  }
}

void count_checks() {
  pb::Checks ok, bad;
  ok.expect_eq("commit count", 12000 + 500, 12500);
  bad.expect_eq("commit count", 12000 + 500, 12501);
  expect_outcome("commit count as measured", ok, false);
  expect_outcome("commit count, one write miscounted", bad, true);
}

}  // namespace

int main() {
  kv_checks();
  ledger_checks();
  count_checks();
  std::printf("%s\n", g_bad == 0 ? "selftest: all checks behave"
                                 : "selftest: FAILED");
  return g_bad == 0 ? 0 : 1;
}
