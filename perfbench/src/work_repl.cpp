// repl-write: a 3-replica repl::Cluster (quorum 2), each replica a Serial
// VM with 1 GC thread on the scaled 64 MB / 12 MB geometry. Clients run a
// closed loop of 90% update / 10% read through repl::ReplClient after a
// load phase; every write crosses two network hops (client to leader,
// leader to a follower) before it is acknowledged. The failure detector's
// budget sits far above Serial's pauses, so no election should start. An
// operation is one client request.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <set>
#include <thread>

#include "checks.h"
#include "kvstore/server.h"
#include "net/blocking_client.h"
#include "net/net_server.h"
#include "replication/cluster.h"
#include "replication/repl_client.h"
#include "requests.h"
#include "workloads.h"

namespace pb {

namespace {

using mgc::kv::OpType;
using mgc::kv::Request;

constexpr std::uint64_t kRows = 12000;
constexpr std::size_t kValueLen = 1024;
constexpr double kReadShare = 0.10;
constexpr int kMaxClients = 4;
// Sample buffers are sized for this many requests per client per second.
constexpr double kMaxRatePerClient = 20000;
constexpr int kTickUs = 2000;
// 100 ticks of 2 ms: a 200 ms detector budget, about 25 times Serial's
// young pauses and 5 times its full pauses on this heap.
constexpr int kElectionTicks = 100;
constexpr int kPendingTimeoutTicks = 500;
constexpr std::size_t kCompareWrites = 5000;
// Warm-up requests per client before the measured phase.
constexpr std::uint64_t kWarmupRequests = 20000;
constexpr std::uint64_t kWarmupSalt = 0x7761726d7570ULL;

struct ClientLog {
  explicit ClientLog(std::size_t capacity) : samples(capacity) {}
  SampleLog samples;
  std::vector<std::uint64_t> acked_keys;
  std::uint64_t failed = 0;
  std::uint64_t writes_failed = 0;
  std::uint64_t reads_missing = 0;
  std::uint64_t updates_acked = 0;
  std::uint64_t rotations = 0;
};

mgc::repl::NodeConfig node_config(const Options& o) {
  mgc::repl::NodeConfig nc;
  nc.shards = 2;
  nc.quorum = 2;
  nc.heartbeat_every_ticks = 1;
  nc.election_timeout_ticks = kElectionTicks;
  nc.pending_timeout_ticks = kPendingTimeoutTicks;
  nc.vm = mgc::VmConfig::baseline(o.gc.empty() ? mgc::GcKind::kSerial
                                               : mgc::gc_kind_from_name(o.gc));
  nc.vm.heap_bytes = 64 * mgc::MiB;
  nc.vm.young_bytes = 12 * mgc::MiB;
  nc.vm.gc_threads = 1;
  nc.store = mgc::kv::StoreConfig::default_config(nc.vm.heap_bytes);
  nc.store.value_len = kValueLen;
  return nc;
}

void client_loop(const std::vector<std::uint16_t>& ports, std::uint64_t seed,
                 int idx, std::int64_t deadline, std::uint64_t max_requests,
                 Tracer& tr, int lane,
                 ClientLog* log) {
  mgc::repl::ReplClient cli(ports);
  RequestStream stream(seed, idx, kRows, kReadShare, kValueLen);
  for (std::int64_t now = mgc::now_ns();
       now < deadline && log->samples.size() < max_requests;) {
    const Request req = stream.next();
    const std::int64_t t0 = mgc::now_ns();
    const mgc::kv::Response resp = cli.execute(req);
    now = mgc::now_ns();
    log->samples.add({t0, now, req.op == OpType::kRead});
    tr.span(lane, "ReplClient::execute", t0, now, req.key);
    if (resp.status != mgc::kv::ExecStatus::kOk) {
      ++log->failed;
      if (req.op != OpType::kRead) ++log->writes_failed;
    } else if (req.op == OpType::kRead) {
      if (!resp.found) ++log->reads_missing;
    } else {
      ++log->updates_acked;
    }
  }
  log->acked_keys = cli.acked_keys();
  log->rotations = cli.rotations();
}

// Runs one closed-loop ReplClient per log, each on its own thread.
void drive(const std::vector<std::uint16_t>& ports, std::uint64_t seed,
           std::int64_t deadline, std::uint64_t max_requests, Tracer& tr,
           const std::vector<int>& lanes, std::vector<ClientLog>& logs) {
  const int clients = static_cast<int>(logs.size());
  std::vector<std::thread> ts;
  for (int t = 0; t < clients; ++t) {
    const auto i = static_cast<std::size_t>(t);
    ts.emplace_back(client_loop, std::cref(ports), seed, t, deadline,
                    max_requests, std::ref(tr), lanes[i], &logs[i]);
  }
  for (auto& t : ts) t.join();
}

std::vector<mgc::repl::NodeStats> all_stats(mgc::repl::Cluster& cl) {
  std::vector<mgc::repl::NodeStats> s;
  for (std::size_t i = 0; i < cl.size(); ++i) s.push_back(cl.node(i).stats());
  return s;
}

// The first kCompareWrites updates of the seeded stream, timed one at a
// time through `fn`; returns their median latency in microseconds.
template <typename Fn>
double time_writes(std::uint64_t seed, Tracer& tr, int lane, const char* name,
                   Fn&& fn) {
  RequestStream stream(seed, 0, kRows, 0.0, kValueLen);
  std::vector<double> us;
  for (std::size_t i = 0; i < kCompareWrites; ++i) {
    const Request req = stream.next();
    const std::int64_t t0 = mgc::now_ns();
    fn(req);
    const std::int64_t t1 = mgc::now_ns();
    tr.span(lane, name, t0, t1, req.key);
    us.push_back(static_cast<double>(t1 - t0) / 1e3);
  }
  return median(us);
}

}  // namespace

RunResult run_repl(const Options& o, Tracer& tr) {
  RunResult r;
  Checks c;
  const int clients = std::min<int>(
      kMaxClients, std::max(1u, std::thread::hardware_concurrency()));
  mgc::repl::ClusterConfig cc;
  cc.nodes = 3;
  cc.node = node_config(o);
  mgc::repl::Cluster cluster(cc);
  cluster.start_ticker(kTickUs);
  int leader = -1;
  if (!cluster.wait_leader(&leader, 10000)) {
    r.problems.push_back("no leader elected at start");
    return r;
  }
  const std::vector<std::uint16_t> ports = cluster.client_ports();

  std::atomic<std::uint64_t> load_failed{0};
  {
    std::vector<std::thread> ts;
    for (int t = 0; t < clients; ++t) {
      ts.emplace_back([&, t] {
        mgc::repl::ReplClient cli(ports);
        for (std::uint64_t k = static_cast<std::uint64_t>(t); k < kRows;
             k += static_cast<std::uint64_t>(clients)) {
          Request req;
          req.op = OpType::kInsert;
          req.key = k;
          req.value_len = kValueLen;
          if (cli.execute(req).status != mgc::kv::ExecStatus::kOk) {
            load_failed.fetch_add(1);
          }
        }
      });
    }
    for (auto& t : ts) t.join();
  }
  c.expect_eq("load-phase inserts not acknowledged", load_failed.load(), 0);
  std::uint64_t warmup_updates = 0;
  std::uint64_t setup_alloc = 0;
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    setup_alloc += cluster.node(i).vm().total_allocated_bytes();
  }

  // Warm-up on a stream of its own, a fixed request count: the replicas'
  // heaps reach their steady state before the measured phase.
  std::vector<ClientLog> warm(static_cast<std::size_t>(clients),
                              ClientLog(kWarmupRequests));
  drive(ports, o.seed ^ kWarmupSalt, INT64_MAX, kWarmupRequests, tr,
        std::vector<int>(static_cast<std::size_t>(clients), -1), warm);
  for (const ClientLog& l : warm) {
    c.expect_eq("warm-up requests failed", l.failed, 0);
    warmup_updates += l.updates_acked;
  }

  std::vector<int> lanes;
  for (int t = 0; t < clients; ++t) {
    lanes.push_back(tr.lane("client " + std::to_string(t)));
  }
  std::vector<mgc::GcCostSnapshot> cost0;
  std::uint64_t flushes0 = 0;
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    cost0.push_back(cluster.node(i).vm().cost_snapshot());
    flushes0 += cluster.node(i).store().flush_count();
  }
  const std::vector<mgc::repl::NodeStats> stats0 = all_stats(cluster);
  std::vector<ClientLog> logs(
      static_cast<std::size_t>(clients),
      ClientLog(static_cast<std::size_t>(o.seconds * kMaxRatePerClient)));
  Window w;
  w.start();
  const double setup_s = static_cast<double>(w.t0_ns - process_start_ns()) / 1e9;
  const std::int64_t deadline =
      w.t0_ns + static_cast<std::int64_t>(o.seconds * 1e9);
  drive(ports, o.seed, deadline, UINT64_MAX, tr, lanes, logs);
  w.stop();
  const std::vector<mgc::repl::NodeStats> stats1 = all_stats(cluster);

  std::vector<double> op_us, write_us, read_us;
  std::vector<std::pair<std::int64_t, std::int64_t>> ivals;
  std::uint64_t writes_failed = 0, reads_missing = 0, updates_acked = 0,
                rotations = 0;
  std::set<std::uint64_t> acked;
  for (std::uint64_t k = 0; k < kRows; ++k) acked.insert(k);
  for (const ClientLog& l : logs) {
    for (const Sample& s : l.samples) {
      const double us = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
      op_us.push_back(us);
      (s.read ? read_us : write_us).push_back(us);
      ivals.emplace_back(s.start_ns, s.end_ns);
    }
    r.attempted += l.samples.size();
    r.failed += l.failed;
    writes_failed += l.writes_failed;
    reads_missing += l.reads_missing;
    updates_acked += l.updates_acked;
    rotations += l.rotations;
    acked.insert(l.acked_keys.begin(), l.acked_keys.end());
  }
  c.expect_eq("reads of loaded keys not found", reads_missing, 0);

  std::vector<mgc::PauseEvent> pauses;
  mgc::GcCostSnapshot cost{};
  std::uint64_t flushes = 0;
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    mgc::Vm& vm = cluster.node(i).vm();
    std::vector<mgc::PauseEvent> p = pauses_between(vm.gc_log(), w.t0_ns, w.t1_ns);
    tr.add_pauses("gc node " + std::to_string(i), p);
    pauses.insert(pauses.end(), p.begin(), p.end());
    cost_add(cost, cost_delta(cost0[i], vm.cost_snapshot()));
    flushes += cluster.node(i).store().flush_count();
  }
  std::sort(pauses.begin(), pauses.end(),
            [](const mgc::PauseEvent& a, const mgc::PauseEvent& b) {
              return a.start_ns < b.start_ns;
            });
  add_end_to_end(r, setup_s, w, r.attempted, op_us, pauses);
  add_gc_layers(r, pauses, cost);
  r.layer("gc.requests_in_pause", static_cast<double>(count_in_pause(pauses, ivals)),
          "count");
  r.layer("runtime.allocated_mb", static_cast<double>(setup_alloc) / (1 << 20), "MB");
  r.layer("kvstore.flushes", static_cast<double>(flushes - flushes0), "count");

  std::uint64_t applied = 0, batches = 0, acks = 0, heartbeats = 0, elections = 0;
  for (std::size_t i = 0; i < stats1.size(); ++i) {
    if (static_cast<int>(i) == leader) {
      batches += stats1[i].append_batches_sent - stats0[i].append_batches_sent;
    } else {
      applied += stats1[i].entries_applied - stats0[i].entries_applied;
    }
    acks += stats1[i].acks_sent - stats0[i].acks_sent;
    heartbeats += stats1[i].heartbeats_sent - stats0[i].heartbeats_sent;
    elections += stats1[i].elections_started - stats0[i].elections_started;
  }
  const double kwrites = static_cast<double>(std::max<std::size_t>(write_us.size(), 1)) / 1e3;
  r.layer("replication.write_p50_us", median(write_us), "us");
  r.layer("replication.read_p50_us", median(read_us), "us");
  r.layer("replication.entries_per_append",
          static_cast<double>(applied) / static_cast<double>(std::max<std::uint64_t>(batches, 1)),
          "entries/append");
  r.layer("replication.acks_per_kwrite", static_cast<double>(acks) / kwrites, "acks/kwrite");
  r.layer("replication.heartbeats_per_kwrite", static_cast<double>(heartbeats) / kwrites,
          "hb/kwrite");
  r.layer("replication.elections", static_cast<double>(elections), "count");
  r.layer("replication.redirects", static_cast<double>(rotations), "count");
  r.layer("replication.writes_failed", static_cast<double>(writes_failed), "count");

  // Traced runs: the same writes replicated (one client) and sent to one
  // unreplicated node over the net; the difference is the quorum's cost.
  std::uint64_t probe_acked = 0;
  if (tr.on()) {
    const int lane = tr.lane("layer probes");
    mgc::repl::ReplClient rc(ports);
    const double repl_p50 =
        time_writes(o.seed, tr, lane, "ReplClient::execute", [&](const Request& req) {
          if (rc.execute(req).status == mgc::kv::ExecStatus::kOk) {
            ++probe_acked;
          } else {
            c.fail("replicated probe write failed");
          }
        });
    const mgc::repl::NodeConfig nc = node_config(o);
    mgc::Vm vm(nc.vm);
    mgc::kv::ShardedStore store(vm, nc.store, nc.shards);
    mgc::kv::ServerConfig scfg;
    scfg.workers_per_shard = 1;
    mgc::kv::Server server(vm, store, scfg);
    mgc::net::NetServer net(server);
    mgc::net::BlockingClient cli("127.0.0.1", net.port());
    const double single_p50 =
        time_writes(o.seed, tr, lane, "BlockingClient::execute (unreplicated)",
                    [&](const Request& req) {
                      c.expect(cli.execute(req).status == mgc::kv::ExecStatus::kOk,
                               "unreplicated probe write failed");
                    });
    net.shutdown();
    server.shutdown();
    r.layer("replication.quorum_overhead_us", repl_p50 - single_p50, "us");
  }

  // Quiesce, then check every replica on its own.
  if (!cluster.wait_converged(10000)) {
    c.fail("replicas did not converge");
  }
  const int leader_now = cluster.leader_index();
  if (leader_now < 0) {
    c.fail("no leader after the run");
  } else {
    const std::uint64_t commit = cluster.node(static_cast<std::size_t>(leader_now)).commit_seq();
    c.expect_eq("leader commit_seq vs loaded rows + acknowledged updates",
                commit,
                kRows + warmup_updates + updates_acked + probe_acked);
    const std::vector<std::uint64_t> keys(acked.begin(), acked.end());
    for (std::size_t i = 0; i < cluster.size(); ++i) {
      mgc::repl::Node& n = cluster.node(i);
      c.expect_eq("replica " + std::to_string(i) + " last_seq vs leader commit_seq",
                  n.log().last_seq(), commit);
      mgc::Vm::MutatorScope scope(n.vm(), "checker");
      check_rows(c, scope.mutator(), n.store(), keys, kValueLen);
    }
  }
  cluster.shutdown();

  std::fprintf(stderr, "repl-write: %llu requests, %llu failed, %zu pauses, %llu elections\n",
               static_cast<unsigned long long>(r.attempted),
               static_cast<unsigned long long>(r.failed), pauses.size(),
               static_cast<unsigned long long>(elections));
  r.problems = c.problems();
  return r;
}

}  // namespace pb
