// kv-net: the paper's Cassandra setup. A CMS VM on the scaled 64 MB heap
// with a 12 MB young generation holds a 2-shard store behind kv::Server
// and a 2-loop net::NetServer. Clients run a closed loop of YCSB 50/50
// read/update requests over loopback TCP, one connection each, after a
// load phase of 1 KB rows. An operation is one client request.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>

#include "checks.h"
#include "kvstore/server.h"
#include "kvstore/sharded_store.h"
#include "net/blocking_client.h"
#include "net/net_server.h"
#include "requests.h"
#include "workloads.h"

namespace pb {

namespace {

using mgc::kv::OpType;
using mgc::kv::Request;

constexpr std::uint64_t kRows = 12000;
constexpr std::size_t kValueLen = 1024;
constexpr std::size_t kShards = 2;
constexpr int kLoops = 2;
// Two client connections: with four, clients, event loops and shard
// workers oversubscribe a 4-core host and the p99 swings 90-350 us from
// run to run.
constexpr int kMaxClients = 2;
constexpr int kGcThreads = 2;
// Sample buffers are sized for this many requests per client per second.
constexpr double kMaxRatePerClient = 40000;
constexpr std::size_t kCompareRequests = 20000;
// Warm-up requests per client before the measured phase.
constexpr std::uint64_t kWarmupRequests = 50000;
constexpr std::uint64_t kWarmupSalt = 0x7761726d7570ULL;

struct ClientLog {
  explicit ClientLog(std::size_t capacity) : samples(capacity) {}
  SampleLog samples;
  std::uint64_t answered = 0;
  std::uint64_t failed = 0;
  std::uint64_t reads_missing = 0;
};

// One closed-loop client on its own connection, until the deadline or
// max_requests.
void client_loop(std::uint16_t port, std::uint64_t seed, int idx,
                 std::int64_t deadline, std::uint64_t max_requests,
                 Tracer& tr, int lane, ClientLog* log) {
  mgc::net::BlockingClient cli("127.0.0.1", port);
  RequestStream stream(seed, idx, kRows, 0.5, kValueLen);
  for (std::int64_t now = mgc::now_ns();
       now < deadline && log->samples.size() < max_requests;) {
    const Request req = stream.next();
    mgc::net::ResponseFrame resp;
    const std::int64_t t0 = mgc::now_ns();
    const bool ok = cli.call_once(req, &resp);
    now = mgc::now_ns();
    log->samples.add({t0, now, req.op == OpType::kRead});
    tr.span(lane, "BlockingClient::call", t0, now, req.key);
    if (!ok) {
      ++log->failed;
      continue;
    }
    ++log->answered;
    if (resp.status != mgc::kv::ExecStatus::kOk) {
      ++log->failed;
    } else if (req.op == OpType::kRead && !resp.found) {
      ++log->reads_missing;
    }
  }
}

// Runs one closed-loop client per log, each on its own connection.
void drive(std::uint16_t port, std::uint64_t seed, std::int64_t deadline,
           std::uint64_t max_requests, Tracer& tr,
           const std::vector<int>& lanes, std::vector<ClientLog>& logs) {
  const int clients = static_cast<int>(logs.size());
  std::vector<std::thread> ts;
  for (int t = 0; t < clients; ++t) {
    const auto i = static_cast<std::size_t>(t);
    ts.emplace_back(client_loop, port, seed, t, deadline, max_requests,
                    std::ref(tr),
                    lanes[i], &logs[i]);
  }
  for (auto& t : ts) t.join();
}

// Times fn once per request of the stream; returns the per-op-kind
// latencies in microseconds.
template <typename Fn>
void time_stream(std::uint64_t seed, Tracer& tr, int lane, const char* name,
                 std::vector<double>* read_us, std::vector<double>* write_us,
                 Fn&& fn) {
  RequestStream stream(seed, 0, kRows, 0.5, kValueLen);
  for (std::size_t i = 0; i < kCompareRequests; ++i) {
    const Request req = stream.next();
    const std::int64_t t0 = mgc::now_ns();
    fn(req);
    const std::int64_t t1 = mgc::now_ns();
    tr.span(lane, name, t0, t1, req.key);
    (req.op == OpType::kRead ? read_us : write_us)
        ->push_back(static_cast<double>(t1 - t0) / 1e3);
  }
}

}  // namespace

RunResult run_kvnet(const Options& o, Tracer& tr) {
  RunResult r;
  Checks c;
  mgc::GcKind gc = mgc::GcKind::kCms;
  if (!o.gc.empty()) gc = mgc::gc_kind_from_name(o.gc);
  const int clients = std::min<int>(
      kMaxClients, std::max(1u, std::thread::hardware_concurrency()));
  mgc::VmConfig cfg = mgc::VmConfig::baseline(gc);
  cfg.heap_bytes = 64 * mgc::MiB;
  cfg.young_bytes = 12 * mgc::MiB;
  // Cassandra's own tuning starts the CMS cycle with headroom
  // (CMSInitiatingOccupancyFraction); bench/cassandra_common.h uses the
  // same value.
  cfg.cms_trigger_occupancy = 0.55;
  cfg.gc_threads = kGcThreads;
  mgc::Vm vm(cfg);
  mgc::kv::StoreConfig scfg = mgc::kv::StoreConfig::default_config(cfg.heap_bytes);
  scfg.value_len = kValueLen;
  mgc::kv::ShardedStore store(vm, scfg, kShards);
  mgc::kv::Server server(vm, store, mgc::kv::ServerConfig{});
  mgc::net::NetServerConfig ncfg;
  ncfg.loops = kLoops;
  mgc::net::NetServer net(server, ncfg);
  const std::uint16_t port = net.port();

  // Load phase: every row once, keys striped over the client connections.
  std::atomic<std::uint64_t> load_failed{0};
  {
    std::vector<std::thread> ts;
    for (int t = 0; t < clients; ++t) {
      ts.emplace_back([&, t] {
        mgc::net::BlockingClient cli("127.0.0.1", port);
        for (std::uint64_t k = static_cast<std::uint64_t>(t); k < kRows;
             k += static_cast<std::uint64_t>(clients)) {
          Request req;
          req.op = OpType::kInsert;
          req.key = k;
          req.value_len = kValueLen;
          mgc::net::ResponseFrame resp;
          if (!cli.call_once(req, &resp) ||
              resp.status != mgc::kv::ExecStatus::kOk) {
            load_failed.fetch_add(1);
          }
        }
      });
    }
    for (auto& t : ts) t.join();
  }
  c.expect_eq("load-phase inserts not answered kOk", load_failed.load(), 0);
  const std::uint64_t setup_alloc = vm.total_allocated_bytes();

  // Warm-up on a stream of its own, so the heap and the CMS cycle reach
  // their steady state before the measured phase. A fixed request count,
  // not a fixed time: set-up time then moves with the work it does.
  std::vector<ClientLog> warm(static_cast<std::size_t>(clients),
                              ClientLog(kWarmupRequests));
  drive(port, o.seed ^ kWarmupSalt, INT64_MAX, kWarmupRequests, tr,
        std::vector<int>(static_cast<std::size_t>(clients), -1), warm);
  for (const ClientLog& l : warm) {
    c.expect_eq("warm-up requests failed", l.failed, 0);
  }

  // Measured phase.
  std::vector<int> lanes;
  for (int t = 0; t < clients; ++t) {
    lanes.push_back(tr.lane("client " + std::to_string(t)));
  }
  const mgc::GcCostSnapshot cost0 = vm.cost_snapshot();
  const std::uint64_t completed0 = server.completed();
  const std::uint64_t frames0 = net.stats().frames_in;
  const std::uint64_t flushes0 = store.flush_count();
  std::vector<ClientLog> logs(
      static_cast<std::size_t>(clients),
      ClientLog(static_cast<std::size_t>(o.seconds * kMaxRatePerClient)));
  Window w;
  w.start();
  const double setup_s = static_cast<double>(w.t0_ns - process_start_ns()) / 1e9;
  const std::int64_t deadline =
      w.t0_ns + static_cast<std::int64_t>(o.seconds * 1e9);
  drive(port, o.seed, deadline, UINT64_MAX, tr, lanes, logs);
  w.stop();
  const mgc::GcCostSnapshot cost = cost_delta(cost0, vm.cost_snapshot());
  const std::uint64_t completed = server.completed() - completed0;
  const std::uint64_t frames = net.stats().frames_in - frames0;
  const std::uint64_t flushes = store.flush_count() - flushes0;

  std::vector<double> op_us;
  std::vector<std::pair<std::int64_t, std::int64_t>> ivals;
  std::uint64_t answered = 0, reads_missing = 0;
  for (const ClientLog& l : logs) {
    for (const Sample& s : l.samples) {
      op_us.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
      ivals.emplace_back(s.start_ns, s.end_ns);
    }
    r.attempted += l.samples.size();
    r.failed += l.failed;
    answered += l.answered;
    reads_missing += l.reads_missing;
  }
  c.expect_eq("reads of loaded keys not found", reads_missing, 0);
  check_request_counts(c, answered, completed, frames);

  std::vector<mgc::PauseEvent> pauses = pauses_between(vm.gc_log(), w.t0_ns, w.t1_ns);
  add_end_to_end(r, setup_s, w, r.attempted, op_us, pauses);
  add_gc_layers(r, pauses, cost);
  r.layer("gc.requests_in_pause", static_cast<double>(count_in_pause(pauses, ivals)),
          "count");
  r.layer("runtime.allocated_mb", static_cast<double>(setup_alloc) / (1 << 20), "MB");
  r.layer("kvstore.flushes", static_cast<double>(flushes), "count");
  tr.add_pauses("gc cms", pauses);

  // Traced runs: the same request stream, one layer at a time.
  if (tr.on()) {
    const int lane = tr.lane("layer probes");
    std::vector<double> get_us, put_us, exec_r, exec_w, net_r, net_w;
    {
      mgc::Vm::MutatorScope scope(vm, "probe");
      mgc::Mutator& m = scope.mutator();
      std::vector<char> buf(kValueLen + 64, 0);
      time_stream(o.seed, tr, lane, "ShardedStore::get/put", &get_us, &put_us,
                  [&](const Request& req) {
                    std::size_t len = 0;
                    if (req.op == OpType::kRead) {
                      c.expect(store.get(m, req.key, buf.data(), buf.size(), &len),
                               "direct get missed a loaded key");
                    } else {
                      mgc::kv::synth_value(req.key, buf.data(), kValueLen);
                      c.expect(store.put(m, req.key, buf.data(), kValueLen),
                               "direct put refused");
                    }
                    m.poll();
                  });
    }
    time_stream(o.seed, tr, lane, "Server::execute", &exec_r, &exec_w,
                [&](const Request& req) {
                  const mgc::kv::Response resp = server.execute(req);
                  c.expect(resp.status == mgc::kv::ExecStatus::kOk &&
                               (req.op != OpType::kRead || resp.found),
                           "in-process execute failed");
                });
    {
      mgc::net::BlockingClient cli("127.0.0.1", port);
      time_stream(o.seed, tr, lane, "BlockingClient::execute", &net_r, &net_w,
                  [&](const Request& req) {
                    const mgc::kv::Response resp = cli.execute(req);
                    c.expect(resp.status == mgc::kv::ExecStatus::kOk &&
                                 (req.op != OpType::kRead || resp.found),
                             "net execute failed");
                  });
    }
    std::vector<double> exec_all = exec_r, net_all = net_r;
    exec_all.insert(exec_all.end(), exec_w.begin(), exec_w.end());
    net_all.insert(net_all.end(), net_w.begin(), net_w.end());
    r.layer("kvstore.get_us", median(get_us), "us");
    r.layer("kvstore.put_us", median(put_us), "us");
    r.layer("kvstore.server_execute_us", median(exec_all), "us");
    r.layer("net.round_trip_us", median(net_all), "us");
    r.layer("net.overhead_us", median(net_all) - median(exec_all), "us");
  }

  // Every row read back from a benchmark mutator and compared with the
  // bytes the benchmark derives for it.
  {
    mgc::Vm::MutatorScope scope(vm, "checker");
    std::vector<std::uint64_t> keys(kRows);
    for (std::uint64_t k = 0; k < kRows; ++k) keys[k] = k;
    check_rows(c, scope.mutator(), store, keys, kValueLen);
  }
  net.shutdown();
  check_drained(c, net.per_loop_stats());
  std::uint64_t shed = 0;
  for (std::size_t s = 0; s < server.shard_count(); ++s) shed += server.shed_count(s);
  r.layer("kvstore.shed", static_cast<double>(shed), "count");
  server.shutdown();

  std::fprintf(stderr, "kv-net: %llu requests, %llu failed, %zu pauses\n",
               static_cast<unsigned long long>(r.attempted),
               static_cast<unsigned long long>(r.failed), pauses.size());
  r.problems = c.problems();
  return r;
}

}  // namespace pb
