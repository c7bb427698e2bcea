// Output checks. Each one compares what the program produced with a value
// the benchmark computes on its own (a native mirror, a documented byte
// rule, or a count kept on the client side), never with a snapshot of an
// earlier run. test/selftest.cpp shows that each check fails when its
// expectation is corrupted.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "kvstore/sharded_store.h"
#include "net/net_server.h"
#include "runtime/vm.h"

namespace pb {

// Collects check failures; a run is correct when none were recorded.
class Checks {
 public:
  void fail(const std::string& what);
  void expect(bool ok, const std::string& what) {
    if (!ok) fail(what);
  }
  void expect_eq(const std::string& what, std::uint64_t got,
                 std::uint64_t want);
  bool ok() const { return failures_ == 0; }
  std::uint64_t failures() const { return failures_; }
  // The first kKeep failure messages.
  const std::vector<std::string>& problems() const { return problems_; }

  static constexpr std::size_t kKeep = 32;

 private:
  std::uint64_t failures_ = 0;
  std::vector<std::string> problems_;
};

// The bytes a server worker writes for `key`, restated from the rule
// documented at kv::synth_value: byte i < 16 is (key >> (i % 8)) & 0xff,
// and the rest of the row is zero (workers reuse one zeroed scratch
// buffer that only ever holds such rows).
std::vector<char> expected_value(std::uint64_t key, std::size_t len);

using ExpectFn = std::function<std::vector<char>(std::uint64_t key,
                                                 std::size_t len)>;

// Reads every key back through ShardedStore::get on an attached mutator
// and compares the row with expect(key, value_len).
void check_rows(Checks& c, mgc::Mutator& m, mgc::kv::ShardedStore& store,
                const std::vector<std::uint64_t>& keys, std::size_t value_len,
                const ExpectFn& expect = expected_value);

// Client-side answered count vs the server's completed delta and the
// front-end's frames_in delta.
void check_request_counts(Checks& c, std::uint64_t answered,
                          std::uint64_t server_completed,
                          std::uint64_t frames_in);

// After NetServer::shutdown: frames_out + dropped_responses == frames_in
// on every loop.
void check_drained(Checks& c,
                   const std::vector<mgc::net::NetServerStats>& loops);

// A managed structure the dacapo workload keeps beside the kernels, with
// a native copy of what it must hold. relink() runs right after a full GC
// has promoted every cell to the old generation: it gives about half of
// the cells a freshly allocated (young) child, so the only thing keeping
// those children alive through the next young collections is the card
// mark of the old cell that points at them.
class Ledger {
 public:
  static constexpr std::size_t kSlots = 512;

  Ledger(mgc::Vm& vm, std::uint64_t seed);

  void relink(mgc::Mutator& m, std::uint64_t round);
  // Compares the managed structure with the native copy. Must run on an
  // attached mutator while no other mutator runs.
  void check(Checks& c) const;

  // The native copy (child value per slot); the self-test corrupts it.
  std::vector<std::uint64_t>& mirror() { return want_; }
  // Overwrites one child's value inside the heap; the self-test uses it.
  void corrupt_managed(std::size_t slot);

 private:
  std::uint64_t tag(std::size_t slot) const;

  mgc::Vm& vm_;
  std::uint64_t seed_;
  std::size_t root_;
  std::vector<std::uint64_t> want_;
};

}  // namespace pb
