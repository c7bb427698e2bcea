#include "checks.h"

#include <cstring>

#include "kvstore/server.h"
#include "runtime/managed.h"
#include "support/rng.h"

namespace pb {

using mgc::Local;
using mgc::Mutator;
using mgc::Obj;
namespace ref_array = mgc::managed::ref_array;

void Checks::fail(const std::string& what) {
  ++failures_;
  if (problems_.size() < kKeep) problems_.push_back(what);
}

void Checks::expect_eq(const std::string& what, std::uint64_t got,
                       std::uint64_t want) {
  if (got != want) {
    fail(what + ": got " + std::to_string(got) + ", want " +
         std::to_string(want));
  }
}

std::vector<char> expected_value(std::uint64_t key, std::size_t len) {
  std::vector<char> v(len, 0);
  for (std::size_t i = 0; i < len && i < 16; ++i) {
    v[i] = static_cast<char>((key >> (i % 8)) & 0xff);
  }
  return v;
}

void check_rows(Checks& c, Mutator& m, mgc::kv::ShardedStore& store,
                const std::vector<std::uint64_t>& keys, std::size_t value_len,
                const ExpectFn& expect) {
  std::vector<char> got(value_len + 64);
  for (std::uint64_t key : keys) {
    std::size_t len = 0;
    const bool found = store.get(m, key, got.data(), got.size(), &len);
    if (!found) {
      c.fail("key " + std::to_string(key) + " missing from the store");
      continue;
    }
    if (len != value_len) {
      c.fail("key " + std::to_string(key) + " has length " +
             std::to_string(len) + ", want " + std::to_string(value_len));
      continue;
    }
    const std::vector<char> want = expect(key, value_len);
    if (std::memcmp(got.data(), want.data(), value_len) != 0) {
      c.fail("key " + std::to_string(key) + " holds other bytes than its row");
    }
  }
}

void check_request_counts(Checks& c, std::uint64_t answered,
                          std::uint64_t server_completed,
                          std::uint64_t frames_in) {
  c.expect_eq("answered requests vs Server::completed delta", answered,
              server_completed);
  c.expect_eq("answered requests vs NetServer frames_in delta", answered,
              frames_in);
}

void check_drained(Checks& c,
                   const std::vector<mgc::net::NetServerStats>& loops) {
  for (std::size_t i = 0; i < loops.size(); ++i) {
    c.expect_eq("loop " + std::to_string(i) +
                    " frames_out + dropped_responses vs frames_in",
                loops[i].frames_out + loops[i].dropped_responses,
                loops[i].frames_in);
  }
}

Ledger::Ledger(mgc::Vm& vm, std::uint64_t seed)
    : vm_(vm), seed_(seed), root_(vm.create_global_root()), want_(kSlots) {
  mgc::Vm::MutatorScope scope(vm, "ledger-build");
  Mutator& m = scope.mutator();
  mgc::Rng rng(seed ^ 0x6c65646765720001ULL);
  Local arr(m, ref_array::create(m, kSlots));
  for (std::size_t i = 0; i < kSlots; ++i) {
    Local cell(m, m.alloc(/*refs=*/1, /*payload_words=*/1));
    cell->set_field(0, tag(i));
    const std::uint64_t v = rng.next();
    Local child(m, m.alloc(0, 2));
    child->set_field(0, v);
    child->set_field(1, ~v);
    cell.set_ref(0, child);
    ref_array::set(m, arr.get(), i, cell.get());
    want_[i] = v;
  }
  vm.set_global_root(root_, arr.get());
}

std::uint64_t Ledger::tag(std::size_t slot) const {
  return mgc::managed::hash_u64(seed_ * 0x9e3779b97f4a7c15ULL + slot);
}

void Ledger::relink(Mutator& m, std::uint64_t round) {
  mgc::Rng rng(seed_ ^ (round * 0x2545f4914f6cdd1dULL));
  Local arr(m, vm_.global_root(root_));
  for (std::size_t i = 0; i < kSlots; ++i) {
    if (rng.below(2) != 0) continue;
    const std::uint64_t v = rng.next();
    Local child(m, m.alloc(0, 2));
    child->set_field(0, v);
    child->set_field(1, ~v);
    m.set_ref(ref_array::get(arr.get(), i), 0, child.get());
    want_[i] = v;
  }
}

void Ledger::check(Checks& c) const {
  const Obj* arr = vm_.global_root(root_);
  if (arr == nullptr || ref_array::capacity(arr) != kSlots) {
    c.fail("ledger root lost");
    return;
  }
  for (std::size_t i = 0; i < kSlots; ++i) {
    const Obj* cell = ref_array::get(arr, i);
    const std::string at = "ledger slot " + std::to_string(i);
    if (cell == nullptr || cell->field(0) != tag(i)) {
      c.fail(at + ": cell lost or overwritten");
      continue;
    }
    const Obj* child = cell->ref(0);
    if (child == nullptr || child->field(0) != want_[i] ||
        child->field(1) != ~want_[i]) {
      c.fail(at + ": child does not hold the value the native copy holds");
    }
  }
}

void Ledger::corrupt_managed(std::size_t slot) {
  Obj* cell = ref_array::get(vm_.global_root(root_), slot);
  Obj* child = cell->ref(0);
  child->set_field(0, child->field(0) ^ 1);
}

}  // namespace pb
