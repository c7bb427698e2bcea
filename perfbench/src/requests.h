// The benchmark's request generator: one seeded stream per client, keys
// drawn from YCSB's scrambled zipfian over the loaded rows
// (support/rng.h), reads with probability read_share, updates otherwise.
#pragma once

#include <cstdint>

#include "kvstore/server.h"
#include "support/rng.h"

namespace pb {

class RequestStream {
 public:
  RequestStream(std::uint64_t seed, int client, std::uint64_t rows,
                double read_share, std::size_t value_len)
      : rng_(seed * 1000003 + static_cast<std::uint64_t>(client)),
        zipf_(rows),
        read_share_(read_share),
        value_len_(value_len) {}

  mgc::kv::Request next() {
    mgc::kv::Request req;
    if (rng_.unit() < read_share_) {
      req.op = mgc::kv::OpType::kRead;
    } else {
      req.op = mgc::kv::OpType::kUpdate;
      req.value_len = value_len_;
    }
    req.key = zipf_.sample(rng_);
    return req;
  }

 private:
  mgc::Rng rng_;
  mgc::ScrambledZipfian zipf_;
  double read_share_;
  std::size_t value_len_;
};

}  // namespace pb
