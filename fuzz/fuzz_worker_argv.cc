// Fuzz harness for the distributed worker argv wire format
// (core/distributed.h).
//
// The coordinator and `logr_cli worker` speak argv: WorkerArgv
// serializes a DistributedWorkerOptions, ParseWorkerArgv deserializes
// it in the (possibly differently-versioned) worker binary. The input
// is split on newlines into argv entries, so the fuzzer mutates flag
// order, values, and arity freely. Accepted parses must round-trip:
// WorkerArgv(parsed) reparsed yields the same options.
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/distributed.h"
#include "util/check.h"

namespace {

bool SameOptions(const logr::DistributedWorkerOptions& a,
                 const logr::DistributedWorkerOptions& b) {
  const logr::LogROptions& x = a.compression;
  const logr::LogROptions& y = b.compression;
  return a.shard_path == b.shard_path && a.out_path == b.out_path &&
         x.num_clusters == y.num_clusters && x.num_shards == y.num_shards &&
         logr::BackendName(x) == logr::BackendName(y) && x.seed == y.seed &&
         x.n_init == y.n_init && a.shard_index == b.shard_index &&
         a.attempt == b.attempt;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  std::vector<std::string> args;
  std::string current;
  for (std::size_t i = 0; i < size; ++i) {
    const char c = static_cast<char>(data[i]);
    if (c == '\n') {
      args.push_back(current);
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  if (!current.empty()) args.push_back(current);

  logr::DistributedWorkerOptions opts;
  std::string error;
  if (!logr::ParseWorkerArgv(args, &opts, &error)) {
    LOGR_CHECK(!error.empty());
    return 0;
  }

  // Round-trip: serialize the accepted options and reparse.
  logr::DistributedWorkerOptions reparsed;
  LOGR_CHECK(logr::ParseWorkerArgv(logr::WorkerArgv(opts), &reparsed, &error));
  LOGR_CHECK(SameOptions(opts, reparsed));
  return 0;
}
