// Tests for the distributed scatter/gather coordinator
// (core/distributed.h): bit-identity of the process-per-shard path with
// in-process sharded compression and the offline summary merge on the
// paper-shaped generators, worker crash-retry (SIGKILL mid-job loses an
// attempt, never the job), coordinator resume from a warm spool, and
// the in-process fallback once a shard's retries are spent.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/distributed.h"
#include "core/logr_compressor.h"
#include "core/serialization.h"
#include "core/sharded.h"
#include "data/bank.h"
#include "data/pocketdata.h"
#include "data/sql_log.h"
#include "gtest/gtest.h"

namespace logr {
namespace {

QueryLog PocketLog() {
  PocketDataOptions gen;
  gen.num_distinct = 160;
  gen.total_queries = 50000;
  return LoadEntries(GeneratePocketDataLog(gen)).TakeLog();
}

QueryLog BankLog() {
  BankLogOptions gen;
  gen.num_templates = 180;
  gen.total_queries = 60000;
  gen.noise_entries = 15;
  return LoadEntries(GenerateBankLog(gen)).TakeLog();
}

std::string UniqueDir(const std::string& tag) {
  return ::testing::TempDir() + "logr_dist_" + tag + "_" +
         std::to_string(::getpid());
}

/// Splits `log` the way `logr_cli split` does (WriteShardFiles — the
/// same PartitionIndices policy the in-process sharded path uses) into
/// one .logrl per shard under a fresh directory.
std::vector<std::string> WriteShards(const QueryLog& log,
                                     std::size_t num_shards,
                                     const std::string& tag) {
  std::vector<ShardFile> written;
  std::string error;
  EXPECT_TRUE(WriteShardFiles(log, num_shards, ShardPolicy::kHashDistinct,
                              UniqueDir(tag), tag, &written, &error))
      << error;
  std::vector<std::string> paths;
  for (const ShardFile& file : written) paths.push_back(file.path);
  return paths;
}

std::string Bytes(const Vocabulary& vocab, const WorkloadModel& model) {
  std::ostringstream out;
  std::string error;
  EXPECT_TRUE(WriteSummary(vocab, model, &out, &error)) << error;
  return out.str();
}

DistributedOptions JobOptions(std::size_t num_clusters,
                                   const std::string& spool_tag) {
  DistributedOptions opts;
  opts.num_workers = 2;
  opts.compression.num_clusters = num_clusters;
  opts.compression.encoder = "naive";
  opts.spool_dir = UniqueDir(spool_tag);
  return opts;
}

/// The reference result every distributed run must reproduce bit for
/// bit: the in-process sharded compression of the same split.
std::string ShardedReferenceBytes(const QueryLog& log,
                                  const DistributedOptions& dist,
                                  std::size_t num_shards) {
  LogROptions opts = dist.compression;
  opts.num_shards = num_shards;
  LogRSummary sharded = ShardedCompressor(log, opts).Run();
  return Bytes(log.vocabulary(), sharded.Model());
}

TEST(DistributedTest, MatchesInProcessShardingBitForBitPocket) {
  QueryLog log = PocketLog();
  const std::vector<std::string> shards = WriteShards(log, 4, "pocket_id");
  DistributedOptions opts = JobOptions(6, "pocket_id_spool");
  DistributedResult result;
  std::string error;
  ASSERT_TRUE(CompressDistributed(shards, opts, &result, &error)) << error;

  EXPECT_EQ(result.shards.size(), shards.size());
  EXPECT_EQ(result.workers_launched, shards.size());
  EXPECT_EQ(result.workers_failed, 0u);
  for (const ShardReport& r : result.shards) {
    EXPECT_EQ(r.attempts, 1) << r.shard_path;
    EXPECT_FALSE(r.reused) << r.shard_path;
    EXPECT_FALSE(r.inprocess) << r.shard_path;
  }
  // Worker processes + spool files + merge must equal the one-process
  // sharded pipeline exactly — same bytes, not approximately.
  EXPECT_EQ(Bytes(result.summary.vocabulary, *result.summary.model),
            ShardedReferenceBytes(log, opts, 4));

  // Third leg of the identity: loading the spooled per-shard summaries
  // and merging offline reproduces the same bytes again.
  std::vector<PersistedSummary> parts(result.shards.size());
  for (std::size_t s = 0; s < result.shards.size(); ++s) {
    ASSERT_TRUE(ReadSummaryFile(result.shards[s].summary_path, &parts[s],
                                &error))
        << error;
  }
  PersistedSummary merged;
  ASSERT_TRUE(
      MergeSummaries(parts, 6, opts.compression, &merged, &error))
      << error;
  EXPECT_EQ(Bytes(merged.vocabulary, *merged.model),
            ShardedReferenceBytes(log, opts, 4));
}

TEST(DistributedTest, MatchesInProcessShardingBitForBitBank) {
  QueryLog log = BankLog();
  const std::vector<std::string> shards = WriteShards(log, 3, "bank_id");
  DistributedOptions opts = JobOptions(5, "bank_id_spool");
  DistributedResult result;
  std::string error;
  ASSERT_TRUE(CompressDistributed(shards, opts, &result, &error)) << error;
  const std::string kmeans_bytes =
      Bytes(result.summary.vocabulary, *result.summary.model);
  EXPECT_EQ(kmeans_bytes, ShardedReferenceBytes(log, opts, 3));

  // Option forwarding: a non-default method, seed and n_init must reach
  // every shard fit in all three legs (workers, in-process sharding,
  // offline merge of the spooled parts).
  opts = JobOptions(5, "bank_id_hier_spool");
  opts.compression.method = ClusteringMethod::kHierarchicalAverage;
  opts.compression.seed = 91;
  opts.compression.n_init = 2;
  ASSERT_TRUE(CompressDistributed(shards, opts, &result, &error)) << error;
  const std::string reference =
      ShardedReferenceBytes(log, opts, 3);
  EXPECT_EQ(Bytes(result.summary.vocabulary, *result.summary.model),
            reference);
  EXPECT_NE(reference, kmeans_bytes);
  std::vector<PersistedSummary> parts(result.shards.size());
  for (std::size_t s = 0; s < result.shards.size(); ++s) {
    ASSERT_TRUE(ReadSummaryFile(result.shards[s].summary_path, &parts[s],
                                &error))
        << error;
  }
  PersistedSummary merged;
  ASSERT_TRUE(MergeSummaries(parts, 5, opts.compression, &merged, &error))
      << error;
  EXPECT_EQ(Bytes(merged.vocabulary, *merged.model), reference);
}

TEST(DistributedTest, WorkerKilledMidJobRetriesToIdenticalSummary) {
  QueryLog log = PocketLog();
  const std::vector<std::string> shards = WriteShards(log, 4, "crash");

  // Clean run first (the reference), then a run where shard 2's first
  // worker SIGKILLs itself mid-job via the fault-injection hook.
  DistributedResult clean;
  std::string error;
  ASSERT_TRUE(CompressDistributed(shards, JobOptions(6, "crash_clean"),
                                  &clean, &error))
      << error;

  ASSERT_EQ(::setenv(kDistributedCrashEnv, "2", 1), 0);
  DistributedResult crashed;
  const bool ok = CompressDistributed(
      shards, JobOptions(6, "crash_spool"), &crashed, &error);
  ::unsetenv(kDistributedCrashEnv);
  ASSERT_TRUE(ok) << error;

  // The killed attempt costs one retry on that shard — nothing else.
  EXPECT_EQ(crashed.workers_failed, 1u);
  EXPECT_EQ(crashed.workers_launched, shards.size() + 1);
  EXPECT_EQ(crashed.shards[2].attempts, 2);
  EXPECT_FALSE(crashed.shards[2].inprocess);
  for (std::size_t s = 0; s < crashed.shards.size(); ++s) {
    if (s != 2) {
      EXPECT_EQ(crashed.shards[s].attempts, 1) << s;
    }
  }
  EXPECT_EQ(Bytes(crashed.summary.vocabulary, *crashed.summary.model),
            Bytes(clean.summary.vocabulary, *clean.summary.model));
}

TEST(DistributedTest, ResumeReusesWarmSpool) {
  QueryLog log = PocketLog();
  const std::vector<std::string> shards = WriteShards(log, 4, "resume");
  DistributedOptions opts = JobOptions(6, "resume_spool");

  DistributedResult first;
  std::string error;
  ASSERT_TRUE(CompressDistributed(shards, opts, &first, &error)) << error;
  const std::string reference =
      Bytes(first.summary.vocabulary, *first.summary.model);

  // Simulate a job killed after spooling all but one shard: drop one
  // summary and re-run the coordinator over the warm spool.
  ASSERT_EQ(std::remove(first.shards[1].summary_path.c_str()), 0);
  DistributedResult resumed;
  ASSERT_TRUE(CompressDistributed(shards, opts, &resumed, &error)) << error;
  EXPECT_EQ(resumed.workers_launched, 1u);
  for (std::size_t s = 0; s < resumed.shards.size(); ++s) {
    EXPECT_EQ(resumed.shards[s].reused, s != 1) << s;
    EXPECT_EQ(resumed.shards[s].attempts, s == 1 ? 1 : 0) << s;
  }
  EXPECT_EQ(Bytes(resumed.summary.vocabulary, *resumed.summary.model),
            reference);

  // reuse_spool = false must ignore the warm spool and recompress
  // everything — same bytes, all fresh attempts.
  opts.reuse_spool = false;
  DistributedResult cold;
  ASSERT_TRUE(CompressDistributed(shards, opts, &cold, &error)) << error;
  EXPECT_EQ(cold.workers_launched, shards.size());
  for (const ShardReport& r : cold.shards) EXPECT_FALSE(r.reused);
  EXPECT_EQ(Bytes(cold.summary.vocabulary, *cold.summary.model), reference);
}

TEST(DistributedTest, ExhaustedRetriesFallBackInProcess) {
  QueryLog log = PocketLog();
  const std::vector<std::string> shards = WriteShards(log, 2, "fallback");
  DistributedOptions opts = JobOptions(4, "fallback_spool");
  opts.max_retries = 0;

  // Shard 0's only worker attempt SIGKILLs itself and no retry is left:
  // the coordinator's last resort compresses it in-process, and the job
  // still finishes with the sharded reference bytes.
  ASSERT_EQ(::setenv(kDistributedCrashEnv, "0", 1), 0);
  DistributedResult result;
  std::string error;
  const bool ok = CompressDistributed(shards, opts, &result, &error);

  // With the fallback disabled the job must fail loudly instead.
  opts.inprocess_fallback = false;
  opts.spool_dir = UniqueDir("fallback_spool2");
  DistributedResult failed;
  std::string failed_error;
  const bool failed_ok =
      CompressDistributed(shards, opts, &failed, &failed_error);
  ::unsetenv(kDistributedCrashEnv);

  ASSERT_TRUE(ok) << error;
  EXPECT_EQ(result.workers_launched, shards.size());
  EXPECT_EQ(result.workers_failed, 1u);
  EXPECT_TRUE(result.shards[0].inprocess);
  EXPECT_EQ(result.shards[0].attempts, 2);
  EXPECT_FALSE(result.shards[1].inprocess);
  EXPECT_EQ(result.shards[1].attempts, 1);
  EXPECT_EQ(Bytes(result.summary.vocabulary, *result.summary.model),
            ShardedReferenceBytes(log, opts, 2));

  EXPECT_FALSE(failed_ok);
  EXPECT_FALSE(failed_error.empty());
}

TEST(DistributedTest, WorkerRejectsMissingShardFile) {
  DistributedWorkerOptions opts;
  opts.shard_path = UniqueDir("absent") + "/missing.logrl";
  opts.out_path = UniqueDir("absent") + "/missing.summary";
  opts.compression.num_clusters = 2;
  std::string error;
  EXPECT_FALSE(RunDistributedWorker(opts, &error));
  EXPECT_FALSE(error.empty());
}

TEST(DistributedTest, WorkerSpoolsALoadableSummary) {
  QueryLog log = PocketLog();
  const std::vector<std::string> shards = WriteShards(log, 2, "spool_one");
  DistributedWorkerOptions opts;
  opts.shard_path = shards[0];
  opts.out_path = UniqueDir("spool_one") + "/one.summary";
  opts.compression.num_clusters = 4;
  std::string error;
  ASSERT_TRUE(RunDistributedWorker(opts, &error)) << error;
  PersistedSummary loaded;
  ASSERT_TRUE(ReadSummaryFile(opts.out_path, &loaded, &error)) << error;
  ASSERT_NE(loaded.model, nullptr);
  EXPECT_EQ(loaded.encoder, "naive");
  EXPECT_LE(loaded.model->NumComponents(), 4u);
  EXPECT_GT(loaded.model->LogSize(), 0u);
}

}  // namespace
}  // namespace logr
