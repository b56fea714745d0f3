#include "bench_common.h"

#include <cstdio>
#include <cstdlib>
#include <string>

namespace logr::bench {

BankLogOptions BankOptions() {
  BankLogOptions opts;
  opts.num_templates *= EnvSize("LOGR_BANK_SCALE", 1);
  return opts;
}

std::size_t EnvSize(const char* name, std::size_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  long long parsed = std::atoll(v);
  return parsed > 0 ? static_cast<std::size_t>(parsed) : fallback;
}

ClusteringMethod EnvMethod(const char* name, ClusteringMethod fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  ClusteringMethod m;
  if (!ParseClusteringMethod(v, &m)) {
    std::fprintf(stderr,
                 "%s=%s is not a clustering method (try kmeans, manhattan, "
                 "minkowski, hamming, hierarchical)\n",
                 name, v);
    std::exit(2);
  }
  return m;
}

void Banner(const std::string& artifact, const std::string& description) {
  std::printf("=== %s ===\n%s\n\n", artifact.c_str(), description.c_str());
}

LogLoader LoadPocketLoader() {
  return LoadEntries(GeneratePocketDataLog(PocketDataOptions()));
}

LogLoader LoadBankLoader() {
  return LoadEntries(GenerateBankLog(BankOptions()));
}

QueryLog LoadPocketLog() { return LoadPocketLoader().TakeLog(); }

QueryLog LoadBankLog() { return LoadBankLoader().TakeLog(); }

namespace {

BinaryDataset FromTable(const CategoricalTable& t, std::string name) {
  BinaryDataset d;
  d.rows = t.Binarize();
  d.labels = t.labels;
  d.n_features = t.NumOneHotFeatures();
  d.distinct_features = t.NumDistinctPresentFeatures();
  d.distinct_rows = t.NumDistinctRows();
  d.name = std::move(name);
  return d;
}

}  // namespace

BinaryDataset LoadIncome() {
  IncomeOptions opts;
  opts.num_rows = EnvSize("LOGR_ROWS", 4000);
  return FromTable(GenerateIncomeData(opts), "Income");
}

BinaryDataset LoadMushroom() {
  MushroomOptions opts;
  opts.num_rows = EnvSize("LOGR_ROWS", 8124) < 8124
                      ? EnvSize("LOGR_ROWS", 8124)
                      : 8124;
  return FromTable(GenerateMushroomData(opts), "Mushroom");
}

}  // namespace logr::bench
