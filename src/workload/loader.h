// Raw-SQL-to-QueryLog loading funnel with Table-1 statistics.
//
// The paper's bank log contains 73M operations of which 58M are stored
// procedures, 13M are unparseable, and 1.25M are valid SELECTs (Sec. 7).
// LogLoader reproduces that funnel: every input line is classified
// (SELECT / non-SELECT / parse error), regularized, feature-extracted, and
// accumulated, with counters for each stage and for the distinct-query /
// distinct-feature statistics reported in Table 1.
#ifndef LOGR_WORKLOAD_LOADER_H_
#define LOGR_WORKLOAD_LOADER_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_set>

#include "sql/normalizer.h"
#include "workload/extractor.h"
#include "workload/query_log.h"

namespace logr {

/// Table 1 of the paper, computed over everything fed to a LogLoader.
struct DatasetSummary {
  std::string name;
  std::uint64_t num_queries = 0;              // valid SELECTs
  std::uint64_t num_non_select = 0;           // stored procs / DML / DDL
  std::uint64_t num_parse_errors = 0;
  std::uint64_t num_distinct = 0;             // distinct with constants
  std::uint64_t num_distinct_no_const = 0;    // distinct w/o constants
  std::uint64_t num_distinct_conjunctive = 0; // conjunctive, w/o constants
  std::uint64_t num_distinct_rewritable = 0;  // rewritable, w/o constants
  std::uint64_t max_multiplicity = 0;
  std::uint64_t num_features = 0;             // with constants
  std::uint64_t num_features_no_const = 0;
  double avg_features_per_query = 0.0;
};

/// Streaming loader: feed SQL strings, then take the QueryLog + summary.
class LogLoader {
 public:
  struct Options {
    sql::RegularizeOptions regularize;  // anonymize_constants applies to
                                        // the *primary* (w/o const) log
    ExtractOptions extract;
  };

  LogLoader() : LogLoader(Options()) {}
  explicit LogLoader(Options opts);

  /// Classifies, regularizes and accumulates one statement; `count`
  /// copies are recorded. Returns true if it was a valid SELECT.
  /// `count == 0` records nothing — not even classification counters —
  /// and returns false: a zero-multiplicity log record carries no
  /// information, and counting its template as "distinct" would skew
  /// every Table-1 statistic.
  bool AddSql(std::string_view raw_sql, std::uint64_t count = 1);

  /// Serializes the accumulated log plus the Table-1 summary (under
  /// `dataset_name`) as a logr-log v1 binary file (.logrl; see
  /// workload/binary_log.h). Reloading it skips the SQL parse stage.
  bool WriteBinary(const std::string& path, const std::string& dataset_name,
                   std::string* error) const;

  /// The accumulated constant-free log (the object all compression
  /// experiments run on).
  const QueryLog& log() const { return log_; }
  QueryLog TakeLog() { return std::move(log_); }

  /// Table-1 statistics for everything added so far.
  DatasetSummary Summary(std::string name) const;

 private:
  Options opts_;
  QueryLog log_;
  // Canonical statements and feature texts seen so far; only their
  // counts are reported.
  std::array<std::unordered_set<std::string>, kNumFeatureClauses>
      distinct_features_with_const_;
  std::unordered_set<std::string> distinct_with_const_;
  std::unordered_set<std::string> distinct_no_const_;
  std::unordered_set<std::string> distinct_conjunctive_;
  std::unordered_set<std::string> distinct_rewritable_;
  std::uint64_t num_queries_ = 0;
  std::uint64_t num_non_select_ = 0;
  std::uint64_t num_parse_errors_ = 0;
};

}  // namespace logr

#endif  // LOGR_WORKLOAD_LOADER_H_
