// Fuzz harness for the SQL front end (sql/ + workload/loader.h).
//
// Query-log lines are untrusted text, and LogLoader::AddSql runs all of
// the front end over each one: lex, the depth-bounded parse, two
// regularizations (constant-free and with constants), printing and
// feature extraction. Each input line goes through one loader. Under
// ANY input every line must be classified exactly once (SELECT,
// non-SELECT or parse error) without a crash, and the accumulated log
// must survive a .logrl round trip unchanged.
#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>

#include "util/check.h"
#include "workload/binary_log.h"
#include "workload/loader.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  std::string_view text(reinterpret_cast<const char*>(data), size);
  logr::LogLoader loader;
  std::uint64_t lines = 0;
  std::uint64_t selects = 0;
  while (!text.empty()) {
    const std::size_t eol = text.find('\n');
    const std::string_view line = text.substr(0, eol);
    text.remove_prefix(eol == std::string_view::npos ? text.size() : eol + 1);
    ++lines;
    if (loader.AddSql(line)) ++selects;
  }

  const logr::DatasetSummary s = loader.Summary("fuzz");
  LOGR_CHECK(s.num_queries == selects);
  LOGR_CHECK(s.num_queries + s.num_non_select + s.num_parse_errors == lines);
  LOGR_CHECK(s.num_distinct <= s.num_queries);
  LOGR_CHECK(s.num_distinct_no_const <= s.num_queries);
  LOGR_CHECK(s.num_distinct_conjunctive <= s.num_distinct_no_const);
  LOGR_CHECK(s.num_distinct_rewritable <= s.num_distinct_no_const);
  LOGR_CHECK(loader.log().TotalQueries() == selects);

  std::ostringstream out;
  std::string error;
  LOGR_CHECK_MSG(logr::BinaryLogWriter::Write(loader.log(), s, &out, &error),
                 error.c_str());
  const std::string bytes = out.str();
  logr::LoadedBinaryLog reloaded;
  LOGR_CHECK_MSG(
      logr::ReadBinaryLog(bytes.data(), bytes.size(), &reloaded, &error),
      error.c_str());
  std::string why;
  LOGR_CHECK_MSG(logr::SameQueryLog(reloaded.log, loader.log(), &why),
                 why.c_str());
  return 0;
}
