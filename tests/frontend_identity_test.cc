// Byte-identity locks on the SQL front end (parse -> regularize -> print
// -> extract). The expected values below and in
// tests/testdata/frontend.golden were recorded before the front end was
// reworked for speed; any change to them changes the .logrl bytes every
// downstream stage consumes, so they may only move together with a
// deliberate change to the canonical form.
//
//   * FrontendGolden: every line of tests/testdata/frontend.sql rendered
//     as its classification, the constant-free and with-constants
//     canonical statements (PrintStatement of Regularize) and both
//     feature lists (ListFeatures, extended clauses). On a mismatch the
//     rendering is written to frontend.golden.actual in the working
//     directory so a deliberate change can be reviewed and checked in.
//   * LogrlDigest: FNV-1a 64 of the .logrl bytes LogLoader +
//     BinaryLogWriter produce for the bank and PocketData generators at
//     seed 1 (paper scale).
#include <fstream>
#include <sstream>
#include <string>

#include "data/bank.h"
#include "data/pocketdata.h"
#include "data/sql_log.h"
#include "gtest/gtest.h"
#include "sql/normalizer.h"
#include "sql/parser.h"
#include "sql/printer.h"
#include "workload/binary_log.h"
#include "workload/extractor.h"

namespace logr {
namespace {

const char* KindName(sql::StatementKind kind) {
  switch (kind) {
    case sql::StatementKind::kSelect: return "select";
    case sql::StatementKind::kInsert: return "insert";
    case sql::StatementKind::kUpdate: return "update";
    case sql::StatementKind::kDelete: return "delete";
    case sql::StatementKind::kDdl: return "ddl";
    case sql::StatementKind::kProcedureCall: return "procedure_call";
    case sql::StatementKind::kOther: return "other";
    case sql::StatementKind::kParseError: return "parse_error";
  }
  return "?";
}

void RenderPass(const sql::Statement& stmt, bool anonymize, const char* tag,
                std::ostream* out) {
  sql::RegularizeOptions opts;
  opts.anonymize_constants = anonymize;
  sql::RegularizeInfo info;
  sql::StatementPtr regular = sql::Regularize(stmt, opts, &info);
  *out << tag << ": " << sql::PrintStatement(*regular) << "\n";
  *out << tag << "_flags: conjunctive=" << info.conjunctive
       << " rewritable=" << info.rewritable << "\n";
  ExtractOptions extract;
  extract.extended_clauses = true;
  for (const Feature& f : ListFeatures(*regular, extract)) {
    *out << tag << "_feature: " << f.ToString() << "\n";
  }
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(in)) << "missing fixture: " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(FrontendGolden, CanonicalFormsAndFeaturesUnchanged) {
  const std::string dir = LOGR_TESTDATA_DIR;
  std::istringstream in(ReadFile(dir + "/frontend.sql"));
  std::ostringstream actual;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line.rfind("-- ", 0) == 0) continue;
    sql::ParseResult parsed = sql::Parse(line);
    actual << "sql: " << line << "\n";
    actual << "kind: " << KindName(parsed.kind) << "\n";
    if (parsed.ok()) {
      RenderPass(*parsed.statement, /*anonymize=*/true, "free", &actual);
      RenderPass(*parsed.statement, /*anonymize=*/false, "const", &actual);
    }
    actual << "\n";
  }
  const std::string expected = ReadFile(dir + "/frontend.golden");
  if (actual.str() != expected) {
    std::ofstream("frontend.golden.actual", std::ios::binary) << actual.str();
  }
  EXPECT_EQ(actual.str(), expected)
      << "rendering written to frontend.golden.actual";
}

struct Digest {
  std::uint64_t fnv = 0;
  std::size_t bytes = 0;
};

Digest LogrlDigest(const std::vector<LogEntry>& entries, const char* name) {
  LogLoader loader = LoadEntries(entries);
  std::ostringstream out;
  std::string error;
  EXPECT_TRUE(BinaryLogWriter::Write(loader.log(), loader.Summary(name),
                                     &out, &error))
      << error;
  const std::string bytes = out.str();
  return {BinaryLogChecksum(bytes.data(), bytes.size()), bytes.size()};
}

TEST(LogrlDigest, BankSeed1) {
  BankLogOptions opts;
  opts.seed = 1;
  const Digest d = LogrlDigest(GenerateBankLog(opts), "bank");
  EXPECT_EQ(d.bytes, 749800u);
  EXPECT_EQ(d.fnv, 15329515514881239114ull);
}

TEST(LogrlDigest, PocketDataSeed1) {
  PocketDataOptions opts;
  opts.seed = 1;
  const Digest d = LogrlDigest(GeneratePocketDataLog(opts), "pocketdata");
  EXPECT_EQ(d.bytes, 183478u);
  EXPECT_EQ(d.fnv, 10689992181901527427ull);
}

}  // namespace
}  // namespace logr
