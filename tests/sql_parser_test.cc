#include <string>
#include <utility>

#include "gtest/gtest.h"
#include "sql/parser.h"
#include "sql/printer.h"
#include "workload/loader.h"

namespace logr::sql {
namespace {

using logr::LogLoader;

StatementPtr ParseOk(std::string_view s) {
  ParseResult r = Parse(s);
  EXPECT_TRUE(r.ok()) << "input: " << s << " error: " << r.error;
  return std::move(r.statement);
}

TEST(ParserTest, MinimalSelect) {
  auto s = ParseOk("SELECT a FROM t");
  ASSERT_EQ(s->selects.size(), 1u);
  EXPECT_EQ(s->selects[0]->items.size(), 1u);
  ASSERT_EQ(s->selects[0]->from.size(), 1u);
  EXPECT_EQ(s->selects[0]->from[0]->table_name, "t");
}

TEST(ParserTest, SelectStarAndQualifiedStar) {
  auto s = ParseOk("SELECT *, t.* FROM t");
  EXPECT_EQ(s->selects[0]->items[0].expr->kind, ExprKind::kStar);
  EXPECT_EQ(s->selects[0]->items[1].expr->kind, ExprKind::kStar);
  EXPECT_EQ(s->selects[0]->items[1].expr->table, "t");
}

TEST(ParserTest, AliasesWithAndWithoutAs) {
  auto s = ParseOk("SELECT a AS x, b y FROM t z");
  EXPECT_EQ(s->selects[0]->items[0].alias, "x");
  EXPECT_EQ(s->selects[0]->items[1].alias, "y");
  EXPECT_EQ(s->selects[0]->from[0]->alias, "z");
}

TEST(ParserTest, WhereConjunction) {
  auto s = ParseOk("SELECT a FROM t WHERE x = ? AND y != 3 AND z > 1.5");
  const Expr& w = *s->selects[0]->where;
  EXPECT_EQ(w.kind, ExprKind::kBinary);
  EXPECT_EQ(w.binary_op, BinaryOp::kAnd);
}

TEST(ParserTest, OperatorPrecedenceOrOverAnd) {
  auto s = ParseOk("SELECT a FROM t WHERE p = 1 OR q = 2 AND r = 3");
  const Expr& w = *s->selects[0]->where;
  // OR is the root: p=1 OR (q=2 AND r=3)
  EXPECT_EQ(w.binary_op, BinaryOp::kOr);
  EXPECT_EQ(w.children[1]->binary_op, BinaryOp::kAnd);
}

TEST(ParserTest, ArithmeticPrecedence) {
  auto s = ParseOk("SELECT a FROM t WHERE x = 1 + 2 * 3");
  const Expr& rhs = *s->selects[0]->where->children[1];
  EXPECT_EQ(rhs.binary_op, BinaryOp::kAdd);
  EXPECT_EQ(rhs.children[1]->binary_op, BinaryOp::kMul);
}

TEST(ParserTest, InListAndInSubquery) {
  auto s = ParseOk(
      "SELECT a FROM t WHERE x IN (1, 2, 3) AND y NOT IN (SELECT z FROM u)");
  const Expr& w = *s->selects[0]->where;
  EXPECT_EQ(w.children[0]->kind, ExprKind::kInList);
  EXPECT_EQ(w.children[0]->children.size(), 4u);  // lhs + 3 items
  EXPECT_EQ(w.children[1]->kind, ExprKind::kInSubquery);
  EXPECT_TRUE(w.children[1]->negated);
}

TEST(ParserTest, BetweenLikeIsNull) {
  auto s = ParseOk(
      "SELECT a FROM t WHERE x BETWEEN 1 AND 5 AND nm LIKE 'a%' AND "
      "z IS NOT NULL");
  const Expr& w = *s->selects[0]->where;
  // ((between AND like) AND isnull)
  EXPECT_EQ(w.children[1]->kind, ExprKind::kIsNull);
  EXPECT_TRUE(w.children[1]->negated);
  EXPECT_EQ(w.children[0]->children[0]->kind, ExprKind::kBetween);
  EXPECT_EQ(w.children[0]->children[1]->kind, ExprKind::kLike);
}

TEST(ParserTest, Joins) {
  auto s = ParseOk(
      "SELECT a FROM t1 JOIN t2 ON t1.id = t2.id LEFT JOIN t3 ON "
      "t2.id = t3.id");
  const TableRef& root = *s->selects[0]->from[0];
  EXPECT_EQ(root.kind, TableRefKind::kJoin);
  EXPECT_EQ(root.join_type, JoinType::kLeft);
  EXPECT_EQ(root.left->kind, TableRefKind::kJoin);
  EXPECT_EQ(root.left->join_type, JoinType::kInner);
}

TEST(ParserTest, DerivedTable) {
  auto s = ParseOk("SELECT a FROM (SELECT b FROM u) d WHERE a = 1");
  EXPECT_EQ(s->selects[0]->from[0]->kind, TableRefKind::kDerived);
  EXPECT_EQ(s->selects[0]->from[0]->alias, "d");
}

TEST(ParserTest, GroupByHavingOrderByLimit) {
  auto s = ParseOk(
      "SELECT a, count(*) FROM t GROUP BY a HAVING count(*) > 5 "
      "ORDER BY a DESC LIMIT 10 OFFSET 20");
  const SelectStmt& sel = *s->selects[0];
  EXPECT_EQ(sel.group_by.size(), 1u);
  ASSERT_NE(sel.having, nullptr);
  ASSERT_EQ(sel.order_by.size(), 1u);
  EXPECT_FALSE(sel.order_by[0].ascending);
  ASSERT_NE(sel.limit, nullptr);
  ASSERT_NE(sel.offset, nullptr);
}

TEST(ParserTest, UnionAndUnionAll) {
  auto s = ParseOk("SELECT a FROM t UNION SELECT b FROM u");
  EXPECT_EQ(s->selects.size(), 2u);
  EXPECT_FALSE(s->union_all);
  auto s2 = ParseOk("SELECT a FROM t UNION ALL SELECT b FROM u");
  EXPECT_TRUE(s2->union_all);
}

TEST(ParserTest, FunctionsAndCast) {
  auto s = ParseOk(
      "SELECT count(DISTINCT a), upper(name), CAST(x AS integer) FROM t");
  const auto& items = s->selects[0]->items;
  EXPECT_EQ(items[0].expr->kind, ExprKind::kFunction);
  EXPECT_TRUE(items[0].expr->distinct_arg);
  EXPECT_EQ(items[1].expr->column, "upper");
  EXPECT_EQ(items[2].expr->column, "CAST");
  EXPECT_EQ(items[2].expr->table, "integer");
}

TEST(ParserTest, CaseExpression) {
  auto s = ParseOk(
      "SELECT CASE WHEN x = 1 THEN 'a' WHEN x = 2 THEN 'b' ELSE 'c' END "
      "FROM t");
  const Expr& c = *s->selects[0]->items[0].expr;
  EXPECT_EQ(c.kind, ExprKind::kCase);
  EXPECT_EQ(c.n_when, 2u);
  EXPECT_TRUE(c.has_else);
  EXPECT_FALSE(c.has_case_operand);
}

TEST(ParserTest, ExistsAndScalarSubquery) {
  auto s = ParseOk(
      "SELECT a FROM t WHERE EXISTS (SELECT 1 FROM u) AND "
      "b = (SELECT max(x) FROM v)");
  const Expr& w = *s->selects[0]->where;
  EXPECT_EQ(w.children[0]->kind, ExprKind::kExists);
  EXPECT_EQ(w.children[1]->children[1]->kind, ExprKind::kSubquery);
}

TEST(ParserTest, SchemaQualifiedTable) {
  auto s = ParseOk("SELECT a FROM core.accounts WHERE id = ?");
  EXPECT_EQ(s->selects[0]->from[0]->table_name, "core.accounts");
}

TEST(ParserTest, ClassifiesNonSelect) {
  EXPECT_EQ(Parse("INSERT INTO t (a) VALUES (1)").kind,
            StatementKind::kInsert);
  EXPECT_EQ(Parse("UPDATE t SET a = 1").kind, StatementKind::kUpdate);
  EXPECT_EQ(Parse("DELETE FROM t").kind, StatementKind::kDelete);
  EXPECT_EQ(Parse("CREATE TABLE t (a int)").kind, StatementKind::kDdl);
  EXPECT_EQ(Parse("EXEC sp_foo 1").kind, StatementKind::kProcedureCall);
  EXPECT_EQ(Parse("CALL do_thing()").kind, StatementKind::kProcedureCall);
}

TEST(ParserTest, ReportsErrors) {
  EXPECT_EQ(Parse("SELECT FROM").kind, StatementKind::kParseError);
  EXPECT_EQ(Parse("SELECT a FROM t WHERE").kind, StatementKind::kParseError);
  EXPECT_EQ(Parse("").kind, StatementKind::kParseError);
  EXPECT_EQ(Parse("garbage @@@").kind, StatementKind::kParseError);
  EXPECT_EQ(Parse("SELECT a FROM t extra garbage ,").kind,
            StatementKind::kParseError);
}

TEST(ParserTest, TrailingSemicolonAccepted) {
  EXPECT_TRUE(Parse("SELECT a FROM t;").ok());
}

TEST(ParserTest, MySqlLimitCommaForm) {
  auto s = ParseOk("SELECT a FROM t LIMIT 20, 10");
  ASSERT_NE(s->selects[0]->limit, nullptr);
  ASSERT_NE(s->selects[0]->offset, nullptr);
  EXPECT_EQ(s->selects[0]->offset->literal_text, "20");
  EXPECT_EQ(s->selects[0]->limit->literal_text, "10");
}

// --- Depth bound (kMaxParseDepth) -----------------------------------------

std::string NestedParens(int levels) {
  return "SELECT a FROM t WHERE " + std::string(levels, '(') + "x = 1" +
         std::string(levels, ')');
}

std::string AndChain(int atoms) {
  std::string sql = "SELECT a FROM t WHERE c0 = 0";
  for (int i = 1; i < atoms; ++i) {
    sql += " AND c" + std::to_string(i) + " = " + std::to_string(i);
  }
  return sql;
}

void ExpectTooDeep(const std::string& sql) {
  ParseResult r = Parse(sql);
  EXPECT_EQ(r.kind, StatementKind::kParseError);
  EXPECT_NE(r.error.find("nests deeper than"), std::string::npos) << r.error;
}

// Each input also goes through the whole loader funnel: regularize,
// print and extract recurse once per tree level as well.
void ExpectLoadsAsSelect(const std::string& sql) {
  LogLoader loader;
  EXPECT_TRUE(loader.AddSql(sql));
  EXPECT_EQ(loader.Summary("t").num_queries, 1u);
}

TEST(ParserDepthTest, DeeplyNestedParenthesesAreACountedParseError) {
  // 20,000 levels overflowed the stack before the bound existed.
  ExpectTooDeep(NestedParens(20000));
  ExpectTooDeep(NestedParens(kMaxParseDepth + 1));
  LogLoader loader;
  EXPECT_FALSE(loader.AddSql(NestedParens(20000), 3));
  EXPECT_EQ(loader.Summary("t").num_parse_errors, 3u);
}

TEST(ParserDepthTest, LongOperatorChainIsACountedParseError) {
  // 50,000 flat AND atoms (~730 KB) parse left-deep into a tree 50,000
  // levels tall, which every later pass walked recursively.
  ExpectTooDeep(AndChain(50000));
  ExpectTooDeep(AndChain(kMaxParseDepth + 1));
  LogLoader loader;
  EXPECT_FALSE(loader.AddSql(AndChain(50000)));
  EXPECT_EQ(loader.Summary("t").num_parse_errors, 1u);
}

TEST(ParserDepthTest, JustUnderTheBoundParsesAndLoads) {
  const int levels = kMaxParseDepth - 10;
  ASSERT_TRUE(Parse(NestedParens(levels)).ok());
  ASSERT_TRUE(Parse(AndChain(levels)).ok());
  ExpectLoadsAsSelect(NestedParens(levels));
  ExpectLoadsAsSelect(AndChain(levels));
  // A prefix-operator chain nests without brackets.
  std::string nots = "SELECT a FROM t WHERE ";
  for (int i = 0; i < levels; ++i) nots += "NOT ";
  ExpectLoadsAsSelect(nots + "x = 1");
}

TEST(ParserDepthTest, ChainsInsideNestingCountTogether) {
  // Each level is a bracketed operand followed by a chain, so no single
  // chain or nesting is long, but the tree is their sum: 40 levels of
  // 50 operators is ~2,000 levels tall.
  std::string where = "x = 0";
  for (int level = 0; level < 40; ++level) {
    std::string next = "(" + where + ")";
    for (int i = 0; i < 50; ++i) next += " OR y = " + std::to_string(i);
    where = next;
  }
  ExpectTooDeep("SELECT a FROM t WHERE " + where);
  std::string joins = "SELECT a FROM t0";
  for (int i = 1; i <= kMaxParseDepth + 1; ++i) {
    joins += " JOIN t" + std::to_string(i) + " ON t" + std::to_string(i) +
             ".id = t0.id";
  }
  ExpectTooDeep(joins);
}

TEST(ParserDepthTest, LongInListStaysShallowThroughRegularization) {
  // An IN list is one node, but NOT pushdown expands it to a chain of
  // (in)equalities; with constants kept the 50,000 items stay distinct
  // (30,000 already overflowed the stack when that chain was left-deep).
  for (const char* op : {" IN (", " NOT IN ("}) {
    std::string sql = std::string("SELECT a FROM t WHERE x") + op;
    for (int i = 0; i < 50000; ++i) {
      if (i > 0) sql += ", ";
      sql += std::to_string(i);
    }
    ExpectLoadsAsSelect(sql + ")");
  }
}

// Round-trip property: Print(Parse(x)) reparses to the same canonical
// print. Parameterized over a corpus of realistic queries.
class RoundTripTest : public ::testing::TestWithParam<const char*> {};

TEST_P(RoundTripTest, PrintParsePrintIsStable) {
  auto s = ParseOk(GetParam());
  std::string printed = PrintStatement(*s);
  ParseResult again = Parse(printed);
  ASSERT_TRUE(again.ok()) << "re-parse failed for: " << printed;
  EXPECT_EQ(PrintStatement(*again.statement), printed);
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, RoundTripTest,
    ::testing::Values(
        "SELECT a FROM t",
        "SELECT DISTINCT a, b AS x FROM t u WHERE a = 1 AND b != 'z'",
        "SELECT * FROM t WHERE x IN (1, 2, 3) ORDER BY a DESC LIMIT 5",
        "SELECT a FROM t1 JOIN t2 ON t1.id = t2.id WHERE t1.x > 0",
        "SELECT a FROM (SELECT b AS a FROM u) d",
        "SELECT count(DISTINCT a), sum(b) FROM t GROUP BY c HAVING "
        "count(DISTINCT a) > 2",
        "SELECT a FROM t WHERE x BETWEEN 1 AND 5 OR y IS NULL",
        "SELECT a FROM t WHERE NOT (p = 1 OR q = 2)",
        "SELECT CASE WHEN a = 1 THEN 'x' ELSE 'y' END FROM t",
        "SELECT a FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.id = t.id)",
        "SELECT a FROM t UNION SELECT b FROM u",
        "SELECT a || '-' || b FROM t WHERE c LIKE 'x%' ESCAPE '!'",
        "SELECT -x + 3 * (y - 2) FROM t WHERE a >= ? AND b <= ?",
        "SELECT upper(name) FROM suggested_contacts WHERE chat_id != ? "
        "ORDER BY upper(name) LIMIT 10",
        "SELECT a - (b - c) FROM t",
        "SELECT a / (b * c) FROM t",
        "SELECT a FROM t WHERE x = (y = 1)"));

// Brackets that change the tree survive printing: an equal-precedence
// right operand and a comparison nested in a comparison. Flat AND/OR
// chains and left-associative runs still print without them.
TEST(PrinterTest, KeepsBracketsTheParserNeeds) {
  const std::pair<const char*, const char*> cases[] = {
      {"SELECT a - (b - c) FROM t", "SELECT a - (b - c) FROM t"},
      {"SELECT a / (b * c) FROM t", "SELECT a / (b * c) FROM t"},
      {"SELECT a FROM t WHERE x = (y = 1)",
       "SELECT a FROM t WHERE x = (y = 1)"},
      {"SELECT a FROM t WHERE (x = y) = 1",
       "SELECT a FROM t WHERE (x = y) = 1"},
      {"SELECT (a - b) - c FROM t", "SELECT a - b - c FROM t"},
      {"SELECT a FROM t WHERE p = 1 AND (q = 2 AND r = 3)",
       "SELECT a FROM t WHERE p = 1 AND q = 2 AND r = 3"},
  };
  for (const auto& [sql, expected] : cases) {
    EXPECT_EQ(PrintStatement(*ParseOk(sql)), expected) << sql;
  }
}

}  // namespace
}  // namespace logr::sql
