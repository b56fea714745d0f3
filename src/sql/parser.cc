#include "sql/parser.h"

#include <algorithm>
#include <utility>

#include "sql/lexer.h"
#include "util/string_util.h"

namespace logr::sql {

namespace {

/// Recursive-descent parser over the token stream.
class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  ParseResult ParseStatement() {
    ParseResult result;
    if (Check(TokenType::kError)) {
      return Fail(Peek().text);
    }
    if (Check(TokenType::kEndOfInput)) {
      return Fail("empty statement");
    }
    // Classify non-SELECT statements without full parsing.
    if (Peek().type == TokenType::kKeyword) {
      const std::string& kw = Peek().text;
      StatementKind kind = StatementKind::kOther;
      if (kw == "INSERT") kind = StatementKind::kInsert;
      else if (kw == "UPDATE") kind = StatementKind::kUpdate;
      else if (kw == "DELETE") kind = StatementKind::kDelete;
      else if (kw == "CREATE" || kw == "DROP" || kw == "ALTER")
        kind = StatementKind::kDdl;
      else if (kw == "EXEC" || kw == "EXECUTE" || kw == "CALL")
        kind = StatementKind::kProcedureCall;
      if (kind != StatementKind::kOther) {
        result.kind = kind;
        return result;
      }
    }
    if (!Peek().IsKeyword("SELECT") && !Peek().IsOperator("(")) {
      return Fail("expected SELECT");
    }

    auto stmt = std::make_unique<Statement>();
    SelectPtr first = ParseSelectBlock();
    if (!first) return Fail(error_);
    stmt->selects.push_back(std::move(first));
    while (Peek().IsKeyword("UNION")) {
      Advance();
      if (Peek().IsKeyword("ALL")) {
        stmt->union_all = true;
        Advance();
      }
      SelectPtr next = ParseSelectBlock();
      if (!next) return Fail(error_);
      stmt->selects.push_back(std::move(next));
    }
    if (Peek().IsOperator(";")) Advance();
    if (!Check(TokenType::kEndOfInput)) {
      return Fail(StrFormat("unexpected trailing token '%s'",
                            Peek().text.c_str()));
    }
    result.kind = StatementKind::kSelect;
    result.statement = std::move(stmt);
    return result;
  }

 private:
  const Token& Peek(std::size_t ahead = 0) const {
    std::size_t i = pos_ + ahead;
    if (i >= tokens_.size()) return tokens_.back();
    return tokens_[i];
  }
  Token& Advance() {
    return tokens_[pos_ >= tokens_.size() ? tokens_.size() - 1 : pos_++];
  }
  // Consumes the current token and moves its text out; the parser never
  // looks back at a consumed token.
  std::string TakeText() { return std::move(Advance().text); }
  bool Check(TokenType t) const { return Peek().type == t; }

  // --- Depth bound (kMaxParseDepth) ------------------------------------
  // `depth_` counts the recursive constructs being parsed (brackets,
  // subqueries, prefix operators); `height_` is the height of the tree
  // the last Parse* call returned, which operator chains grow without
  // recursing. Both stay within kMaxParseDepth.

  // Scope of one recursive construct.
  class Nest {
   public:
    explicit Nest(Parser* p) : p_(p) { ++p_->depth_; }
    ~Nest() { --p_->depth_; }
    Nest(const Nest&) = delete;
    Nest& operator=(const Nest&) = delete;

   private:
    Parser* p_;
  };

  // False, with an error, when `levels` is past the bound.
  bool WithinBound(int levels) {
    if (levels <= kMaxParseDepth) return true;
    SetError(StrFormat("statement nests deeper than %d levels",
                       kMaxParseDepth));
    return false;
  }

  // Records the height of the tree just built; false past the bound.
  bool SetHeight(int h) {
    height_ = h;
    return WithinBound(h);
  }

  bool Accept(std::string_view kw) {
    if (Peek().IsKeyword(kw)) {
      Advance();
      return true;
    }
    return false;
  }
  bool AcceptOp(std::string_view op) {
    if (Peek().IsOperator(op)) {
      Advance();
      return true;
    }
    return false;
  }
  bool Expect(std::string_view kw) {
    if (Accept(kw)) return true;
    SetError(StrFormat("expected %s, found '%s'", std::string(kw).c_str(),
                       Peek().text.c_str()));
    return false;
  }
  bool ExpectOp(std::string_view op) {
    if (AcceptOp(op)) return true;
    SetError(StrFormat("expected '%s', found '%s'", std::string(op).c_str(),
                       Peek().text.c_str()));
    return false;
  }

  void SetError(std::string msg) {
    if (error_.empty()) {
      error_ = std::move(msg);
      error_pos_ = Peek().position;
    }
  }

  ParseResult Fail(std::string msg) {
    ParseResult r;
    r.kind = StatementKind::kParseError;
    r.error = msg.empty() ? "parse error" : std::move(msg);
    r.error_position = error_pos_ ? error_pos_ : Peek().position;
    return r;
  }

  // --- SELECT ---------------------------------------------------------

  SelectPtr ParseSelectBlock() {
    Nest nest(this);
    if (!WithinBound(depth_)) return nullptr;
    // Parenthesized select block: ( SELECT ... )
    if (Peek().IsOperator("(") && Peek(1).IsKeyword("SELECT")) {
      Advance();
      SelectPtr inner = ParseSelectBlock();
      if (!inner) return nullptr;
      if (!ExpectOp(")")) return nullptr;
      return inner;
    }
    if (!Expect("SELECT")) return nullptr;
    auto select = std::make_unique<SelectStmt>();
    int h = 0;  // tallest clause so far
    auto parse_expr = [&]() {
      ExprPtr e = ParseExpr();
      if (e) h = std::max(h, height_);
      return e;
    };
    if (Accept("DISTINCT")) {
      select->distinct = true;
    } else {
      Accept("ALL");
    }
    // Select list.
    do {
      SelectItem item;
      item.expr = parse_expr();
      if (!item.expr) return nullptr;
      if (Accept("AS")) {
        if (!Check(TokenType::kIdentifier)) {
          SetError("expected alias after AS");
          return nullptr;
        }
        item.alias = TakeText();
      } else if (Check(TokenType::kIdentifier)) {
        item.alias = TakeText();
      }
      select->items.push_back(std::move(item));
    } while (AcceptOp(","));

    if (Accept("FROM")) {
      do {
        TableRefPtr t = ParseTableRef();
        if (!t) return nullptr;
        h = std::max(h, height_);
        select->from.push_back(std::move(t));
      } while (AcceptOp(","));
    }
    if (Accept("WHERE")) {
      select->where = parse_expr();
      if (!select->where) return nullptr;
    }
    if (Peek().IsKeyword("GROUP")) {
      Advance();
      if (!Expect("BY")) return nullptr;
      do {
        ExprPtr g = parse_expr();
        if (!g) return nullptr;
        select->group_by.push_back(std::move(g));
      } while (AcceptOp(","));
    }
    if (Accept("HAVING")) {
      select->having = parse_expr();
      if (!select->having) return nullptr;
    }
    if (Peek().IsKeyword("ORDER")) {
      Advance();
      if (!Expect("BY")) return nullptr;
      do {
        OrderItem o;
        o.expr = parse_expr();
        if (!o.expr) return nullptr;
        if (Accept("DESC")) {
          o.ascending = false;
        } else {
          Accept("ASC");
        }
        select->order_by.push_back(std::move(o));
      } while (AcceptOp(","));
    }
    if (Accept("LIMIT")) {
      select->limit = parse_expr();
      if (!select->limit) return nullptr;
      if (Accept("OFFSET")) {
        select->offset = parse_expr();
        if (!select->offset) return nullptr;
      } else if (AcceptOp(",")) {  // LIMIT offset, count (MySQL form)
        select->offset = std::move(select->limit);
        select->limit = parse_expr();
        if (!select->limit) return nullptr;
      }
    }
    if (!SetHeight(h + 1)) return nullptr;
    return select;
  }

  // --- Table references -------------------------------------------------

  TableRefPtr ParseTableRef() {
    TableRefPtr left = ParseTablePrimary();
    if (!left) return nullptr;
    int h = height_;
    for (;;) {
      JoinType jt;
      bool is_join = false;
      if (Peek().IsKeyword("JOIN")) {
        jt = JoinType::kInner;
        is_join = true;
        Advance();
      } else if (Peek().IsKeyword("INNER") && Peek(1).IsKeyword("JOIN")) {
        jt = JoinType::kInner;
        is_join = true;
        Advance();
        Advance();
      } else if (Peek().IsKeyword("CROSS") && Peek(1).IsKeyword("JOIN")) {
        jt = JoinType::kCross;
        is_join = true;
        Advance();
        Advance();
      } else if (Peek().IsKeyword("LEFT") || Peek().IsKeyword("RIGHT") ||
                 Peek().IsKeyword("FULL")) {
        const std::string& d = Peek().text;
        jt = d == "LEFT" ? JoinType::kLeft
                         : (d == "RIGHT" ? JoinType::kRight : JoinType::kFull);
        std::size_t ahead = 1;
        if (Peek(1).IsKeyword("OUTER")) ahead = 2;
        if (!Peek(ahead).IsKeyword("JOIN")) break;
        is_join = true;
        for (std::size_t i = 0; i <= ahead; ++i) Advance();
      }
      if (!is_join) break;

      TableRefPtr right = ParseTablePrimary();
      if (!right) return nullptr;
      h = std::max(h, height_);
      auto join = std::make_unique<TableRef>();
      join->kind = TableRefKind::kJoin;
      join->join_type = jt;
      join->left = std::move(left);
      join->right = std::move(right);
      if (Accept("ON")) {
        join->join_condition = ParseExpr();
        if (!join->join_condition) return nullptr;
        h = std::max(h, height_);
      }
      // Joins chain left-deep: each one is a level.
      if (!SetHeight(h + 1)) return nullptr;
      h = height_;
      left = std::move(join);
    }
    height_ = h;
    return left;
  }

  TableRefPtr ParseTablePrimary() {
    Nest nest(this);
    if (!WithinBound(depth_)) return nullptr;
    auto t = std::make_unique<TableRef>();
    if (Peek().IsOperator("(")) {
      if (Peek(1).IsKeyword("SELECT")) {
        Advance();
        t->kind = TableRefKind::kDerived;
        t->derived = ParseSelectBlock();
        if (!t->derived) return nullptr;
        if (!ExpectOp(")")) return nullptr;
        if (!SetHeight(height_ + 1)) return nullptr;
      } else {
        // Parenthesized join tree.
        Advance();
        TableRefPtr inner = ParseTableRef();
        if (!inner) return nullptr;
        if (!ExpectOp(")")) return nullptr;
        return inner;
      }
    } else if (Check(TokenType::kIdentifier)) {
      t->kind = TableRefKind::kBaseTable;
      t->table_name = TakeText();
      // Dotted schema names: schema.table
      while (Peek().IsOperator(".") && Peek(1).type == TokenType::kIdentifier) {
        Advance();
        t->table_name += "." + TakeText();
      }
      height_ = 1;
    } else {
      SetError(StrFormat("expected table reference, found '%s'",
                         Peek().text.c_str()));
      return nullptr;
    }
    if (Accept("AS")) {
      if (!Check(TokenType::kIdentifier)) {
        SetError("expected alias after AS");
        return nullptr;
      }
      t->alias = TakeText();
    } else if (Check(TokenType::kIdentifier)) {
      t->alias = TakeText();
    }
    return t;
  }

  // --- Expressions --------------------------------------------------------
  // Grammar (low -> high precedence):
  //   or_expr    := and_expr (OR and_expr)*
  //   and_expr   := not_expr (AND not_expr)*
  //   not_expr   := NOT not_expr | predicate
  //   predicate  := concat ((= != < <= > >=) concat
  //                 | [NOT] IN (...) | [NOT] BETWEEN a AND b
  //                 | [NOT] LIKE p | IS [NOT] NULL)?
  //   concat     := additive (|| additive)*
  //   additive   := multiplicative ((+ -) multiplicative)*
  //   multiplicative := unary ((* / %) unary)*
  //   unary      := (- +) unary | primary
  ExprPtr ParseExpr() {
    Nest nest(this);
    if (!WithinBound(depth_)) return nullptr;
    return ParseOr();
  }

  // operand (op operand)*, folded left-deep. `next_op` reports the
  // operator at the current token, if any, without consuming it.
  template <typename NextOp>
  ExprPtr ParseChain(ExprPtr (Parser::*operand)(), NextOp next_op) {
    ExprPtr lhs = (this->*operand)();
    if (!lhs) return nullptr;
    int h = height_;
    BinaryOp op;
    while (next_op(&op)) {
      Advance();
      ExprPtr rhs = (this->*operand)();
      if (!rhs || !SetHeight(std::max(h, height_) + 1)) return nullptr;
      h = height_;
      lhs = MakeBinary(op, std::move(lhs), std::move(rhs));
    }
    height_ = h;
    return lhs;
  }

  ExprPtr ParseOr() {
    return ParseChain(&Parser::ParseAnd, [this](BinaryOp* op) {
      *op = BinaryOp::kOr;
      return Peek().IsKeyword("OR");
    });
  }

  ExprPtr ParseAnd() {
    return ParseChain(&Parser::ParseNot, [this](BinaryOp* op) {
      *op = BinaryOp::kAnd;
      return Peek().IsKeyword("AND");
    });
  }

  ExprPtr ParseNot() {
    if (Accept("NOT")) {
      Nest nest(this);
      if (!WithinBound(depth_)) return nullptr;
      ExprPtr operand = ParseNot();
      if (!operand || !SetHeight(height_ + 1)) return nullptr;
      return MakeUnary(UnaryOp::kNot, std::move(operand));
    }
    return ParsePredicate();
  }

  ExprPtr ParsePredicate() {
    ExprPtr lhs = ParseConcat();
    if (!lhs) return nullptr;
    int h = height_;  // tallest operand so far
    auto parse_concat = [&]() {
      ExprPtr e = ParseConcat();
      if (e) h = std::max(h, height_);
      return e;
    };

    // Comparison operators.
    static const std::pair<const char*, BinaryOp> kCmps[] = {
        {"=", BinaryOp::kEq},  {"!=", BinaryOp::kNe}, {"<=", BinaryOp::kLe},
        {">=", BinaryOp::kGe}, {"<", BinaryOp::kLt},  {">", BinaryOp::kGt},
    };
    for (const auto& [op, bop] : kCmps) {
      if (Peek().IsOperator(op)) {
        Advance();
        ExprPtr rhs = parse_concat();
        if (!rhs || !SetHeight(h + 1)) return nullptr;
        return MakeBinary(bop, std::move(lhs), std::move(rhs));
      }
    }

    bool negated = false;
    if (Peek().IsKeyword("NOT") &&
        (Peek(1).IsKeyword("IN") || Peek(1).IsKeyword("BETWEEN") ||
         Peek(1).IsKeyword("LIKE") || Peek(1).IsKeyword("GLOB") ||
         Peek(1).IsKeyword("REGEXP"))) {
      negated = true;
      Advance();
    }

    if (Accept("IN")) {
      if (!ExpectOp("(")) return nullptr;
      if (Peek().IsKeyword("SELECT")) {
        auto e = std::make_unique<Expr>(ExprKind::kInSubquery);
        e->negated = negated;
        e->children.push_back(std::move(lhs));
        e->subquery = ParseSelectBlock();
        if (!e->subquery) return nullptr;
        if (!ExpectOp(")")) return nullptr;
        if (!SetHeight(std::max(h, height_) + 1)) return nullptr;
        return e;
      }
      auto e = std::make_unique<Expr>(ExprKind::kInList);
      e->negated = negated;
      e->children.push_back(std::move(lhs));
      do {
        ExprPtr item = ParseExpr();
        if (!item) return nullptr;
        h = std::max(h, height_);
        e->children.push_back(std::move(item));
      } while (AcceptOp(","));
      if (!ExpectOp(")")) return nullptr;
      if (!SetHeight(h + 1)) return nullptr;
      return e;
    }
    if (Accept("BETWEEN")) {
      auto e = std::make_unique<Expr>(ExprKind::kBetween);
      e->negated = negated;
      e->children.push_back(std::move(lhs));
      ExprPtr lo = parse_concat();
      if (!lo) return nullptr;
      e->children.push_back(std::move(lo));
      if (!Expect("AND")) return nullptr;
      ExprPtr hi = parse_concat();
      if (!hi) return nullptr;
      e->children.push_back(std::move(hi));
      if (!SetHeight(h + 1)) return nullptr;
      return e;
    }
    if (Peek().IsKeyword("LIKE") || Peek().IsKeyword("GLOB") ||
        Peek().IsKeyword("REGEXP")) {
      Advance();
      auto e = std::make_unique<Expr>(ExprKind::kLike);
      e->negated = negated;
      e->children.push_back(std::move(lhs));
      ExprPtr pattern = parse_concat();
      if (!pattern) return nullptr;
      e->children.push_back(std::move(pattern));
      if (Accept("ESCAPE")) {
        ExprPtr esc = parse_concat();
        if (!esc) return nullptr;
        e->children.push_back(std::move(esc));
      }
      if (!SetHeight(h + 1)) return nullptr;
      return e;
    }
    if (Accept("IS")) {
      bool is_not = Accept("NOT");
      if (!Expect("NULL")) return nullptr;
      auto e = std::make_unique<Expr>(ExprKind::kIsNull);
      e->negated = is_not;
      e->children.push_back(std::move(lhs));
      if (!SetHeight(h + 1)) return nullptr;
      return e;
    }
    return lhs;
  }

  ExprPtr ParseConcat() {
    return ParseChain(&Parser::ParseAdditive, [this](BinaryOp* op) {
      *op = BinaryOp::kConcat;
      return Peek().IsOperator("||");
    });
  }

  ExprPtr ParseAdditive() {
    return ParseChain(&Parser::ParseMultiplicative, [this](BinaryOp* op) {
      if (Peek().IsOperator("+")) *op = BinaryOp::kAdd;
      else if (Peek().IsOperator("-")) *op = BinaryOp::kSub;
      else return false;
      return true;
    });
  }

  ExprPtr ParseMultiplicative() {
    return ParseChain(&Parser::ParseUnary, [this](BinaryOp* op) {
      if (Peek().IsOperator("*")) *op = BinaryOp::kMul;
      else if (Peek().IsOperator("/")) *op = BinaryOp::kDiv;
      else if (Peek().IsOperator("%")) *op = BinaryOp::kMod;
      else return false;
      return true;
    });
  }

  ExprPtr ParseUnary() {
    UnaryOp op;
    if (Peek().IsOperator("-")) op = UnaryOp::kNeg;
    else if (Peek().IsOperator("+")) op = UnaryOp::kPlus;
    else return ParsePrimary();
    Advance();
    Nest nest(this);
    if (!WithinBound(depth_)) return nullptr;
    ExprPtr operand = ParseUnary();
    if (!operand || !SetHeight(height_ + 1)) return nullptr;
    return MakeUnary(op, std::move(operand));
  }

  ExprPtr ParsePrimary() {
    const Token& t = Peek();
    height_ = 1;  // leaves; the composite cases below set their own
    switch (t.type) {
      case TokenType::kInteger: {
        auto e = std::make_unique<Expr>(ExprKind::kLiteral);
        e->literal_kind = LiteralKind::kInteger;
        e->literal_text = TakeText();
        return e;
      }
      case TokenType::kFloat: {
        auto e = std::make_unique<Expr>(ExprKind::kLiteral);
        e->literal_kind = LiteralKind::kFloat;
        e->literal_text = TakeText();
        return e;
      }
      case TokenType::kString: {
        auto e = std::make_unique<Expr>(ExprKind::kLiteral);
        e->literal_kind = LiteralKind::kString;
        e->literal_text = TakeText();
        return e;
      }
      case TokenType::kParameter:
        Advance();
        return MakeParameter();
      case TokenType::kKeyword: {
        if (t.text == "NULL") {
          Advance();
          return MakeNullLiteral();
        }
        if (t.text == "TRUE" || t.text == "FALSE") {
          auto e = std::make_unique<Expr>(ExprKind::kLiteral);
          e->literal_kind = LiteralKind::kBool;
          e->bool_value = (t.text == "TRUE");
          e->literal_text = t.text;
          Advance();
          return e;
        }
        if (t.text == "CASE") return ParseCase();
        if (t.text == "EXISTS") {
          Advance();
          if (!ExpectOp("(")) return nullptr;
          auto e = std::make_unique<Expr>(ExprKind::kExists);
          e->subquery = ParseSelectBlock();
          if (!e->subquery) return nullptr;
          if (!ExpectOp(")")) return nullptr;
          if (!SetHeight(height_ + 1)) return nullptr;
          return e;
        }
        if (t.text == "CAST") {
          Advance();
          if (!ExpectOp("(")) return nullptr;
          auto e = std::make_unique<Expr>(ExprKind::kFunction);
          e->column = "CAST";
          ExprPtr inner = ParseExpr();
          if (!inner || !SetHeight(height_ + 1)) return nullptr;
          e->children.push_back(std::move(inner));
          if (!Expect("AS")) return nullptr;
          // Type name: one identifier/keyword plus optional (n[,m]).
          if (Check(TokenType::kIdentifier) || Check(TokenType::kKeyword)) {
            e->table = TakeText();  // store type name in `table`
          } else {
            SetError("expected type name in CAST");
            return nullptr;
          }
          if (AcceptOp("(")) {
            while (!Peek().IsOperator(")") &&
                   !Check(TokenType::kEndOfInput)) {
              Advance();
            }
            if (!ExpectOp(")")) return nullptr;
          }
          if (!ExpectOp(")")) return nullptr;
          return e;
        }
        SetError(StrFormat("unexpected keyword '%s'", t.text.c_str()));
        return nullptr;
      }
      case TokenType::kOperator: {
        if (t.text == "(") {
          Advance();
          if (Peek().IsKeyword("SELECT")) {
            auto e = std::make_unique<Expr>(ExprKind::kSubquery);
            e->subquery = ParseSelectBlock();
            if (!e->subquery) return nullptr;
            if (!ExpectOp(")")) return nullptr;
            if (!SetHeight(height_ + 1)) return nullptr;
            return e;
          }
          ExprPtr inner = ParseExpr();
          if (!inner) return nullptr;
          if (!ExpectOp(")")) return nullptr;
          return inner;
        }
        if (t.text == "*") {
          Advance();
          return MakeStar();
        }
        SetError(StrFormat("unexpected token '%s'", t.text.c_str()));
        return nullptr;
      }
      case TokenType::kIdentifier: {
        std::string first = TakeText();
        // Function call?
        if (Peek().IsOperator("(")) {
          return ParseFunctionCall(std::move(first));
        }
        // Qualified reference: a.b or a.*
        if (Peek().IsOperator(".")) {
          Advance();
          if (Peek().IsOperator("*")) {
            Advance();
            auto e = std::make_unique<Expr>(ExprKind::kStar);
            e->table = std::move(first);
            return e;
          }
          if (Check(TokenType::kIdentifier) ||
              Check(TokenType::kKeyword)) {
            std::string col = TakeText();
            if (Peek().IsOperator("(")) {
              // schema-qualified function, e.g. upper(name)
              return ParseFunctionCall(first + "." + col);
            }
            return MakeColumnRef(std::move(first), std::move(col));
          }
          SetError("expected column after '.'");
          return nullptr;
        }
        return MakeColumnRef("", std::move(first));
      }
      default:
        SetError(StrFormat("unexpected token '%s'", t.text.c_str()));
        return nullptr;
    }
  }

  ExprPtr ParseCase() {
    // Consume CASE.
    Accept("CASE");
    auto e = std::make_unique<Expr>(ExprKind::kCase);
    int h = 0;  // tallest part so far
    auto parse_part = [&]() {
      ExprPtr part = ParseExpr();
      if (part) h = std::max(h, height_);
      return part;
    };
    if (!Peek().IsKeyword("WHEN")) {
      e->has_case_operand = true;
      ExprPtr operand = parse_part();
      if (!operand) return nullptr;
      e->children.push_back(std::move(operand));
    }
    while (Accept("WHEN")) {
      ExprPtr cond = parse_part();
      if (!cond) return nullptr;
      if (!Expect("THEN")) return nullptr;
      ExprPtr value = parse_part();
      if (!value) return nullptr;
      e->children.push_back(std::move(cond));
      e->children.push_back(std::move(value));
      ++e->n_when;
    }
    if (e->n_when == 0) {
      SetError("CASE requires at least one WHEN branch");
      return nullptr;
    }
    if (Accept("ELSE")) {
      e->has_else = true;
      ExprPtr value = parse_part();
      if (!value) return nullptr;
      e->children.push_back(std::move(value));
    }
    if (!Expect("END")) return nullptr;
    if (!SetHeight(h + 1)) return nullptr;
    return e;
  }

  ExprPtr ParseFunctionCall(std::string name) {
    // Consume '('.
    AcceptOp("(");
    auto e = std::make_unique<Expr>(ExprKind::kFunction);
    e->column = std::move(name);
    if (Accept("DISTINCT")) e->distinct_arg = true;
    int h = 0;  // tallest argument so far
    if (!Peek().IsOperator(")")) {
      do {
        ExprPtr arg = ParseExpr();
        if (!arg) return nullptr;
        h = std::max(h, height_);
        e->children.push_back(std::move(arg));
      } while (AcceptOp(","));
    }
    if (!ExpectOp(")")) return nullptr;
    if (!SetHeight(h + 1)) return nullptr;
    return e;
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  std::string error_;
  std::size_t error_pos_ = 0;
  int depth_ = 0;
  int height_ = 0;
};

}  // namespace

ParseResult Parse(std::string_view sql) {
  return Parser(Lex(sql)).ParseStatement();
}

}  // namespace logr::sql
