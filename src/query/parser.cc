#include "src/query/parser.h"

#include <optional>

#include "src/common/strings.h"
#include "src/core/baggage.h"
#include "src/query/lexer.h"

namespace pivot {

namespace {

// Local analogue of absl's ASSIGN_OR_RETURN: evaluates `call`, propagates a
// non-OK status, otherwise assigns (or declares) `lhs` in the enclosing scope.
#define PIVOT_CONCAT_INNER(a, b) a##b
#define PIVOT_CONCAT(a, b) PIVOT_CONCAT_INNER(a, b)
#define PIVOT_ASSIGN_IMPL(tmp, lhs, call) \
  auto tmp = (call);                      \
  if (!tmp.ok()) {                        \
    return tmp.status();                  \
  }                                       \
  lhs = std::move(tmp).value()
#define PIVOT_ASSIGN(lhs, call) PIVOT_ASSIGN_IMPL(PIVOT_CONCAT(_result_, __LINE__), lhs, call)

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<Query> Parse() {
    Query q;
    if (!ConsumeKeyword("from")) {
      return Error("query must start with From");
    }
    PIVOT_ASSIGN(q.from, ParseSource(/*allow_union=*/true));
    while (!AtEnd()) {
      if (ConsumeKeyword("join")) {
        JoinClause j;
        PIVOT_ASSIGN(j.source, ParseSource(/*allow_union=*/false));
        if (!ConsumeKeyword("on")) {
          return Error("expected On after Join source");
        }
        PIVOT_ASSIGN(j.left, ParseIdent("join left alias"));
        if (!Consume(TokenKind::kArrow)) {
          return Error("expected -> in On clause");
        }
        PIVOT_ASSIGN(j.right, ParseIdent("join right alias"));
        q.joins.push_back(std::move(j));
        continue;
      }
      if (ConsumeKeyword("where")) {
        PIVOT_ASSIGN(Expr::Ptr w, ParseExpr());
        q.where.push_back(std::move(w));
        continue;
      }
      if (ConsumeKeyword("groupby")) {
        do {
          PIVOT_ASSIGN(std::string f, ParseDotted("group-by field"));
          q.group_by.push_back(std::move(f));
        } while (Consume(TokenKind::kComma));
        continue;
      }
      if (ConsumeKeyword("select")) {
        do {
          PIVOT_ASSIGN(SelectItem item, ParseSelectItem());
          q.select.push_back(std::move(item));
        } while (Consume(TokenKind::kComma));
        continue;
      }
      return Error("unexpected token '" + Peek().text + "'");
    }
    return q;
  }

 private:
  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }

  bool AtEnd() const { return Peek().kind == TokenKind::kEnd; }

  bool Consume(TokenKind kind) {
    if (Peek().kind == kind) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool PeekKeyword(std::string_view kw, size_t ahead = 0) const {
    const Token& t = Peek(ahead);
    return t.kind == TokenKind::kIdent && EqualsIgnoreCase(t.text, kw);
  }

  bool ConsumeKeyword(std::string_view kw) {
    if (PeekKeyword(kw)) {
      ++pos_;
      return true;
    }
    return false;
  }

  // True when the next identifier begins a clause keyword, ending the current
  // comma-separated list.
  bool AtClauseKeyword() const {
    return PeekKeyword("join") || PeekKeyword("where") || PeekKeyword("groupby") ||
           PeekKeyword("select") || PeekKeyword("on");
  }

  Status Error(const std::string& msg) const {
    return InvalidArgumentError(msg + " (at offset " + std::to_string(Peek().offset) + ")");
  }

  Result<std::string> ParseIdent(const std::string& what) {
    if (Peek().kind != TokenKind::kIdent) {
      return Error("expected " + what);
    }
    std::string s = Peek().text;
    ++pos_;
    return s;
  }

  // Tracepoint name with optional glob segments: piece ('.' piece)* where a
  // piece is an identifier or '*' (e.g. "DN.*", "*.incrBytesRead", "*").
  Result<std::string> ParseTracepointName() {
    std::string name;
    auto piece = [&]() -> bool {
      if (Peek().kind == TokenKind::kIdent) {
        name += Peek().text;
        ++pos_;
        return true;
      }
      if (Peek().kind == TokenKind::kStar) {
        name += "*";
        ++pos_;
        return true;
      }
      return false;
    };
    if (!piece()) {
      return Error("expected tracepoint name");
    }
    while (Peek().kind == TokenKind::kDot) {
      ++pos_;
      name += ".";
      if (!piece()) {
        return Error("expected tracepoint name component");
      }
    }
    return name;
  }

  // ident ('.' ident)* joined with '.'.
  Result<std::string> ParseDotted(const std::string& what) {
    PIVOT_ASSIGN(std::string name, ParseIdent(what));
    while (Peek().kind == TokenKind::kDot) {
      ++pos_;
      PIVOT_ASSIGN(std::string part, ParseIdent(what + " component"));
      name += ".";
      name += part;
    }
    return name;
  }

  // Parses "<alias> In <source-or-union>"; the alias was not yet consumed for
  // From (ParseSource reads it).
  Result<SourceRef> ParseSource(bool allow_union) {
    SourceRef src;
    PIVOT_ASSIGN(src.alias, ParseIdent("source alias"));
    if (!ConsumeKeyword("in")) {
      return Error("expected In after alias '" + src.alias + "'");
    }
    PIVOT_ASSIGN(src, ParseSourceBody(std::move(src.alias)));
    if (!allow_union && src.tracepoints.size() > 1) {
      return Error("Union sources are only allowed in the From clause");
    }
    return src;
  }

  // One or more comma-separated tracepoint names (a union list); wrappers
  // (First/Sample/...) apply to the whole list.
  Status ParseNameList(SourceRef* src) {
    for (;;) {
      auto name = ParseTracepointName();
      if (!name.ok()) {
        return name.status();
      }
      src->tracepoints.push_back(std::move(name).value());
      if (Peek().kind != TokenKind::kComma ||
          (Peek(1).kind != TokenKind::kIdent && Peek(1).kind != TokenKind::kStar) ||
          PeekKeyword("join", 1)) {
        return Status::Ok();
      }
      ++pos_;  // Consume the union comma.
    }
  }

  Result<SourceRef> ParseSourceBody(std::string alias) {
    SourceRef src;
    src.alias = std::move(alias);

    // Sampling wrapper: Sample(rate, <inner>) — integer rate = percent,
    // double rate = fraction. Composable around a temporal wrapper.
    auto parse_sample_prefix = [&]() -> Status {
      if (!(PeekKeyword("sample") && Peek(1).kind == TokenKind::kLParen)) {
        return Status::Ok();
      }
      if (src.sample_rate < 1.0) {
        return Error("nested Sample wrappers");
      }
      pos_ += 2;  // keyword + '('
      double rate;
      if (Peek().kind == TokenKind::kDouble) {
        rate = Peek().double_value;
      } else if (Peek().kind == TokenKind::kInt) {
        rate = static_cast<double>(Peek().int_value) / 100.0;
      } else {
        return Error("Sample expects a rate");
      }
      ++pos_;
      if (rate <= 0.0 || rate > 1.0) {
        return Error("Sample rate must be in (0, 1] (or 1..100 as a percent)");
      }
      if (!Consume(TokenKind::kComma)) {
        return Error("expected ',' after Sample rate");
      }
      src.sample_rate = rate;
      return Status::Ok();
    };

    auto parse_one = [&]() -> Status {
      bool had_sample = false;
      if (PeekKeyword("sample") && Peek(1).kind == TokenKind::kLParen) {
        PIVOT_RETURN_IF_ERROR(parse_sample_prefix());
        had_sample = true;
      }
      // Temporal wrapper?
      static constexpr struct {
        const char* kw;
        TemporalFilter filter;
        bool takes_n;
      } kTemporal[] = {
          {"first", TemporalFilter::kFirst, false},
          {"mostrecent", TemporalFilter::kMostRecent, false},
          {"firstn", TemporalFilter::kFirstN, true},
          {"mostrecentn", TemporalFilter::kMostRecentN, true},
      };
      for (const auto& t : kTemporal) {
        if (PeekKeyword(t.kw) && Peek(1).kind == TokenKind::kLParen) {
          if (src.temporal != TemporalFilter::kAll) {
            return Error("nested temporal filters");
          }
          pos_ += 2;  // keyword + '('
          src.temporal = t.filter;
          if (t.takes_n) {
            // A bag never keeps more than kMaxBagTuples tuples.
            if (Peek().kind != TokenKind::kInt || Peek().int_value <= 0 ||
                Peek().int_value > static_cast<int64_t>(kMaxBagTuples)) {
              return Error(std::string(t.kw) + " expects a count in 1.." +
                           std::to_string(kMaxBagTuples));
            }
            src.n = static_cast<uint32_t>(Peek().int_value);
            ++pos_;
            if (!Consume(TokenKind::kComma)) {
              return Error("expected ',' after count in " + std::string(t.kw));
            }
          } else {
            src.n = 1;
          }
          PIVOT_RETURN_IF_ERROR(ParseNameList(&src));
          if (!Consume(TokenKind::kRParen)) {
            return Error("expected ')' closing " + std::string(t.kw));
          }
          if (had_sample && !Consume(TokenKind::kRParen)) {
            return Error("expected ')' closing Sample");
          }
          return Status::Ok();
        }
      }
      PIVOT_RETURN_IF_ERROR(ParseNameList(&src));
      if (had_sample && !Consume(TokenKind::kRParen)) {
        return Error("expected ')' closing Sample");
      }
      return Status::Ok();
    };

    PIVOT_RETURN_IF_ERROR(parse_one());
    while (Peek().kind == TokenKind::kComma && !PeekKeyword("join", 1)) {
      ++pos_;
      PIVOT_RETURN_IF_ERROR(parse_one());
    }
    return src;
  }

  std::optional<AggFn> PeekAggFn() const {
    const Token& t = Peek();
    if (t.kind != TokenKind::kIdent) {
      return std::nullopt;
    }
    if (EqualsIgnoreCase(t.text, "count")) {
      return AggFn::kCount;
    }
    if (EqualsIgnoreCase(t.text, "sum")) {
      return AggFn::kSum;
    }
    if (EqualsIgnoreCase(t.text, "min")) {
      return AggFn::kMin;
    }
    if (EqualsIgnoreCase(t.text, "max")) {
      return AggFn::kMax;
    }
    if (EqualsIgnoreCase(t.text, "average") || EqualsIgnoreCase(t.text, "avg")) {
      return AggFn::kAverage;
    }
    return std::nullopt;
  }

  Result<SelectItem> ParseSelectItem() {
    SelectItem item;
    std::optional<AggFn> fn = PeekAggFn();
    if (fn.has_value() &&
        (Peek(1).kind == TokenKind::kLParen || *fn == AggFn::kCount)) {
      item.is_aggregate = true;
      item.fn = *fn;
      ++pos_;
      if (Consume(TokenKind::kLParen)) {
        if (*fn == AggFn::kCount && Peek().kind == TokenKind::kRParen) {
          // COUNT() — argument-free.
          ++pos_;
          item.display = "COUNT";
        } else {
          PIVOT_ASSIGN(item.expr, ParseExpr());
          if (!Consume(TokenKind::kRParen)) {
            return Error("expected ')' closing aggregate");
          }
          item.display = std::string(AggFnName(*fn)) + "(" + StripOuterParens(item.expr->ToString()) + ")";
        }
      } else {
        // Bare COUNT (Q3 in the paper).
        item.display = "COUNT";
      }
    } else {
      PIVOT_ASSIGN(item.expr, ParseExpr());
      item.display = StripOuterParens(item.expr->ToString());
    }
    if (ConsumeKeyword("as")) {
      PIVOT_ASSIGN(item.display, ParseIdent("As alias"));
      item.has_explicit_alias = true;
    }
    return item;
  }

  static std::string StripOuterParens(std::string s) {
    // Expr::ToString wraps binaries in parens; strip one balanced outer pair
    // for friendlier display names.
    if (s.size() >= 2 && s.front() == '(' && s.back() == ')') {
      int depth = 0;
      for (size_t i = 0; i + 1 < s.size(); ++i) {
        if (s[i] == '(') {
          ++depth;
        } else if (s[i] == ')') {
          --depth;
        }
        if (depth == 0) {
          return s;  // Outer parens close early: not a single wrapping pair.
        }
      }
      return s.substr(1, s.size() - 2);
    }
    return s;
  }

  // ---- Expressions ----

  Result<Expr::Ptr> ParseExpr() { return ParseOr(); }

  // Expression depth is bounded at kMaxExprDepth twice over: the recursion
  // through parentheses and prefix operators, so deep input cannot exhaust
  // the stack, and the depth of every node built, so each accepted tree
  // decodes on the agents (DecodeExpr). Errors abort the whole parse, so
  // ParseNested leaves the nesting count raised on failure.
  Status DepthError() const {
    return Error("expression nests deeper than " + std::to_string(kMaxExprDepth) + " levels");
  }

  Result<Expr::Ptr> ParseNested(Result<Expr::Ptr> (Parser::*parse)()) {
    if (++nesting_ > kMaxExprDepth) {
      return DepthError();
    }
    PIVOT_ASSIGN(Expr::Ptr e, (this->*parse)());
    --nesting_;
    return e;
  }

  Result<Expr::Ptr> Bounded(Expr::Ptr e) const {
    if (e->depth() > kMaxExprDepth) {
      return DepthError();
    }
    return e;
  }

  Result<Expr::Ptr> ParseOr() {
    PIVOT_ASSIGN(Expr::Ptr lhs, ParseAnd());
    while (Consume(TokenKind::kOr)) {
      PIVOT_ASSIGN(Expr::Ptr rhs, ParseAnd());
      PIVOT_ASSIGN(lhs, Bounded(Expr::Binary(ExprOp::kOr, std::move(lhs), std::move(rhs))));
    }
    return lhs;
  }

  Result<Expr::Ptr> ParseAnd() {
    PIVOT_ASSIGN(Expr::Ptr lhs, ParseEquality());
    while (Consume(TokenKind::kAnd)) {
      PIVOT_ASSIGN(Expr::Ptr rhs, ParseEquality());
      PIVOT_ASSIGN(lhs, Bounded(Expr::Binary(ExprOp::kAnd, std::move(lhs), std::move(rhs))));
    }
    return lhs;
  }

  Result<Expr::Ptr> ParseEquality() {
    PIVOT_ASSIGN(Expr::Ptr lhs, ParseComparison());
    for (;;) {
      if (Consume(TokenKind::kEq)) {
        PIVOT_ASSIGN(Expr::Ptr rhs, ParseComparison());
        PIVOT_ASSIGN(lhs, Bounded(Expr::Binary(ExprOp::kEq, std::move(lhs), std::move(rhs))));
      } else if (Consume(TokenKind::kNe)) {
        PIVOT_ASSIGN(Expr::Ptr rhs, ParseComparison());
        PIVOT_ASSIGN(lhs, Bounded(Expr::Binary(ExprOp::kNe, std::move(lhs), std::move(rhs))));
      } else {
        return lhs;
      }
    }
  }

  Result<Expr::Ptr> ParseComparison() {
    PIVOT_ASSIGN(Expr::Ptr lhs, ParseAdditive());
    for (;;) {
      ExprOp op;
      if (Peek().kind == TokenKind::kLt) {
        op = ExprOp::kLt;
      } else if (Peek().kind == TokenKind::kLe) {
        op = ExprOp::kLe;
      } else if (Peek().kind == TokenKind::kGt) {
        op = ExprOp::kGt;
      } else if (Peek().kind == TokenKind::kGe) {
        op = ExprOp::kGe;
      } else {
        return lhs;
      }
      ++pos_;
      PIVOT_ASSIGN(Expr::Ptr rhs, ParseAdditive());
      PIVOT_ASSIGN(lhs, Bounded(Expr::Binary(op, std::move(lhs), std::move(rhs))));
    }
  }

  Result<Expr::Ptr> ParseAdditive() {
    PIVOT_ASSIGN(Expr::Ptr lhs, ParseMultiplicative());
    for (;;) {
      if (Consume(TokenKind::kPlus)) {
        PIVOT_ASSIGN(Expr::Ptr rhs, ParseMultiplicative());
        PIVOT_ASSIGN(lhs, Bounded(Expr::Binary(ExprOp::kAdd, std::move(lhs), std::move(rhs))));
      } else if (Consume(TokenKind::kMinus)) {
        PIVOT_ASSIGN(Expr::Ptr rhs, ParseMultiplicative());
        PIVOT_ASSIGN(lhs, Bounded(Expr::Binary(ExprOp::kSub, std::move(lhs), std::move(rhs))));
      } else {
        return lhs;
      }
    }
  }

  Result<Expr::Ptr> ParseMultiplicative() {
    PIVOT_ASSIGN(Expr::Ptr lhs, ParseUnary());
    for (;;) {
      ExprOp op;
      if (Peek().kind == TokenKind::kStar) {
        op = ExprOp::kMul;
      } else if (Peek().kind == TokenKind::kSlash) {
        op = ExprOp::kDiv;
      } else if (Peek().kind == TokenKind::kPercent) {
        op = ExprOp::kMod;
      } else {
        return lhs;
      }
      ++pos_;
      PIVOT_ASSIGN(Expr::Ptr rhs, ParseUnary());
      PIVOT_ASSIGN(lhs, Bounded(Expr::Binary(op, std::move(lhs), std::move(rhs))));
    }
  }

  Result<Expr::Ptr> ParseUnary() {
    if (Consume(TokenKind::kBang)) {
      PIVOT_ASSIGN(Expr::Ptr operand, ParseNested(&Parser::ParseUnary));
      return Bounded(Expr::Unary(ExprOp::kNot, std::move(operand)));
    }
    if (Consume(TokenKind::kMinus)) {
      PIVOT_ASSIGN(Expr::Ptr operand, ParseNested(&Parser::ParseUnary));
      // Fold "-<numeric literal>" into a negative literal so rendering is
      // idempotent and downstream evaluation cheaper.
      if (operand->op() == ExprOp::kLiteral && operand->literal().is_int()) {
        return Expr::Literal(Value(-operand->literal().int_value()));
      }
      if (operand->op() == ExprOp::kLiteral && operand->literal().is_double()) {
        return Expr::Literal(Value(-operand->literal().double_value()));
      }
      return Bounded(Expr::Unary(ExprOp::kNeg, std::move(operand)));
    }
    return ParsePrimary();
  }

  Result<Expr::Ptr> ParsePrimary() {
    const Token& t = Peek();
    switch (t.kind) {
      case TokenKind::kInt: {
        ++pos_;
        return Expr::Literal(Value(t.int_value));
      }
      case TokenKind::kDouble: {
        ++pos_;
        return Expr::Literal(Value(t.double_value));
      }
      case TokenKind::kString: {
        ++pos_;
        return Expr::Literal(Value(t.text));
      }
      case TokenKind::kIdent: {
        PIVOT_ASSIGN(std::string name, ParseDotted("field reference"));
        return Expr::Field(std::move(name));
      }
      case TokenKind::kLParen: {
        ++pos_;
        PIVOT_ASSIGN(Expr::Ptr inner, ParseNested(&Parser::ParseExpr));
        if (!Consume(TokenKind::kRParen)) {
          return Error("expected ')'");
        }
        return inner;
      }
      default:
        return Error("expected expression");
    }
  }

#undef PIVOT_ASSIGN

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  int nesting_ = 0;  // Open parentheses and prefix operators.
};

}  // namespace

Result<Query> ParseQuery(std::string_view text) {
  Result<std::vector<Token>> tokens = Tokenize(text);
  if (!tokens.ok()) {
    return tokens.status();
  }
  Parser parser(std::move(tokens).value());
  Result<Query> q = parser.Parse();
  if (q.ok()) {
    q.value().text = std::string(text);
  }
  return q;
}

}  // namespace pivot
