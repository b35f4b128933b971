// Property test: random query ASTs render to text that reparses to the same
// rendering (QueryToString ∘ ParseQuery is a fixpoint), and the parser never
// crashes on mutated query text.

#include <gtest/gtest.h>

#include "src/common/rand.h"
#include "src/core/advice_io.h"
#include "src/query/parser.h"

namespace pivot {
namespace {

class AstGenerator {
 public:
  explicit AstGenerator(uint64_t seed) : rng_(seed) {}

  Query RandomQuery() {
    Query q;
    alias_counter_ = 0;
    q.from = RandomSource(/*allow_union=*/true, /*allow_temporal=*/false);
    int joins = static_cast<int>(rng_.NextBelow(3));
    std::vector<std::string> earlier_aliases = {q.from.alias};
    for (int i = 0; i < joins; ++i) {
      JoinClause j;
      j.source = RandomSource(false, true);
      j.left = j.source.alias;
      // Order before a random already-present alias (keeps the DAG valid
      // with the From source as sink).
      j.right = earlier_aliases[rng_.NextBelow(earlier_aliases.size())];
      earlier_aliases.push_back(j.source.alias);
      q.joins.push_back(std::move(j));
    }
    int wheres = static_cast<int>(rng_.NextBelow(3));
    for (int i = 0; i < wheres; ++i) {
      q.where.push_back(RandomExpr(earlier_aliases, 2));
    }
    // Aggregated or streaming select.
    if (rng_.NextBool()) {
      int groups = static_cast<int>(1 + rng_.NextBelow(2));
      for (int g = 0; g < groups; ++g) {
        std::string field = RandomField(earlier_aliases);
        q.group_by.push_back(field);
        SelectItem item;
        item.expr = Expr::Field(field);
        item.display = field;
        q.select.push_back(std::move(item));
      }
      SelectItem agg;
      agg.is_aggregate = true;
      agg.fn = static_cast<AggFn>(rng_.NextBelow(5));
      if (agg.fn == AggFn::kCount) {
        agg.display = "COUNT";
      } else {
        agg.expr = Expr::Field(RandomField(earlier_aliases));
        agg.display = std::string(AggFnName(agg.fn)) + "(" + agg.expr->ToString() + ")";
      }
      q.select.push_back(std::move(agg));
    } else {
      int items = static_cast<int>(1 + rng_.NextBelow(3));
      for (int i = 0; i < items; ++i) {
        SelectItem item;
        item.expr = RandomExpr(earlier_aliases, 2);
        if (item.expr->op() == ExprOp::kField) {
          item.display = item.expr->field_name();
        } else if (rng_.NextBool()) {
          item.display = "col" + std::to_string(i);
          item.has_explicit_alias = true;
        } else {
          // Display must match the parser's derived name: expression text
          // with outer parens stripped.
          std::string text = item.expr->ToString();
          if (text.size() >= 2 && text.front() == '(' && text.back() == ')') {
            text = text.substr(1, text.size() - 2);
          }
          item.display = text;
        }
        q.select.push_back(std::move(item));
      }
    }
    return q;
  }

  std::string MutateText(const std::string& text) {
    std::string out = text;
    int edits = static_cast<int>(1 + rng_.NextBelow(4));
    for (int i = 0; i < edits && !out.empty(); ++i) {
      size_t at = rng_.NextBelow(out.size());
      switch (rng_.NextBelow(5)) {
        case 0:
          out[at] = static_cast<char>(32 + rng_.NextBelow(95));
          break;
        case 1:
          out.erase(at, 1);
          break;
        case 2: {
          // A digit run past every numeric range, sometimes with a fraction.
          std::string digits = " " + std::string(19 + rng_.NextBelow(400), '9');
          if (rng_.NextBool(0.5)) {
            digits += ".5";
          }
          out.insert(at, digits);
          break;
        }
        case 3: {
          // Nesting that straddles kMaxExprDepth, spliced in as the left
          // operand of the first Where clause (or anywhere, without one).
          const size_t n = kMaxExprDepth - 30 + rng_.NextBelow(60);
          std::string deep;
          switch (rng_.NextBelow(3)) {
            case 0:
              deep = std::string(n, '(') + "1" + std::string(n, ')');
              break;
            case 1:
              deep = std::string(n, '!') + "1";
              break;
            default:
              deep = "1";
              for (size_t k = 0; k < n; ++k) {
                deep += " + 1";
              }
              break;
          }
          size_t where = out.find("Where ");
          out.insert(where == std::string::npos ? at : where + 6, deep + " == ");
          break;
        }
        default:
          out.insert(at, 1, static_cast<char>(32 + rng_.NextBelow(95)));
          break;
      }
    }
    return out;
  }

 private:
  std::string NewAlias() { return "s" + std::to_string(alias_counter_++); }

  SourceRef RandomSource(bool allow_union, bool allow_temporal) {
    SourceRef src;
    src.alias = NewAlias();
    int names = allow_union && rng_.NextBool(0.2) ? 2 : 1;
    static const char* kNames[] = {"A", "B.C", "Tp.Method.done", "DN.DataTransferProtocol"};
    for (int i = 0; i < names; ++i) {
      src.tracepoints.emplace_back(kNames[rng_.NextBelow(4)]);
    }
    if (allow_temporal && rng_.NextBool(0.5)) {
      src.temporal = static_cast<TemporalFilter>(1 + rng_.NextBelow(4));
      src.n = static_cast<uint32_t>(1 + rng_.NextBelow(5));
    }
    if (rng_.NextBool(0.2)) {
      src.sample_rate = 0.25;
    }
    return src;
  }

  std::string RandomField(const std::vector<std::string>& aliases) {
    static const char* kFields[] = {"x", "y", "host", "delta"};
    return aliases[rng_.NextBelow(aliases.size())] + "." + kFields[rng_.NextBelow(4)];
  }

  Expr::Ptr RandomExpr(const std::vector<std::string>& aliases, int depth) {
    if (depth == 0 || rng_.NextBool(0.4)) {
      switch (rng_.NextBelow(3)) {
        case 0:
          return Expr::Field(RandomField(aliases));
        case 1:
          return Expr::Literal(Value(rng_.NextInt(-100, 100)));
        default:
          return Expr::Literal(Value("str" + std::to_string(rng_.NextBelow(5))));
      }
    }
    static const ExprOp kOps[] = {ExprOp::kAdd, ExprOp::kSub, ExprOp::kMul, ExprOp::kDiv,
                                  ExprOp::kEq,  ExprOp::kNe,  ExprOp::kLt,  ExprOp::kGe,
                                  ExprOp::kAnd, ExprOp::kOr};
    return Expr::Binary(kOps[rng_.NextBelow(10)], RandomExpr(aliases, depth - 1),
                        RandomExpr(aliases, depth - 1));
  }

  Rng rng_;
  int alias_counter_ = 0;
};

class ParserRoundTripFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParserRoundTripFuzz, RenderedAstReparsesToSameRendering) {
  AstGenerator gen(GetParam());
  for (int trial = 0; trial < 50; ++trial) {
    Query q = gen.RandomQuery();
    std::string rendered = QueryToString(q);
    Result<Query> reparsed = ParseQuery(rendered);
    ASSERT_TRUE(reparsed.ok()) << rendered << "\n" << reparsed.status().ToString();
    EXPECT_EQ(QueryToString(*reparsed), rendered) << "original:\n" << rendered;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserRoundTripFuzz, ::testing::Range(uint64_t{1}, uint64_t{9}));

class ParserMutationFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParserMutationFuzz, MutatedTextNeverCrashes) {
  AstGenerator gen(GetParam() * 1337);
  for (int trial = 0; trial < 200; ++trial) {
    Query q = gen.RandomQuery();
    std::string mutated = gen.MutateText(QueryToString(q));
    // Parse result is irrelevant; it must not crash or hang. An accepted
    // expression must survive the weave command's codec.
    Result<Query> result = ParseQuery(mutated);
    if (result.ok()) {
      QueryToString(*result);
      for (const Expr::Ptr& w : result->where) {
        std::vector<uint8_t> bytes;
        EncodeExpr(&bytes, w);
        size_t pos = 0;
        Expr::Ptr decoded;
        EXPECT_TRUE(DecodeExpr(bytes.data(), bytes.size(), &pos, &decoded)) << mutated;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserMutationFuzz, ::testing::Range(uint64_t{1}, uint64_t{6}));

}  // namespace
}  // namespace pivot
