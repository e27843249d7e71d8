#include "intset/intset.hpp"

#include <gtest/gtest.h>

#include "obs/selfprof.hpp"
#include "support/error.hpp"

namespace polyast {
namespace {

IntSet box2(std::int64_t xlo, std::int64_t xhi, std::int64_t ylo,
            std::int64_t yhi) {
  IntSet s({"x", "y"});
  s.addBounds(0, xlo, xhi);
  s.addBounds(1, ylo, yhi);
  return s;
}

TEST(IntSet, EmptinessBasics) {
  IntSet s({"x"});
  EXPECT_FALSE(s.isEmpty());  // unconstrained
  s.addBounds(0, 0, 10);
  EXPECT_FALSE(s.isEmpty());
  s.addInequality({1}, -20);  // x >= 20
  EXPECT_TRUE(s.isEmpty());
}

TEST(IntSet, EqualityInfeasibleByGcd) {
  IntSet s({"x", "y"});
  // 2x + 4y == 1 has no integer solution (gcd tightening catches it).
  s.addEquality({2, 4}, -1);
  EXPECT_TRUE(s.isEmpty());
}

TEST(IntSet, IntegerTighteningOfInequalities) {
  IntSet s({"x"});
  // 2x >= 1 and 2x <= 1: rationally feasible (x = 1/2) but gcd
  // normalization tightens to x >= 1 and x <= 0.
  s.addInequality({2}, -1);
  s.addInequality({-2}, 1);
  EXPECT_TRUE(s.isEmpty());
}

TEST(IntSet, ContainsChecksAllConstraints) {
  IntSet s = box2(0, 5, 0, 5);
  s.addInequality({1, -1}, 0);  // x >= y
  EXPECT_TRUE(s.contains({3, 2}));
  EXPECT_TRUE(s.contains({3, 3}));
  EXPECT_FALSE(s.contains({2, 3}));
  EXPECT_FALSE(s.contains({6, 0}));
  EXPECT_THROW(s.contains({1}), Error);
}

TEST(IntSet, MinMaxOfExpressions) {
  IntSet s = box2(1, 4, 2, 6);
  auto x = LinExpr::var(0, 2);
  auto y = LinExpr::var(1, 2);
  EXPECT_EQ(s.minOf(x), 1);
  EXPECT_EQ(s.maxOf(x), 4);
  EXPECT_EQ(s.minOf(y - x), -2);
  EXPECT_EQ(s.maxOf(y - x), 5);
  EXPECT_EQ(s.minOf(x + y), 3);
}

TEST(IntSet, MinMaxUnbounded) {
  IntSet s({"x"});
  s.addInequality({1}, 0);  // x >= 0
  EXPECT_EQ(s.minOf(LinExpr::var(0, 1)), 0);
  EXPECT_FALSE(s.maxOf(LinExpr::var(0, 1)).has_value());
}

TEST(IntSet, MinOfEmptySetIsNullopt) {
  IntSet s({"x"});
  s.addBounds(0, 5, 3);
  EXPECT_FALSE(s.minOf(LinExpr::var(0, 1)).has_value());
}

TEST(IntSet, ProjectTriangle) {
  // { (x,y) : 0 <= y <= x <= 9 } projected to y gives 0 <= y <= 9.
  IntSet s({"x", "y"});
  s.addBounds(0, 0, 9);
  s.addInequality({1, -1}, 0);   // x - y >= 0
  s.addInequality({0, 1}, 0);    // y >= 0
  IntSet p = s.project({1});
  EXPECT_EQ(p.numVars(), 1u);
  EXPECT_EQ(p.minOf(LinExpr::var(0, 1)), 0);
  EXPECT_EQ(p.maxOf(LinExpr::var(0, 1)), 9);
}

TEST(IntSet, ProjectKeepsRequestedOrder) {
  IntSet s({"a", "b", "c"});
  s.addBounds(0, 0, 1);
  s.addBounds(1, 2, 3);
  s.addBounds(2, 4, 5);
  IntSet p = s.project({2, 0});
  ASSERT_EQ(p.numVars(), 2u);
  EXPECT_EQ(p.varNames()[0], "c");
  EXPECT_EQ(p.varNames()[1], "a");
  EXPECT_EQ(p.minOf(LinExpr::var(0, 2)), 4);
  EXPECT_EQ(p.maxOf(LinExpr::var(1, 2)), 1);
}

TEST(IntSet, EnumerateCountsTriangle) {
  IntSet s({"x", "y"});
  s.addBounds(0, 0, 3);
  s.addInequality({0, 1}, 0);    // y >= 0
  s.addInequality({1, -1}, 0);   // y <= x
  // Points: x in 0..3, y in 0..x -> 1+2+3+4 = 10.
  EXPECT_EQ(s.countPoints(), 10);
}

TEST(IntSet, EnumerateEarlyStop) {
  IntSet s({"x"});
  s.addBounds(0, 0, 99);
  int seen = 0;
  bool finished = s.enumerate([&](const std::vector<std::int64_t>&) {
    return ++seen < 5;
  });
  EXPECT_FALSE(finished);
  EXPECT_EQ(seen, 5);
}

TEST(IntSet, EnumerateRequiresBounded) {
  IntSet s({"x"});
  s.addInequality({1}, 0);
  EXPECT_THROW(s.countPoints(), Error);
}

TEST(IntSet, EqualityChainEliminatedExactly) {
  // x == y, y == z, x in [3,7] -> z in [3,7].
  IntSet s({"x", "y", "z"});
  s.addEquality({1, -1, 0}, 0);
  s.addEquality({0, 1, -1}, 0);
  s.addBounds(0, 3, 7);
  IntSet p = s.project({2});
  EXPECT_EQ(p.minOf(LinExpr::var(0, 1)), 3);
  EXPECT_EQ(p.maxOf(LinExpr::var(0, 1)), 7);
}

/// Property test: FM-based emptiness agrees with brute-force enumeration on
/// random small systems over a bounded box.
class EmptinessOracle : public ::testing::TestWithParam<int> {};

TEST_P(EmptinessOracle, MatchesBruteForce) {
  auto next = [state = static_cast<std::uint64_t>(GetParam() * 40503 + 17)]()
      mutable {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  };
  for (int trial = 0; trial < 40; ++trial) {
    IntSet s({"x", "y", "z"});
    // Bounded box so brute force is possible.
    IntSet box({"x", "y", "z"});
    for (std::size_t v = 0; v < 3; ++v) {
      s.addBounds(v, -3, 3);
      box.addBounds(v, -3, 3);
    }
    int ncons = 1 + static_cast<int>(next() % 4);
    std::vector<Constraint> extra;
    for (int c = 0; c < ncons; ++c) {
      Constraint con;
      for (int v = 0; v < 3; ++v)
        con.coeffs.push_back(static_cast<std::int64_t>(next() % 5) - 2);
      con.constant = static_cast<std::int64_t>(next() % 7) - 3;
      con.isEquality = (next() % 4) == 0;
      s.addConstraint(con);
      extra.push_back(con);
    }
    bool bruteEmpty = true;
    box.enumerate([&](const std::vector<std::int64_t>& pt) {
      for (const auto& c : extra) {
        std::int64_t val = c.constant;
        for (int v = 0; v < 3; ++v) val += c.coeffs[v] * pt[v];
        if (c.isEquality ? val != 0 : val < 0) return true;  // keep looking
      }
      bruteEmpty = false;
      return false;  // found a point
    });
    // Rational FM emptiness is conservative: if FM says empty, brute force
    // must agree. If brute force finds a point, FM must say non-empty.
    if (s.isEmpty()) {
      EXPECT_TRUE(bruteEmpty) << s.str();
    }
    if (!bruteEmpty) {
      EXPECT_FALSE(s.isEmpty()) << s.str();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EmptinessOracle, ::testing::Range(0, 10));

/// Property test: minOf/maxOf agree with brute-force extrema on bounded
/// random systems.
class BoundsOracle : public ::testing::TestWithParam<int> {};

TEST_P(BoundsOracle, MatchesBruteForce) {
  auto next = [state = static_cast<std::uint64_t>(GetParam() * 90001 + 5)]()
      mutable {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  };
  for (int trial = 0; trial < 30; ++trial) {
    IntSet s({"x", "y"});
    s.addBounds(0, -4, 4);
    s.addBounds(1, -4, 4);
    for (int c = 0; c < 2; ++c) {
      std::vector<std::int64_t> coeffs{
          static_cast<std::int64_t>(next() % 3) - 1,
          static_cast<std::int64_t>(next() % 3) - 1};
      s.addInequality(coeffs, static_cast<std::int64_t>(next() % 9) - 2);
    }
    LinExpr obj;
    obj.coeffs = {static_cast<std::int64_t>(next() % 5) - 2,
                  static_cast<std::int64_t>(next() % 5) - 2};
    obj.constant = static_cast<std::int64_t>(next() % 5) - 2;
    std::optional<std::int64_t> bruteMin, bruteMax;
    s.enumerate([&](const std::vector<std::int64_t>& pt) {
      std::int64_t v = obj.constant + obj.coeffs[0] * pt[0] +
                       obj.coeffs[1] * pt[1];
      if (!bruteMin || v < *bruteMin) bruteMin = v;
      if (!bruteMax || v > *bruteMax) bruteMax = v;
      return true;
    });
    if (!bruteMin) continue;  // empty set
    auto mn = s.minOf(obj);
    auto mx = s.maxOf(obj);
    ASSERT_TRUE(mn && mx);
    // Rational relaxation can only widen the range.
    EXPECT_LE(*mn, *bruteMin);
    EXPECT_GE(*mx, *bruteMax);
    // With unit-ish coefficients the bounds are usually exact; check they
    // are never wildly off (within the rational hull of the box).
    EXPECT_GE(*mn, -40);
    EXPECT_LE(*mx, 40);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BoundsOracle, ::testing::Range(0, 10));

// ---- query memo -----------------------------------------------------------

std::int64_t selfprofCount(obs::selfprof::Op op) {
  return obs::selfprof::snapshot()[static_cast<int>(op)];
}

TEST(IntSetMemo, AddedConstraintChangesTheNextAnswer) {
  IntSet s = box2(0, 10, 0, 10);
  LinExpr x = LinExpr::var(0, 2);
  EXPECT_FALSE(s.isEmpty());
  EXPECT_EQ(s.minOf(x), 0);
  EXPECT_EQ(s.maxOf(x), 10);
  s.addInequality({1, 0}, -3);  // x >= 3
  EXPECT_FALSE(s.isEmpty());
  EXPECT_EQ(s.minOf(x), 3);
  EXPECT_EQ(s.maxOf(x), 10);
  s.addInequality({1, 0}, -20);  // x >= 20
  EXPECT_TRUE(s.isEmpty());
  EXPECT_EQ(s.minOf(x), std::nullopt);
  EXPECT_EQ(s.maxOf(x), std::nullopt);
}

TEST(IntSetMemo, CopyAnswersWithoutNewQueries) {
  using obs::selfprof::Op;
  IntSet s = box2(1, 4, 2, 6);
  LinExpr diff = LinExpr::var(1, 2) - LinExpr::var(0, 2);
  EXPECT_FALSE(s.isEmpty());
  EXPECT_EQ(s.minOf(diff), -2);
  EXPECT_EQ(s.maxOf(diff), 5);
  std::int64_t empties = selfprofCount(Op::IntsetEmptyTests);
  std::int64_t bounds = selfprofCount(Op::IntsetBoundQueries);
  std::int64_t elims = selfprofCount(Op::FmEliminations);
  IntSet copy = s;
  EXPECT_FALSE(copy.isEmpty());
  EXPECT_EQ(copy.minOf(diff), -2);
  EXPECT_EQ(copy.maxOf(diff), 5);
  EXPECT_EQ(s.minOf(diff), -2);  // the original still answers from memo
  EXPECT_EQ(selfprofCount(Op::IntsetEmptyTests), empties);
  EXPECT_EQ(selfprofCount(Op::IntsetBoundQueries), bounds);
  EXPECT_EQ(selfprofCount(Op::FmEliminations), elims);
  // A new expression is a new query.
  EXPECT_EQ(copy.minOf(LinExpr::var(0, 2)), 1);
  EXPECT_EQ(selfprofCount(Op::IntsetBoundQueries), bounds + 1);
  // A constraint added to the copy leaves the original's memo alone.
  copy.addInequality({-1, 0}, 0);  // x <= 0
  EXPECT_TRUE(copy.isEmpty());
  EXPECT_FALSE(s.isEmpty());
  EXPECT_EQ(selfprofCount(Op::IntsetEmptyTests), empties + 1);
}

/// Exact answers of one set by enumerating its integer points.
struct Brute {
  bool empty = true;
  std::optional<std::int64_t> min, max;
};

Brute bruteForce(const IntSet& s, const LinExpr& e) {
  Brute b;
  s.enumerate([&](const std::vector<std::int64_t>& pt) {
    std::int64_t v = e.constant;
    for (std::size_t i = 0; i < pt.size(); ++i) v += e.coeffs[i] * pt[i];
    b.empty = false;
    if (!b.min || v < *b.min) b.min = v;
    if (!b.max || v > *b.max) b.max = v;
    return true;
  });
  return b;
}

// On boxes the rational answers are exact: emptiness is lo > hi somewhere
// and every extremum sits on an integer vertex. So memoized answers —
// the first one computed, the repeat served from the memo, and the ones a
// copy inherits and then recomputes after a tightening — must all equal
// enumeration.
TEST(IntSetMemo, MemoizedAnswersMatchEnumerationOnSeededBoxes) {
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  auto next = [&state](std::int64_t lo, std::int64_t hi) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return lo + static_cast<std::int64_t>((state >> 33) %
                                          static_cast<std::uint64_t>(hi - lo + 1));
  };
  int emptyBoxes = 0;
  for (int trial = 0; trial < 240; ++trial) {
    std::size_t n = static_cast<std::size_t>(next(1, 3));
    std::vector<std::string> names;
    for (std::size_t v = 0; v < n; ++v) names.push_back("x" + std::to_string(v));
    IntSet s(names);
    for (std::size_t v = 0; v < n; ++v) {
      std::int64_t lo = next(-3, 3);
      s.addBounds(v, lo, lo + next(-1, 4));  // hi < lo makes it empty
    }
    LinExpr e;
    for (std::size_t v = 0; v < n; ++v) e.coeffs.push_back(next(-3, 3));
    e.constant = next(-5, 5);
    // Queries first (enumerate itself asks isEmpty), then the repeats.
    auto check = [&](const IntSet& set, const char* what) {
      for (int repeat = 0; repeat < 2; ++repeat) {
        bool empty = set.isEmpty();
        auto mn = set.minOf(e);
        auto mx = set.maxOf(e);
        Brute want = bruteForce(set, e);
        EXPECT_EQ(empty, want.empty) << what << " " << set.str();
        EXPECT_EQ(mn, want.min) << what << " " << set.str();
        EXPECT_EQ(mx, want.max) << what << " " << set.str();
      }
    };
    check(s, "set");
    if (s.isEmpty()) ++emptyBoxes;
    IntSet copy = s;
    check(copy, "copy");
    std::size_t v = static_cast<std::size_t>(next(0, static_cast<std::int64_t>(n) - 1));
    std::vector<std::int64_t> row(n, 0);
    row[v] = -1;
    copy.addInequality(row, next(-3, 3));  // x_v <= c
    check(copy, "tightened copy");
    check(s, "set after the copy was tightened");
  }
  EXPECT_GT(emptyBoxes, 0);
  EXPECT_LT(emptyBoxes, 240);
}

}  // namespace
}  // namespace polyast
