// Randomized differential testing of the complete pipeline: generate random
// SCoP programs (random nest depths, affine accesses with small offsets,
// reductions, transposed reads), run the poly+AST flow AND the Pluto-like
// baseline on each, and require interpreter-exact semantics preservation.
//
// This is the widest net in the suite: it exercises fusion/distribution
// decisions, retiming, guard emission, skewing, tiling and unrolling on
// shapes no hand-written kernel covers.
#include <gtest/gtest.h>

#include <cstdint>

#include "flow/presets.hpp"
#include "ir/builder.hpp"
#include "test_util.hpp"
#include "poly/codegen.hpp"

namespace polyast::transform {
namespace {

using ir::AffExpr;

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed * 2654435761u + 17) {}
  std::uint64_t next() {
    state_ = state_ * 6364136223846793005ull + 1442695040888963407ull;
    return state_ >> 33;
  }
  std::int64_t range(std::int64_t lo, std::int64_t hi) {  // inclusive
    return lo + static_cast<std::int64_t>(
                    next() % static_cast<std::uint64_t>(hi - lo + 1));
  }
  bool chance(int percent) { return range(0, 99) < percent; }

 private:
  std::uint64_t state_;
};

/// Builds a random program over a handful of 2-D arrays with padded
/// bounds, so every generated subscript (iterator ± offset, occasionally
/// transposed) stays in range.
ir::Program randomProgram(std::uint64_t seed) {
  Rng rng(seed);
  ir::ProgramBuilder b("fuzz");
  b.param("N", 16);
  const char* arrays[] = {"A", "B", "C", "D"};
  for (const char* a : arrays)
    b.array(a, {b.p("N") + AffExpr(4), b.p("N") + AffExpr(4)});

  auto v = [](const std::string& n) { return AffExpr::term(n); };
  int stmtId = 0;
  int nests = static_cast<int>(rng.range(1, 3));
  for (int nest = 0; nest < nests; ++nest) {
    int depth = static_cast<int>(rng.range(1, 3));
    std::vector<std::string> iters;
    for (int d = 0; d < depth; ++d) {
      std::string it = "i" + std::to_string(nest) + std::to_string(d);
      std::int64_t lo = rng.range(0, 2);
      b.beginLoop(it, lo, b.p("N") + AffExpr(rng.range(0, 2)));
      iters.push_back(it);
    }
    int stmts = static_cast<int>(rng.range(1, 3));
    for (int s = 0; s < stmts; ++s) {
      // Subscripts: pick two (possibly equal) iterators with offsets in
      // [0, 2]; depth-1 nests use the iterator twice.
      auto sub = [&]() {
        const std::string& it =
            iters[static_cast<std::size_t>(rng.range(0, depth - 1))];
        return v(it) + AffExpr(rng.range(0, 2));
      };
      std::vector<AffExpr> lhs{sub(), sub()};
      const char* lhsArr = arrays[rng.range(0, 3)];
      // RHS: sum/product of 1-3 reads.
      ir::ExprPtr rhs;
      int reads = static_cast<int>(rng.range(1, 3));
      for (int r = 0; r < reads; ++r) {
        ir::ExprPtr term =
            ir::arrayRef(arrays[rng.range(0, 3)], {sub(), sub()});
        if (rng.chance(30)) term = term * ir::floatLit(0.5);
        rhs = rhs ? (rng.chance(50) ? rhs + term : rhs * term) : term;
      }
      ir::AssignOp op = ir::AssignOp::Set;
      if (rng.chance(40)) op = ir::AssignOp::AddAssign;
      else if (rng.chance(20)) op = ir::AssignOp::MulAssign;
      b.stmt("S" + std::to_string(stmtId++), lhsArr, std::move(lhs), op,
             std::move(rhs));
    }
    for (int d = 0; d < depth; ++d) b.endLoop();
  }
  return b.build();
}

class FuzzFlow : public ::testing::TestWithParam<int> {};

TEST_P(FuzzFlow, PolyAstPreservesSemantics) {
  for (int trial = 0; trial < 6; ++trial) {
    std::uint64_t seed =
        static_cast<std::uint64_t>(GetParam()) * 1000 +
        static_cast<std::uint64_t>(trial);
    ir::Program p = randomProgram(seed);
    flow::PipelineOptions o;
    o.ast.tileSize = 4;
    o.ast.timeTileSize = 3;
    o.ast.unrollInner = 2;
    o.ast.unrollOuter = 2;
    ir::Program q = flow::makePipeline("polyast", o).run(p);
    SCOPED_TRACE("seed " + std::to_string(seed));
    testutil::expectSameSemantics(p, q, {{"N", 9}});
  }
}

TEST_P(FuzzFlow, PlutoBaselinePreservesSemantics) {
  for (int trial = 0; trial < 6; ++trial) {
    std::uint64_t seed =
        static_cast<std::uint64_t>(GetParam()) * 7777 +
        static_cast<std::uint64_t>(trial);
    ir::Program p = randomProgram(seed);
    flow::PipelineOptions o;
    o.ast.tileSize = 4;
    // Every fusion heuristic twice; smartfuse once with the intra-tile
    // permutation.
    const char* presets[] = {"pocc-maxfuse", "pocc", "pocc-nofuse",
                             "pocc-maxfuse", "pocc-vect", "pocc-nofuse"};
    ir::Program q = flow::makePipeline(presets[trial], o).run(p);
    SCOPED_TRACE("seed " + std::to_string(seed));
    testutil::expectSameSemantics(p, q, {{"N", 9}});
  }
}

TEST_P(FuzzFlow, AffineStageAloneIsLegalAndExact) {
  for (int trial = 0; trial < 6; ++trial) {
    std::uint64_t seed =
        static_cast<std::uint64_t>(GetParam()) * 31337 +
        static_cast<std::uint64_t>(trial);
    ir::Program p = randomProgram(seed);
    poly::Scop scop = poly::extractScop(p);
    poly::PoDG podg = poly::computeDependences(scop);
    poly::ScheduleMap sched;
    try {
      sched = computeAffineTransform(scop);
    } catch (const Error&) {
      continue;  // exhaustion is allowed; the flow falls back to identity
    }
    EXPECT_TRUE(poly::scheduleIsLegal(scop, podg, sched))
        << "seed " << seed;
    ir::Program q = poly::applySchedules(scop, sched);
    SCOPED_TRACE("seed " + std::to_string(seed));
    testutil::expectSameSemantics(p, q, {{"N", 9}});
  }
}

/// Randomized pass subsets through the inter-pass oracle: compose an
/// arbitrary sub-pipeline of the five Algorithm 1 passes (plus the
/// baseline's wavefront conversion when it can apply) and let the pass
/// manager verify the program against the interpreter after EVERY pass.
/// This catches a pass that is only correct because a later pass papers
/// over it — something the whole-flow suites above cannot see.
TEST_P(FuzzFlow, RandomPassSubsetsVerifyEachPass) {
  for (int trial = 0; trial < 6; ++trial) {
    std::uint64_t seed =
        static_cast<std::uint64_t>(GetParam()) * 424243 +
        static_cast<std::uint64_t>(trial);
    Rng rng(seed);
    ir::Program p = randomProgram(seed);

    AstOptions aopt;
    aopt.tileSize = static_cast<std::int64_t>(rng.range(3, 5));
    aopt.timeTileSize = static_cast<std::int64_t>(rng.range(2, 4));
    aopt.unrollInner = 2;
    aopt.unrollOuter = 2;

    // Random subset, in Algorithm 1 order. An empty mask degenerates to
    // the identity pipeline, which must also verify.
    std::uint64_t mask = rng.next() % 64;
    flow::PassPipeline pipe("fuzz-subset");
    if (mask & 1) {
      AffineOptions affine;
      if (rng.chance(30)) affine.fusion = FusionHeuristic::MaxLegal;
      pipe.add(
          std::make_shared<flow::AffineTransformPass>(affine, aopt.paramMin));
    }
    if (mask & 2) pipe.add(std::make_shared<flow::SkewPass>(aopt));
    if (mask & 4) pipe.add(std::make_shared<flow::ParallelismPass>(aopt));
    if (mask & 8) pipe.add(std::make_shared<flow::TilePass>(aopt));
    if ((mask & 4) && (mask & 8) && (mask & 16))
      pipe.add(std::make_shared<flow::WavefrontPass>());
    if (mask & 32) pipe.add(std::make_shared<flow::RegisterTilePass>(aopt));

    flow::PassContext ctx;
    ctx.verify.enabled = true;
    ctx.verify.makeContext = [](const ir::Program& q) {
      return kernels::makeContext(q, {{"N", 9}});
    };
    SCOPED_TRACE("seed " + std::to_string(seed) + " mask " +
                 std::to_string(mask));
    ir::Program q = pipe.run(p, ctx);  // throws on any per-pass divergence
    EXPECT_EQ(ctx.report.passes.size(), pipe.passes().size());
    for (const auto& pass : ctx.report.passes) {
      EXPECT_TRUE(pass.verified) << pass.pass;
      EXPECT_EQ(pass.oracleMaxAbsDiff, 0.0) << pass.pass;
    }
    testutil::expectSameSemantics(p, q, {{"N", 9}});
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzFlow, ::testing::Range(0, 12));

}  // namespace
}  // namespace polyast::transform
