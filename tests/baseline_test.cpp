#include <gtest/gtest.h>

#include "flow/presets.hpp"
#include "ir/builder.hpp"
#include "kernels/polybench.hpp"
#include "test_util.hpp"
#include "transform/ast_stage.hpp"

namespace polyast::flow {
namespace {

using ir::AffExpr;
using ir::ParallelKind;
using testutil::expectSameSemantics;
using testutil::withoutRegisterTiling;

std::shared_ptr<ir::Loop> loopAt(const ir::Program& p, int stmtId,
                                 std::size_t depth) {
  return p.enclosingLoops()[stmtId][depth];
}

TEST(Wavefront, GuardedDiagonalExecutionIsExact) {
  // Build a tiled 2-level nest with forward deps and wavefront it by hand.
  ir::ProgramBuilder b("wf");
  b.param("N", 24);
  b.array("A", {b.p("N") + AffExpr(1), b.p("N") + AffExpr(1)});
  b.beginLoop("i", 1, b.p("N"));
  b.beginLoop("j", 1, b.p("N"));
  b.stmt("S", "A", {AffExpr::term("i"), AffExpr::term("j")},
         ir::AssignOp::Set,
         ir::arrayRef("A", {AffExpr::term("i") - AffExpr(1),
                            AffExpr::term("j")}) +
             ir::arrayRef("A", {AffExpr::term("i"),
                                AffExpr::term("j") - AffExpr(1)}));
  b.endLoop();
  b.endLoop();
  ir::Program p = b.build();
  ir::Program q = p.deepCopy();
  transform::AstOptions opt;
  opt.tileSize = 4;
  opt.timeTileSize = 4;
  transform::detectParallelism(q, opt);
  ASSERT_EQ(transform::tileForLocality(q, opt), 1);
  auto t1 = loopAt(q, 0, 0);
  auto t2 = loopAt(q, 0, 1);
  ASSERT_TRUE(t1->isTileLoop);
  ASSERT_TRUE(t2->isTileLoop);
  ASSERT_TRUE(wavefrontTiles(q, t1, t2));
  // Wave loop seq, first tile loop doall.
  auto wave = loopAt(q, 0, 0);
  EXPECT_EQ(wave->iter.rfind("w_", 0), 0u) << ir::printProgram(q);
  EXPECT_EQ(wave->parallel, ParallelKind::None);
  EXPECT_EQ(loopAt(q, 0, 1)->parallel, ParallelKind::Doall);
  expectSameSemantics(p, q, {{"N", 14}});
}

TEST(Wavefront, RefusesMultiPartBounds) {
  ir::ProgramBuilder b("wf2");
  b.param("N", 8);
  b.array("A", {b.p("N")});
  b.beginLoop("i", 0, b.p("N"));
  b.stmt("S", "A", {AffExpr::term("i")}, ir::AssignOp::Set,
         ir::floatLit(1.0));
  b.endLoop();
  ir::Program p = b.build();
  auto l = loopAt(p, 0, 0);
  auto l2 = std::make_shared<ir::Loop>(*l);
  l->upper.parts.push_back(AffExpr(100));  // multi-part
  EXPECT_FALSE(wavefrontTiles(p, l, l2));
}

TEST(Pluto, DoallOnlyNeverEmitsPipelineOrReduction) {
  for (const char* name : {"gemm", "jacobi-2d-imper", "mvt", "atax"}) {
    ir::Program p = kernels::buildKernel(name);
    PipelineOptions opt;
    opt.ast.tileSize = 4;
    ir::Program q = makePipeline("pocc", opt).run(p);
    q.forEachStmt([&](const std::shared_ptr<ir::Stmt>&,
                      const std::vector<std::shared_ptr<ir::Loop>>& loops) {
      for (const auto& l : loops) {
        EXPECT_NE(l->parallel, ParallelKind::Pipeline) << name;
        EXPECT_NE(l->parallel, ParallelKind::Reduction) << name;
        EXPECT_NE(l->parallel, ParallelKind::ReductionPipeline) << name;
      }
    });
  }
}

TEST(Pluto, SmartFuseRequiresSharedArray) {
  // Two independent loops over unrelated arrays: smartfuse must NOT fuse,
  // maxfuse may.
  ir::ProgramBuilder b("nf");
  b.param("N", 16);
  b.array("A", {b.p("N")});
  b.array("B", {b.p("N")});
  b.beginLoop("i", 0, b.p("N"));
  b.stmt("S1", "A", {AffExpr::term("i")}, ir::AssignOp::Set,
         ir::floatLit(1.0));
  b.endLoop();
  b.beginLoop("i", 0, b.p("N"));
  b.stmt("S2", "B", {AffExpr::term("i")}, ir::AssignOp::Set,
         ir::floatLit(2.0));
  b.endLoop();
  ir::Program p = b.build();
  ir::Program qs = makePipeline("pocc", withoutRegisterTiling()).run(p);
  EXPECT_EQ(qs.root->children.size(), 2u) << ir::printProgram(qs);
  ir::Program qm =
      makePipeline("pocc-maxfuse", withoutRegisterTiling()).run(p);
  EXPECT_EQ(qm.root->children.size(), 1u) << ir::printProgram(qm);
  expectSameSemantics(p, qs, {{"N", 12}});
  expectSameSemantics(p, qm, {{"N", 12}});
}

TEST(Pluto, KeepsOriginalLoopOrder) {
  // preferOriginalOrder: gemm stays (i, j, k) — A read is A[c1][c3].
  ir::Program p = kernels::buildKernel("gemm");
  PipelineOptions opt = withoutRegisterTiling();
  opt.ast.tileSize = 0x7fffffff;  // effectively untiled for readability
  ir::Program q = makePipeline("pocc", opt).run(p);
  std::string s = ir::printProgram(q);
  EXPECT_NE(s.find("A[c1][c3]"), std::string::npos) << s;
}

}  // namespace
}  // namespace polyast::flow
