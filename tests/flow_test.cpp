#include <gtest/gtest.h>

#include "flow/presets.hpp"
#include "ir/builder.hpp"
#include "kernels/polybench.hpp"
#include "test_util.hpp"

namespace polyast::transform {
namespace {

using ir::ParallelKind;
using testutil::expectSameSemantics;
using testutil::withoutRegisterTiling;

std::map<std::string, std::int64_t> oddParams(const ir::Program& p) {
  std::map<std::string, std::int64_t> params;
  for (const auto& name : p.params)
    params[name] = (name == "TSTEPS") ? 3 : 7;
  return params;
}

flow::PipelineOptions testOptions() {
  flow::PipelineOptions o;
  o.ast.tileSize = 3;
  o.ast.timeTileSize = 2;
  o.ast.unrollInner = 2;
  o.ast.unrollOuter = 2;
  return o;
}

/// Algorithm 1 end-to-end on the whole suite: legal, executable,
/// semantics-preserving.
class FlowOnAllKernels : public ::testing::TestWithParam<std::string> {};

TEST_P(FlowOnAllKernels, SemanticsPreserved) {
  ir::Program p = kernels::buildKernel(GetParam());
  flow::PassContext ctx;
  ir::Program q = flow::makePipeline("polyast", testOptions()).run(p, ctx);
  EXPECT_TRUE(ctx.report.find("affine")->succeeded) << GetParam();
  expectSameSemantics(p, q, oddParams(p));
}

INSTANTIATE_TEST_SUITE_P(PolyBench, FlowOnAllKernels, ::testing::ValuesIn([] {
                           std::vector<std::string> names;
                           for (const auto& k : kernels::allKernels())
                             names.push_back(k.name);
                           return names;
                         }()),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& c : n)
                             if (c == '-') c = '_';
                           return n;
                         });

/// The Pluto-like baseline on the whole suite.
class PlutoOnAllKernels : public ::testing::TestWithParam<std::string> {};

TEST_P(PlutoOnAllKernels, SemanticsPreserved) {
  ir::Program p = kernels::buildKernel(GetParam());
  ir::Program q = flow::makePipeline("pocc", testOptions()).run(p);
  expectSameSemantics(p, q, oddParams(p));
}

INSTANTIATE_TEST_SUITE_P(PolyBench, PlutoOnAllKernels, ::testing::ValuesIn([] {
                           std::vector<std::string> names;
                           for (const auto& k : kernels::allKernels())
                             names.push_back(k.name);
                           return names;
                         }()),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& c : n)
                             if (c == '-') c = '_';
                           return n;
                         });

TEST(Flow, StencilGetsPipelineMark) {
  ir::Program p = kernels::buildKernel("jacobi-2d-imper");
  ir::Program q =
      flow::makePipeline("polyast-noregtile", testOptions()).run(p);
  bool sawPipeline = false;
  std::function<void(const ir::NodePtr&)> walk = [&](const ir::NodePtr& n) {
    if (n->kind == ir::Node::Kind::Loop) {
      auto l = std::static_pointer_cast<ir::Loop>(n);
      if (l->parallel == ParallelKind::Pipeline ||
          l->parallel == ParallelKind::ReductionPipeline)
        sawPipeline = true;
      walk(l->body);
    } else if (n->kind == ir::Node::Kind::Block) {
      for (const auto& c : std::static_pointer_cast<ir::Block>(n)->children)
        walk(c);
    }
  };
  walk(q.root);
  EXPECT_TRUE(sawPipeline) << ir::printProgram(q);
}

TEST(Flow, GemmGetsDoallMark) {
  ir::Program p = kernels::buildKernel("gemm");
  ir::Program q = flow::makePipeline("polyast", testOptions()).run(p);
  bool sawDoall = false;
  std::function<void(const ir::NodePtr&)> walk = [&](const ir::NodePtr& n) {
    if (n->kind == ir::Node::Kind::Loop) {
      auto l = std::static_pointer_cast<ir::Loop>(n);
      if (l->parallel == ParallelKind::Doall) sawDoall = true;
      walk(l->body);
    } else if (n->kind == ir::Node::Kind::Block) {
      for (const auto& c : std::static_pointer_cast<ir::Block>(n)->children)
        walk(c);
    }
  };
  walk(q.root);
  EXPECT_TRUE(sawDoall) << ir::printProgram(q);
}

TEST(Pluto, WavefrontAppearsForStencils) {
  ir::Program p = kernels::buildKernel("seidel-2d");
  flow::PipelineOptions opt = withoutRegisterTiling();
  opt.ast.tileSize = 3;
  opt.ast.timeTileSize = 2;
  flow::PassContext ctx;
  ir::Program q = flow::makePipeline("pocc", opt).run(p, ctx);
  EXPECT_GE(ctx.report.counter("wavefronts"), 1) << ir::printProgram(q);
  expectSameSemantics(p, q, {{"TSTEPS", 2}, {"N", 9}});
}

TEST(Pluto, MaxFuseProduces2mmFigure2Shape) {
  // Maximal fusion merges the two matrix products of 2mm into one nest
  // (the paper's Fig. 2 behaviour) when legal; at minimum it must not be
  // *more* distributed than the DL flow.
  ir::Program p = kernels::buildKernel("2mm");
  flow::PipelineOptions opt = withoutRegisterTiling();
  opt.ast.tileSize = 3;
  ir::Program q = flow::makePipeline("pocc-maxfuse", opt).run(p);
  expectSameSemantics(p, q, {{"NI", 6}, {"NJ", 6}, {"NK", 6}, {"NL", 6}});
}

TEST(Pluto, VectVariantPermutesIntraTile) {
  // Column-major copy: B[j][i] = 2*A[j][i]. The original (i, j) order has
  // stride-N innermost accesses; pocc_vect must rotate i innermost within
  // the tile.
  ir::ProgramBuilder b("coltouch");
  b.param("N", 64);
  b.array("A", {b.p("N"), b.p("N")});
  b.array("B", {b.p("N"), b.p("N")});
  b.beginLoop("i", 0, b.p("N"));
  b.beginLoop("j", 0, b.p("N"));
  b.stmt("S", "B", {ir::AffExpr::term("j"), ir::AffExpr::term("i")},
         ir::AssignOp::Set,
         ir::floatLit(2.0) * ir::arrayRef("A", {ir::AffExpr::term("j"),
                                                ir::AffExpr::term("i")}));
  b.endLoop();
  b.endLoop();
  ir::Program p = b.build();
  flow::PipelineOptions opt = withoutRegisterTiling();
  opt.ast.tileSize = 4;
  flow::PassContext ctx;
  ir::Program q = flow::makePipeline("pocc-vect", opt).run(p, ctx);
  expectSameSemantics(p, q, {{"N", 9}});
  EXPECT_GE(ctx.report.counter("intra_tile_permutations"), 1)
      << ir::printProgram(q);
}

TEST(Flow, AblationTogglesWork) {
  ir::Program p = kernels::buildKernel("gemm");
  flow::PassContext ctx;
  ir::Program q =
      flow::makePipeline("polyast-notile", testOptions()).run(p, ctx);
  EXPECT_EQ(ctx.report.counter("bands_tiled"), 0);
  EXPECT_EQ(ctx.report.counter("loops_unrolled"), 0);
  expectSameSemantics(p, q, oddParams(p));
}

}  // namespace
}  // namespace polyast::transform
