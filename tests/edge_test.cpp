// API contract and edge-case coverage: error paths, degenerate inputs, and
// option combinations not exercised by the kernel-driven suites.
#include <gtest/gtest.h>

#include "flow/presets.hpp"
#include "ir/builder.hpp"
#include "ir/cemit.hpp"
#include "kernels/polybench.hpp"
#include "poly/codegen.hpp"
#include "support/error.hpp"
#include "test_util.hpp"

namespace polyast {
namespace {

using ir::AffExpr;

TEST(Edge, EmptyProgramFlowsCleanly) {
  ir::ProgramBuilder b("empty");
  b.param("N", 8);
  ir::Program p = b.build();
  ir::Program q = flow::makePipeline("polyast").run(p);
  EXPECT_TRUE(q.statements().empty());
  ir::Program r = flow::makePipeline("pocc").run(p);
  EXPECT_TRUE(r.statements().empty());
}

TEST(Edge, SingleStatementNoLoops) {
  ir::ProgramBuilder b("scalarprog");
  b.array("s", {AffExpr(1)});
  b.stmt("S", "s", {AffExpr(0)}, ir::AssignOp::Set, ir::floatLit(7.0));
  ir::Program p = b.build();
  ir::Program q = flow::makePipeline("polyast").run(p);
  testutil::expectSameSemantics(p, q);
}

TEST(Edge, BoundSingleThrowsOnMultiPart) {
  ir::Bound b;
  b.parts = {AffExpr(0), AffExpr(1)};
  EXPECT_THROW(b.single(), Error);
}

TEST(Edge, ScheduleDepthMismatchThrows) {
  ir::Program p = kernels::buildKernel("gemm");
  poly::Scop scop = poly::extractScop(p);
  poly::ScheduleMap sched = poly::identitySchedules(scop);
  sched[0] = poly::Schedule::identity(5);  // wrong depth
  EXPECT_THROW(poly::applySchedules(scop, sched), Error);
}

TEST(Edge, UnknownKernelThrows) {
  EXPECT_THROW(kernels::kernel("nope"), Error);
  EXPECT_THROW(kernels::buildKernel(""), Error);
}

TEST(Edge, CEmitWithoutMainOmitsMain) {
  ir::Program p = kernels::buildKernel("gemm");
  ir::CEmitOptions opt;
  opt.withMain = false;
  std::string src = ir::emitC(p, opt);
  EXPECT_EQ(src.find("int main"), std::string::npos);
  // Kernel-only TUs export the kernel (a static one nobody calls would
  // be an -Werror=unused-function in a standalone compile).
  EXPECT_EQ(src.find("static void kernel(void)"), std::string::npos);
  EXPECT_NE(src.find("void kernel(void)"), std::string::npos);
}

TEST(Edge, TinyTripCountsSurviveEverything) {
  // N smaller than every tile/unroll factor: guards and min/max bounds
  // must keep the transformed programs exact.
  for (const char* name : {"gemm", "jacobi-2d-imper", "trisolv"}) {
    ir::Program p = kernels::buildKernel(name);
    flow::PipelineOptions o;
    o.ast.tileSize = 16;
    o.ast.timeTileSize = 8;
    o.ast.unrollInner = 4;
    o.ast.unrollOuter = 4;
    ir::Program q = flow::makePipeline("polyast", o).run(p);
    std::map<std::string, std::int64_t> params;
    for (const auto& n : p.params) params[n] = (n == "TSTEPS") ? 1 : 5;
    SCOPED_TRACE(name);
    testutil::expectSameSemantics(p, q, params);
  }
}

TEST(Edge, FlowIsDeterministic) {
  // Two runs of the optimizer on the same input must print identically
  // (the scheduler iterates ordered containers only).
  ir::Program p1 = kernels::buildKernel("2mm");
  ir::Program p2 = kernels::buildKernel("2mm");
  flow::PassPipeline pipe = flow::makePipeline("polyast");
  std::string a = ir::printProgram(pipe.run(p1));
  std::string b = ir::printProgram(pipe.run(p2));
  EXPECT_EQ(a, b);
}

TEST(Edge, OptimizeIsIdempotentOnItsOutputSemantics) {
  // Re-optimizing an already-optimized (untiled) program must still be
  // semantics-preserving.
  ir::Program p = kernels::buildKernel("gemm");
  // No tiling keeps the output a SCoP (unit steps).
  flow::PassPipeline pipe = flow::makePipeline("polyast-notile");
  ir::Program q = pipe.run(p);
  ir::Program r = pipe.run(q);
  testutil::expectSameSemantics(p, r, {{"NI", 7}, {"NJ", 6}, {"NK", 5}});
}

TEST(Edge, ParamOverridesPropagate) {
  ir::Program p = kernels::buildKernel("gemm");
  exec::Context ctx(p, {{"NI", 3}, {"NJ", 3}, {"NK", 3}});
  EXPECT_EQ(ctx.param("NI"), 3);
  EXPECT_EQ(ctx.buffer("C").size(), 9u);
  EXPECT_THROW(exec::Context(p, {{"XX", 1}}), Error);
}

TEST(Edge, GuardedStatementOutsideLoopUsesParams) {
  // Guards with parameter-only expressions act as compile-time-ish
  // predicates.
  ir::ProgramBuilder b("g");
  b.param("N", 8);
  b.array("A", {b.p("N")});
  b.stmt("S", "A", {AffExpr(0)}, ir::AssignOp::Set, ir::floatLit(1.0));
  ir::Program p = b.build();
  p.statements()[0]->guards.push_back(b.p("N") - AffExpr(10));  // N >= 10
  exec::Context small(p, {{"N", 8}});
  exec::run(p, small);
  EXPECT_EQ(small.buffer("A")[0], 0.0);
  exec::Context big(p, {{"N", 12}});
  exec::run(p, big);
  EXPECT_EQ(big.buffer("A")[0], 1.0);
}

}  // namespace
}  // namespace polyast
