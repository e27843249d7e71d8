// Pass-manager tests: preset registry and pass ordering, per-pass
// instrumentation, and the inter-pass oracle's ability to attribute a
// semantic break to the pass that introduced it.
#include "flow/presets.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "ir/builder.hpp"
#include "kernels/polybench.hpp"
#include "obs/selfprof.hpp"
#include "test_util.hpp"

namespace polyast::flow {
namespace {

std::map<std::string, std::int64_t> oddParams(const ir::Program& p) {
  std::map<std::string, std::int64_t> params;
  for (const auto& name : p.params)
    params[name] = (name == "TSTEPS") ? 3 : 7;
  return params;
}

transform::AstOptions testAstOptions() {
  transform::AstOptions o;
  o.tileSize = 3;
  o.timeTileSize = 2;
  o.unrollInner = 2;
  o.unrollOuter = 2;
  return o;
}

VerifyOptions kernelVerify(const ir::Program& p) {
  VerifyOptions v;
  v.enabled = true;
  auto params = oddParams(p);
  v.makeContext = [params](const ir::Program& q) {
    return kernels::makeContext(q, params);
  };
  return v;
}

TEST(Presets, RegistryContainsTheDocumentedNames) {
  EXPECT_EQ(pipelinePresets(),
            (std::vector<std::string>{
                "identity", "pocc", "pocc-maxfuse", "pocc-nofuse",
                "pocc-vect", "polyast", "polyast-nofuse", "polyast-nopar",
                "polyast-noregtile", "polyast-noskew", "polyast-notile"}));
  EXPECT_TRUE(hasPipelinePreset("polyast"));
  EXPECT_FALSE(hasPipelinePreset("polyhedral-magic"));
  EXPECT_THROW(makePipeline("polyhedral-magic"), Error);
}

TEST(Presets, PassOrderingMatchesAlgorithm1) {
  using Names = std::vector<std::string>;
  EXPECT_EQ(makePipeline("polyast").passNames(),
            (Names{"affine", "skew", "parallelism", "tile", "register-tile"}));
  EXPECT_EQ(makePipeline("pocc").passNames(),
            (Names{"affine", "skew", "parallelism", "tile", "wavefront",
                   "register-tile"}));
  EXPECT_EQ(makePipeline("pocc-vect").passNames(),
            (Names{"affine", "skew", "parallelism", "tile", "wavefront",
                   "intra-tile-vect", "register-tile"}));
  EXPECT_EQ(makePipeline("polyast-notile").passNames(),
            (Names{"affine", "skew", "parallelism"}));
  EXPECT_EQ(makePipeline("polyast-noregtile").passNames(),
            (Names{"affine", "skew", "parallelism", "tile"}));
  EXPECT_TRUE(makePipeline("identity").passNames().empty());
}

TEST(Presets, IdentityPipelineIsANoOp) {
  ir::Program p = kernels::buildKernel("gemm");
  ir::Program q = makePipeline("identity").run(p);
  EXPECT_EQ(ir::printProgram(p), ir::printProgram(q));
}

TEST(PipelineReport, RecordsTimingCountersAndOracleVerdicts) {
  ir::Program p = kernels::buildKernel("gemm");
  PipelineOptions popt;
  popt.ast = testAstOptions();
  PassContext ctx;
  ctx.verify = kernelVerify(p);
  makePipeline("polyast", popt).run(p, ctx);

  ASSERT_EQ(ctx.report.passes.size(), 5u);
  for (const auto& pass : ctx.report.passes) {
    EXPECT_GE(pass.millis, 0.0) << pass.pass;
    EXPECT_TRUE(pass.verified) << pass.pass;
    EXPECT_EQ(pass.oracleMaxAbsDiff, 0.0) << pass.pass;
  }
  EXPECT_GE(ctx.report.totalMillis, 0.0);
  // gemm: the k-reduction nest parallelizes and tiles.
  EXPECT_GE(ctx.report.counter("doall") + ctx.report.counter("reduction"), 1);
  EXPECT_GE(ctx.report.counter("bands_tiled"), 1);
  EXPECT_NE(ctx.report.find("tile"), nullptr);
  EXPECT_EQ(ctx.report.find("wavefront"), nullptr);
  EXPECT_FALSE(ctx.report.summary().empty());
}

TEST(FlowReport, RecordsParallelismDetectionOutcome) {
  // The parallelism pass reports the loop marks it set, by kind, so a
  // caller can assert which parallel kind was selected.
  PipelineOptions popt;
  popt.ast = testAstOptions();

  ir::Program gemm = kernels::buildKernel("gemm");
  PassContext ctx;
  makePipeline("polyast", popt).run(gemm, ctx);
  EXPECT_GE(ctx.report.counter("doall") + ctx.report.counter("reduction"), 1);

  ir::Program stencil = kernels::buildKernel("jacobi-2d-imper");
  PassContext sctx;
  makePipeline("polyast", popt).run(stencil, sctx);
  EXPECT_GE(sctx.report.counter("pipeline") +
                sctx.report.counter("reduction_pipeline"),
            1);
}

/// A deliberately semantics-breaking pass: appends an unsatisfiable guard
/// to every statement, so nothing executes after it.
class BreakSemanticsPass final : public Pass {
 public:
  const std::string& name() const override { return name_; }
  PassResult run(ir::Program& program, PassContext&) override {
    for (const auto& stmt : program.statements())
      stmt->guards.push_back(ir::AffExpr(-1));
    return {};
  }

 private:
  inline static const std::string name_ = "break-semantics";
};

TEST(VerifyEachPass, AttributesTheBreakingPass) {
  ir::Program p = kernels::buildKernel("gemm");
  PassPipeline pipe("broken");
  pipe.add(std::make_shared<SkewPass>(testAstOptions()))
      .add(std::make_shared<BreakSemanticsPass>())
      .add(std::make_shared<TilePass>(testAstOptions()));
  PassContext ctx;
  ctx.verify = kernelVerify(p);
  try {
    pipe.run(p, ctx);
    FAIL() << "verification should have caught the broken pass";
  } catch (const VerificationError& e) {
    EXPECT_EQ(e.pass(), "break-semantics");
    EXPECT_NE(std::string(e.what()).find("break-semantics"),
              std::string::npos);
  }
  // The report covers everything up to and including the offender — the
  // passes before it verified clean, so the break is pinpointed.
  ASSERT_EQ(ctx.report.passes.size(), 2u);
  EXPECT_EQ(ctx.report.passes[0].pass, "skew");
  EXPECT_TRUE(ctx.report.passes[0].verified);
  EXPECT_EQ(ctx.report.passes[1].pass, "break-semantics");
}

TEST(VerifyEachPass, CleanPipelineDoesNotThrow) {
  ir::Program p = kernels::buildKernel("seidel-2d");
  PipelineOptions popt;
  popt.ast = testAstOptions();
  PassContext ctx;
  ctx.verify = kernelVerify(p);
  ir::Program q = makePipeline("pocc", popt).run(p, ctx);
  testutil::expectSameSemantics(p, q, oddParams(p));
}

TEST(PassContext, DumpAfterSelectedPasses) {
  ir::Program p = kernels::buildKernel("gemm");
  PipelineOptions popt;
  popt.ast = testAstOptions();
  std::ostringstream dumps;
  PassContext ctx;
  ctx.dump.stream = &dumps;
  ctx.dump.after = {"skew", "tile"};
  makePipeline("polyast", popt).run(p, ctx);
  std::string text = dumps.str();
  EXPECT_NE(text.find("after pass 'skew'"), std::string::npos);
  EXPECT_NE(text.find("after pass 'tile'"), std::string::npos);
  EXPECT_EQ(text.find("after pass 'affine'"), std::string::npos);
}

// ---- the per-run dependence analysis (PassContext::dependences) ----------

std::int64_t depTests() {
  return obs::selfprof::snapshot()[static_cast<int>(
      obs::selfprof::Op::DepTests)];
}

std::shared_ptr<ir::Loop> outermostLoop(const ir::Program& p) {
  for (const auto& n : p.root->children)
    if (n->kind == ir::Node::Kind::Loop)
      return std::static_pointer_cast<ir::Loop>(n);
  return nullptr;
}

TEST(PassContext, DependenceAnalysisIsReusedUntilTheLoopStructureChanges) {
  ir::Program p = kernels::buildKernel("seidel-2d");
  PassContext ctx;
  poly::ScopOptions sopt;
  std::int64_t before = depTests();
  ctx.dependences.get(p, sopt);
  EXPECT_GT(depTests(), before);

  // Skewing changes the structure, so it recomputes; its last, unchanged
  // iteration leaves the analysis of the skewed program behind.
  before = depTests();
  PassResult skew = SkewPass(transform::AstOptions{}).run(p, ctx);
  ASSERT_GT(skew.counters["skews"], 0);
  EXPECT_GT(depTests(), before);

  // Marks only: parallelism detection runs on the stored analysis.
  before = depTests();
  PassResult par = ParallelismPass(transform::AstOptions{}).run(p, ctx);
  EXPECT_EQ(depTests(), before);
  EXPECT_GT(par.counters["pipeline"] + par.counters["doall"], 0);
  std::shared_ptr<ir::Loop> outer = outermostLoop(p);
  ASSERT_NE(outer, nullptr);
  outer->parallel = ir::ParallelKind::Doall;
  outer->simdSafe = true;
  ctx.dependences.get(p, sopt);
  EXPECT_EQ(depTests(), before);

  // A structural edit misses, and so does another paramMin.
  outer->upper.parts.front() = outer->upper.parts.front() - ir::AffExpr(1);
  ctx.dependences.get(p, sopt);
  EXPECT_GT(depTests(), before);
  before = depTests();
  ctx.dependences.get(p, sopt);
  EXPECT_EQ(depTests(), before);
  poly::ScopOptions otherMin;
  otherMin.paramMin = sopt.paramMin + 1;
  ctx.dependences.get(p, otherMin);
  EXPECT_GT(depTests(), before);
}

TEST(PassContext, DependenceAnalysisOfACopyPointsIntoTheCopy) {
  ir::Program p = kernels::buildKernel("gemm");
  PassContext ctx;
  poly::ScopOptions sopt;
  ctx.dependences.get(p, sopt);
  // Same text, other nodes: the analysis must be the copy's own.
  ir::Program copy = p.deepCopy();
  std::int64_t before = depTests();
  const poly::DependenceAnalysis& a = ctx.dependences.get(copy, sopt);
  EXPECT_GT(depTests(), before);
  EXPECT_EQ(a.scop.program, &copy);
  ASSERT_FALSE(a.scop.stmts.empty());
  EXPECT_EQ(a.scop.stmts.front().stmt, copy.statements().front());
}

TEST(PassContext, PipelineRunLeavesNoDependenceAnalysisBehind) {
  // polyast-notile ends with parallelism detection, which leaves the loop
  // structure as skewing analysed it; only the end-of-run clear makes the
  // next lookup recompute.
  ir::Program p = kernels::buildKernel("jacobi-2d-imper");
  PassContext ctx;
  ir::Program out = makePipeline("polyast-notile").run(p, ctx);
  std::int64_t before = depTests();
  poly::ScopOptions sopt;
  ctx.dependences.get(out, sopt);
  EXPECT_GT(depTests(), before);
}

TEST(AffineTransformPass, SurfacesFallbackReasonInsteadOfSwallowingIt) {
  // A negative shift bound rejects every retiming solution (even all-zero
  // shifts), so the scheduler exhausts its search and throws. The old
  // flow silently fell back to identity schedules and discarded the
  // reason; the pass reports both the fallback and the message.
  ir::Program p = kernels::buildKernel("gemm");
  PipelineOptions popt;
  popt.ast = testAstOptions();
  popt.affine.maxShift = -1;
  PassContext ctx;
  ir::Program q = makePipeline("polyast", popt).run(p, ctx);
  ASSERT_EQ(ctx.report.passes[0].pass, "affine");
  EXPECT_FALSE(ctx.report.passes[0].succeeded);
  EXPECT_FALSE(ctx.report.passes[0].note.empty());
  testutil::expectSameSemantics(p, q, oddParams(p));
}

TEST(Pipeline, AblationPresetsPreserveSemantics) {
  ir::Program p = kernels::buildKernel("2mm");
  PipelineOptions popt;
  popt.ast = testAstOptions();
  for (const char* preset :
       {"polyast-nofuse", "polyast-noskew", "polyast-nopar",
        "polyast-notile", "polyast-noregtile", "pocc-maxfuse",
        "pocc-nofuse"}) {
    PassContext ctx;
    ctx.verify = kernelVerify(p);
    ir::Program q = makePipeline(preset, popt).run(p, ctx);
    SCOPED_TRACE(preset);
    testutil::expectSameSemantics(p, q, oddParams(p));
  }
}

}  // namespace
}  // namespace polyast::flow
