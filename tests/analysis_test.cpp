// Tests for the static analysis framework (src/analysis): the diagnostic
// engine and its JSON document, provenance (origin) stamping, the three
// analyses on constructed programs, the mutation corpus, and the
// full-suite cross-check that the static verdict and the interpreter
// oracle never disagree on the legal side.
#include "analysis/analysis.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "analysis/mutations.hpp"
#include "flow/analyze.hpp"
#include "flow/presets.hpp"
#include "ir/builder.hpp"
#include "kernels/polybench.hpp"
#include "obs/json.hpp"
#include "test_util.hpp"

namespace polyast::analysis {
namespace {

ir::AffExpr v(const std::string& name) { return ir::AffExpr::term(name); }

std::map<std::string, std::int64_t> oddParams(const ir::Program& p) {
  std::map<std::string, std::int64_t> params;
  for (const auto& name : p.params)
    params[name] = (name == "TSTEPS") ? 3 : 7;
  return params;
}

/// Loop nest enclosing the `stmtIndex`-th statement (textual order).
std::vector<std::shared_ptr<ir::Loop>> loopsOf(const ir::Program& p,
                                               int stmtIndex = 0) {
  std::vector<std::shared_ptr<ir::Loop>> out;
  int seen = 0;
  p.forEachStmt([&](const std::shared_ptr<ir::Stmt>&,
                    const std::vector<std::shared_ptr<ir::Loop>>& loops) {
    if (seen++ == stmtIndex) out = loops;
  });
  return out;
}

bool hasDiagnostic(const DiagnosticEngine& engine, Severity severity,
                   const std::string& analysis, const std::string& code) {
  for (const auto& d : engine.diagnostics())
    if (d.severity == severity && d.analysis == analysis && d.code == code)
      return true;
  return false;
}

// ---------------------------------------------------------------------------
// DiagnosticEngine

TEST(Diagnostics, EngineCountsAndMirrorsMetrics) {
  obs::Registry reg;
  DiagnosticEngine engine(&reg);

  Diagnostic d;
  d.analysis = "legality";
  d.code = "violated-dependence";
  d.severity = Severity::Error;
  engine.report(d);
  d.severity = Severity::Warning;
  engine.report(d);
  d.analysis = "bounds";
  d.code = "dead-iterator";
  d.severity = Severity::Remark;
  engine.report(d);

  EXPECT_EQ(engine.errors(), 1u);
  EXPECT_EQ(engine.warnings(), 1u);
  EXPECT_EQ(engine.remarks(), 1u);
  EXPECT_EQ(engine.diagnostics().size(), 3u);
  EXPECT_EQ(reg.counter("analysis.legality.errors").value(), 1);
  EXPECT_EQ(reg.counter("analysis.legality.warnings").value(), 1);
  EXPECT_EQ(reg.counter("analysis.bounds.remarks").value(), 1);
}

TEST(Diagnostics, JsonDocumentRoundTrips) {
  obs::Registry reg;
  DiagnosticEngine engine(&reg);
  Diagnostic d;
  d.severity = Severity::Error;
  d.analysis = "races";
  d.code = "doall-race";
  d.message = "a \"quoted\" message";
  d.location = "loop:i/stmt:S0";
  d.afterPass = "parallelism";
  d.detail["distance"] = "1";
  engine.report(d);

  std::ostringstream os;
  writeDiagnosticsJson(os, engine, "gemm", "polyast");
  obs::JsonValue doc = obs::parseJson(os.str());

  ASSERT_TRUE(doc.isObject());
  EXPECT_EQ(doc.find("schema")->text, "polyast-diagnostics-v1");
  EXPECT_EQ(doc.find("program")->text, "gemm");
  EXPECT_EQ(doc.find("pipeline")->text, "polyast");
  EXPECT_EQ(doc.find("summary")->find("errors")->number, 1.0);
  ASSERT_EQ(doc.find("diagnostics")->items.size(), 1u);
  const obs::JsonValue& e = doc.find("diagnostics")->items[0];
  EXPECT_EQ(e.find("severity")->text, "error");
  EXPECT_EQ(e.find("analysis")->text, "races");
  EXPECT_EQ(e.find("code")->text, "doall-race");
  EXPECT_EQ(e.find("message")->text, "a \"quoted\" message");
  EXPECT_EQ(e.find("after_pass")->text, "parallelism");
  EXPECT_EQ(e.find("detail")->find("distance")->text, "1");
}

// ---------------------------------------------------------------------------
// Provenance (origin) stamping

TEST(Origin, FirstAnalyzeStampsIdentityMaps) {
  ir::Program p = kernels::buildKernel("gemm");
  AnalysisSession session;
  poly::DependenceCache deps;
  session.analyze(p, "<input>", deps);
  ASSERT_TRUE(session.hasBaseline());

  p.forEachStmt([](const std::shared_ptr<ir::Stmt>& stmt,
                   const std::vector<std::shared_ptr<ir::Loop>>& loops) {
    ASSERT_EQ(stmt->origin.size(), loops.size());
    for (std::size_t k = 0; k < loops.size(); ++k)
      EXPECT_EQ(stmt->origin[k], ir::AffExpr::term(loops[k]->iter));
  });
}

TEST(Origin, RenameIterInTreeSurvivesAliasedFromArgument) {
  // Regression: renameIterInTree used to take `from` by reference, and
  // callers pass `loop->iter` — which the walk itself reassigns, so the
  // name being matched changed mid-walk and inner references were left
  // unrenamed.
  ir::Program p = kernels::buildKernel("gemm");
  AnalysisSession session;
  poly::DependenceCache deps;
  session.analyze(p, "<input>", deps);

  auto loops = loopsOf(p, 0);
  ASSERT_FALSE(loops.empty());
  ir::renameIterInTree(loops[0], loops[0]->iter, "z0");  // aliased `from`
  EXPECT_EQ(loops[0]->iter, "z0");
  std::string text = ir::printProgram(p);
  // Every reference under the renamed loop follows; the old name is gone
  // from that nest (gemm's first nest is the C-init double loop over i,j).
  EXPECT_NE(text.find("z0"), std::string::npos);

  // The origin maps still express original iterators of this statement in
  // terms of the live ones: re-analysis reports no origin mismatch.
  session.analyze(p, "rename", deps);
  EXPECT_FALSE(hasDiagnostic(session.engine(), Severity::Error, "legality",
                             "origin-mismatch"));
}

// ---------------------------------------------------------------------------
// Races on constructed programs

ir::Program carriedDependenceLoop() {
  ir::ProgramBuilder b("carried");
  b.param("N", 16);
  b.array("A", {v("N")});
  b.array("B", {v("N")});
  b.beginLoop("i", 1, v("N"));
  b.stmt("S", "A", {v("i")}, ir::AssignOp::Set,
         ir::arrayRef("A", {v("i") - ir::AffExpr(1)}) +
             ir::arrayRef("B", {v("i")}));
  b.endLoop();
  return b.build();
}

TEST(Races, DoallOnCarriedDependenceIsAnError) {
  ir::Program p = carriedDependenceLoop();
  loopsOf(p)[0]->parallel = ir::ParallelKind::Doall;
  AnalysisSession session;
  poly::DependenceCache deps;
  session.analyze(p, "<input>", deps);
  EXPECT_TRUE(hasDiagnostic(session.engine(), Severity::Error, "races",
                            "doall-race"))
      << session.engine().summary();
}

TEST(Races, DoallOnIndependentLoopIsClean) {
  ir::ProgramBuilder b("independent");
  b.param("N", 16);
  b.array("A", {v("N")});
  b.array("B", {v("N")});
  b.beginLoop("i", 0, v("N"));
  b.stmt("S", "A", {v("i")}, ir::AssignOp::Set, ir::arrayRef("B", {v("i")}));
  b.endLoop();
  ir::Program p = b.build();
  loopsOf(p)[0]->parallel = ir::ParallelKind::Doall;

  AnalysisSession session;
  poly::DependenceCache deps;
  session.analyze(p, "<input>", deps);
  EXPECT_EQ(session.engine().errors(), 0u) << session.engine().summary();
  EXPECT_EQ(session.engine().warnings(), 0u) << session.engine().summary();
}

TEST(Races, ReductionMarkCoversAccumulatorUpdate) {
  // S[j] += X[i][j] carried over i: illegal as Doall, legal as Reduction.
  ir::ProgramBuilder b("colsum");
  b.param("N", 16);
  b.array("S", {v("N")});
  b.array("X", {v("N"), v("N")});
  b.beginLoop("i", 0, v("N"));
  b.beginLoop("j", 0, v("N"));
  b.stmt("R", "S", {v("j")}, ir::AssignOp::AddAssign,
         ir::arrayRef("X", {v("i"), v("j")}));
  b.endLoop();
  b.endLoop();

  {
    ir::Program p = b.build();
    loopsOf(p)[0]->parallel = ir::ParallelKind::Reduction;
    AnalysisSession session;
    poly::DependenceCache deps;
    session.analyze(p, "<input>", deps);
    EXPECT_EQ(session.engine().errors(), 0u) << session.engine().summary();
  }
}

// ---------------------------------------------------------------------------
// Bounds on constructed programs

TEST(Bounds, OverflowGetsErrorWithIntegerWitness) {
  ir::ProgramBuilder b("overflow");
  b.param("N", 16);
  b.array("A", {v("N")});
  b.array("B", {v("N")});
  b.beginLoop("i", 0, v("N"));
  b.stmt("S", "B", {v("i")}, ir::AssignOp::Set,
         ir::arrayRef("A", {v("i") + ir::AffExpr(1)}));  // A[N] at i=N-1
  b.endLoop();
  ir::Program p = b.build();

  AnalysisSession session;
  poly::DependenceCache deps;
  session.analyze(p, "<input>", deps);
  ASSERT_TRUE(hasDiagnostic(session.engine(), Severity::Error, "bounds",
                            "out-of-bounds"))
      << session.engine().summary();
  bool sawWitness = false;
  for (const auto& d : session.engine().diagnostics())
    if (d.code == "out-of-bounds" && d.detail.count("witness"))
      sawWitness = true;
  EXPECT_TRUE(sawWitness);
}

TEST(Bounds, DeadIteratorIsARemarkButTimeLoopIsNot) {
  // k is never used and its body reads/writes disjoint arrays: dead.
  ir::ProgramBuilder b("dead");
  b.param("N", 16);
  b.array("A", {v("N")});
  b.array("B", {v("N")});
  b.beginLoop("k", 0, v("N"));
  b.beginLoop("i", 0, v("N"));
  b.stmt("S", "A", {v("i")}, ir::AssignOp::Set, ir::arrayRef("B", {v("i")}));
  b.endLoop();
  b.endLoop();
  ir::Program p = b.build();
  AnalysisSession session;
  poly::DependenceCache deps;
  session.analyze(p, "<input>", deps);
  EXPECT_TRUE(hasDiagnostic(session.engine(), Severity::Remark, "bounds",
                            "dead-iterator"))
      << session.engine().summary();

  // Same shape but the body updates A in place: the repetition is
  // observable (a time loop), so no dead-iterator remark.
  ir::ProgramBuilder b2("time");
  b2.param("N", 16);
  b2.array("A", {v("N")});
  b2.beginLoop("t", 0, v("N"));
  b2.beginLoop("i", 1, v("N"));
  b2.stmt("S", "A", {v("i")}, ir::AssignOp::Set,
          ir::arrayRef("A", {v("i") - ir::AffExpr(1)}));
  b2.endLoop();
  b2.endLoop();
  ir::Program q = b2.build();
  AnalysisSession session2;
  poly::DependenceCache deps2;
  session2.analyze(q, "<input>", deps2);
  EXPECT_FALSE(hasDiagnostic(session2.engine(), Severity::Remark, "bounds",
                             "dead-iterator"))
      << session2.engine().summary();
}

// ---------------------------------------------------------------------------
// Session mechanics

TEST(Session, ReanalyzingUnchangedProgramIsSkipped) {
  obs::Registry reg;
  ir::Program p = kernels::buildKernel("gemm");
  AnalysisSession session({}, &reg);
  poly::DependenceCache deps;
  session.analyze(p, "<input>", deps);
  std::int64_t runsAfterFirst = reg.counter("analysis.runs").value();
  session.analyze(p, "noop-pass", deps);
  EXPECT_EQ(reg.counter("analysis.runs").value(), runsAfterFirst + 1);
  EXPECT_EQ(reg.counter("analysis.skipped_unchanged").value(), 1);
}

TEST(Session, LegalityReusedAcrossIteratorRename) {
  // Renaming an iterator changes the program text (so the full analysis
  // batch re-runs) but not the schedule or domains, so the legality
  // verifier — whose verdict is keyed on a rename-invariant hash — must
  // reuse the previous verdict instead of recomputing.
  obs::Registry reg;
  ir::Program p = kernels::buildKernel("gemm");
  AnalysisSession session({}, &reg);
  poly::DependenceCache deps;
  session.analyze(p, "<input>", deps);
  EXPECT_EQ(reg.counter("analysis.legality.reused_unchanged").value(), 0);

  auto loops = loopsOf(p, 0);
  ASSERT_FALSE(loops.empty());
  ir::renameIterInTree(loops[0], loops[0]->iter, "w9");
  session.analyze(p, "rename", deps);
  EXPECT_EQ(reg.counter("analysis.legality.reused_unchanged").value(), 1);
  EXPECT_FALSE(hasDiagnostic(session.engine(), Severity::Error, "legality",
                             "origin-mismatch"));

  // A domain change must invalidate the key: adding a redundant min-part to
  // a bound leaves behavior intact but alters the printed domain.
  auto loops2 = loopsOf(p, 0);
  ASSERT_GE(loops2.size(), 1u);
  loops2[0]->upper.parts.push_back(ir::AffExpr(1000000));
  session.analyze(p, "bound-change", deps);
  EXPECT_EQ(reg.counter("analysis.legality.reused_unchanged").value(), 1);
}

// ---------------------------------------------------------------------------
// Mutation corpus: the negative half of the contract

TEST(Mutations, EveryIllegalVariantIsCaughtByTheExpectedAnalysis) {
  auto outcomes = runMutationCorpus(
      [](const std::string& k) { return kernels::buildKernel(k); });
  EXPECT_FALSE(outcomes.empty());
  for (const auto& o : outcomes) {
    EXPECT_TRUE(o.cleanBefore)
        << o.mutation->name << ": pristine kernel not clean: " << o.note;
    EXPECT_TRUE(o.caught) << o.mutation->name << ": expected "
                          << o.mutation->expectAnalysis << "/"
                          << o.mutation->expectCode << ", got: " << o.note;
  }
  EXPECT_TRUE(allMutationsCaught(outcomes));
}

// ---------------------------------------------------------------------------
// Cross-check: static analyses vs the interpreter oracle over the suite.
// Both gates run on the same pipeline execution; on these (legal) presets
// they must agree — zero error diagnostics and zero oracle breaks. A
// disagreement in either direction is a bug in the checker or the oracle.

struct CrossCase {
  std::string kernel;
  std::string preset;
};

// Without this gtest prints the raw object bytes (heap pointers included),
// so the discovered CTest names would change on every relink.
void PrintTo(const CrossCase& c, std::ostream* os) {
  *os << '(' << c.kernel << ", " << c.preset << ')';
}

class StaticVsOracle : public ::testing::TestWithParam<CrossCase> {};

TEST_P(StaticVsOracle, AgreeProgramIsLegal) {
  const auto& param = GetParam();
  ir::Program p = kernels::buildKernel(param.kernel);
  auto params = oddParams(p);

  flow::PipelineOptions options;
  options.ast.tileSize = 3;  // small enough to exercise tiling at N=7
  options.ast.timeTileSize = 2;
  flow::PassPipeline pipe = flow::makePipeline(param.preset, options);

  AnalysisOptions aopt;
  aopt.witnessParams = params;
  auto session = std::make_shared<AnalysisSession>(aopt);
  pipe = flow::withAnalysis(pipe, session);

  flow::PassContext ctx;
  obs::Registry reg;
  ctx.metrics = &reg;
  ctx.verify.enabled = true;
  ctx.verify.continueAfterFailure = true;
  ctx.verify.makeContext = [params](const ir::Program& prog) {
    return kernels::makeContext(prog, params);
  };

  pipe.run(p, ctx);
  EXPECT_EQ(session->engine().errors(), 0u)
      << "static analysis flagged a legal pipeline:\n"
      << session->engine().summary();
  EXPECT_EQ(ctx.report.brokenPasses(), 0)
      << "oracle flagged a break the static analyses missed:\n"
      << ctx.report.summary();
}

std::vector<CrossCase> crossCases() {
  std::vector<CrossCase> cases;
  for (const auto& k : kernels::allKernels())
    for (const char* preset : {"polyast", "pocc"})
      cases.push_back({k.name, preset});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Suite, StaticVsOracle, ::testing::ValuesIn(crossCases()),
    [](const ::testing::TestParamInfo<CrossCase>& info) {
      std::string name = info.param.kernel + "_" + info.param.preset;
      for (auto& c : name)
        if (c == '-') c = '_';
      return name;
    });

}  // namespace
}  // namespace polyast::analysis
