// Suite-wide strict-vs-relaxed reduction parity.
//
// Under --reductions=relaxed the affine scheduler may reorder proven-pure
// accumulations, so relaxed schedules differ from strict ones — but every
// one of them must still agree with the sequential oracle on both
// execution backends, with no loop falling back to sequential execution
// and no native kernel degrading to the interpreter. Doall/pipeline
// execution reorders whole statement instances (bit-identical cells);
// reduction privatization reassociates the accumulated sums, so those
// runs get the backends' standard 1e-9 tolerance (Backend::toleranceFor).
//
// Alongside the 22 x {strict, relaxed} x {interp, native} parity sweep:
//   * the relaxation must actually widen the schedule space (at least
//     three kernels select a different schedule under relaxed),
//   * every relaxed schedule must pass the reduction soundness
//     re-verification pass with zero findings above remark level, and
//   * ReductionStress repeatedly re-executes the most reassociated
//     relaxed schedules on a contended pool — the entry the CI TSan job
//     picks up to prove the privatize+merge discharge is race-free.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "analysis/analysis.hpp"
#include "exec/backend.hpp"
#include "flow/presets.hpp"
#include "ir/ast.hpp"
#include "kernels/polybench.hpp"
#include "poly/schedule.hpp"
#include "runtime/parallel.hpp"

namespace polyast {
namespace {

bool haveCompiler() {
  return std::system("command -v cc > /dev/null 2>&1") == 0;
}

/// Test-scale parameters (same choice as polyastc --execute).
std::map<std::string, std::int64_t> testParams(const ir::Program& p) {
  std::map<std::string, std::int64_t> params;
  for (const auto& name : p.params)
    params[name] = name == "TSTEPS" ? 3 : 7;
  return params;
}

ir::Program transformed(const std::string& kernel, poly::ReductionMode mode) {
  flow::PipelineOptions opt;
  opt.affine.reductions = mode;
  ir::Program p = kernels::buildKernel(kernel);
  flow::PassContext ctx;
  return flow::makePipeline("polyast", opt).run(p, ctx);
}

const char* modeName(poly::ReductionMode mode) {
  return mode == poly::ReductionMode::Relaxed ? "relaxed" : "strict";
}

struct ParityCase {
  std::string kernel;
  poly::ReductionMode mode;
  std::string backend;
};

std::vector<ParityCase> parityCases() {
  std::vector<ParityCase> cases;
  for (const auto& k : kernels::allKernels())
    for (auto mode : {poly::ReductionMode::Strict, poly::ReductionMode::Relaxed})
      for (const char* backend : {"interp", "native"})
        cases.push_back({k.name, mode, backend});
  return cases;
}

std::string parityName(const ::testing::TestParamInfo<ParityCase>& info) {
  std::string name = info.param.kernel + "_" + modeName(info.param.mode) +
                     "_" + info.param.backend;
  for (char& c : name)
    if (c == '-') c = '_';
  return name;
}

class ReductionParity : public ::testing::TestWithParam<ParityCase> {};

TEST_P(ReductionParity, MatchesOracleWithoutFallbacks) {
  const ParityCase& c = GetParam();
  if (c.backend == "native" && !haveCompiler())
    GTEST_SKIP() << "no C compiler on PATH";

  ir::Program p = transformed(c.kernel, c.mode);
  auto params = testParams(p);
  runtime::ThreadPool pool(4);

  auto backend = exec::makeBackend(c.backend);
  exec::Context par = kernels::makeContext(p, params);
  exec::Context seq = kernels::makeContext(p, params);
  exec::ParallelRunReport rep;
  exec::VerifyResult check = backend->verify(p, par, seq, pool, &rep);

  // Bit-exact unless a privatizing construct reassociated a sum.
  EXPECT_TRUE(check.tolerance == 0.0 || check.tolerance == 1e-9);
  EXPECT_TRUE(check.passed())
      << c.kernel << "@" << modeName(c.mode) << "/" << c.backend
      << " diverged: max abs diff " << check.maxAbsDiff << " > tolerance "
      << check.tolerance;
  EXPECT_EQ(rep.sequentialFallbacks, 0) << rep.summary();
  EXPECT_EQ(rep.nativeFallbacks, 0) << rep.summary();
}

INSTANTIATE_TEST_SUITE_P(AllKernels, ReductionParity,
                         ::testing::ValuesIn(parityCases()), parityName);

/// The relaxation must widen the schedule space it licenses: several
/// kernels whose accumulation order pins the strict schedule select a
/// different (fused / interchanged) one once the proven-pure edges stop
/// constraining legality and the accumulator leaves the DL footprint.
TEST(ReductionRelaxation, WidensScheduleSelection) {
  std::vector<std::string> changed;
  for (const auto& k : kernels::allKernels()) {
    std::string strict =
        ir::printProgram(transformed(k.name, poly::ReductionMode::Strict));
    std::string relaxed =
        ir::printProgram(transformed(k.name, poly::ReductionMode::Relaxed));
    if (strict != relaxed) changed.push_back(k.name);
  }
  EXPECT_GE(changed.size(), 3u)
      << "relaxed mode changed no schedules beyond: " << changed.size();
}

/// Every relaxed schedule must be re-proven sound by the reductions pass:
/// each reduction-classified edge of the post-transform dependence graph
/// is either sequential inside one cell or lands in a construct the
/// executor privatizes. Zero findings above remark level, suite-wide.
TEST(ReductionRelaxation, RelaxedSchedulesReProven) {
  for (const auto& k : kernels::allKernels()) {
    ir::Program p = transformed(k.name, poly::ReductionMode::Relaxed);
    analysis::AnalysisOptions aopt;
    aopt.legality = aopt.races = aopt.bounds = false;
    aopt.reductions = true;
    aopt.relaxedReductions = true;
    analysis::AnalysisSession session(aopt);
    poly::DependenceCache deps;
    session.analyze(p, "final", deps);
    EXPECT_EQ(session.engine().errors(), 0u) << k.name;
    EXPECT_EQ(session.engine().warnings(), 0u) << k.name;
    // Capturing the baseline on an already-tiled (stepped) program emits
    // a benign legality/baseline-unusable remark; everything else must
    // come from the reductions pass.
    for (const auto& d : session.engine().diagnostics()) {
      if (d.code != "baseline-unusable") {
        EXPECT_EQ(d.analysis, "reductions") << d.str();
      }
    }
  }
}

/// Stress entry for the TSan CI job (ctest -R ReductionStress): the most
/// reassociated relaxed schedules, re-executed on a contended pool so
/// every privatize+merge path runs many times. It runs on the native
/// backend, the only parallel executor; in a TSan build the JIT compiles
/// the kernels with -fsanitize=thread too, so the detector sees the
/// kernel bodies. Correctness of the values is ReductionParity's job;
/// this test exists to give the race detector iterations to bite on.
TEST(ReductionStress, RelaxedPrivatizationUnderContention) {
  if (!haveCompiler()) GTEST_SKIP() << "no C compiler on PATH";
  runtime::ThreadPool pool(8);
  auto backend = exec::makeBackend("native");
  for (const char* name : {"gemm", "correlation", "doitgen", "gemver"}) {
    ir::Program p = transformed(name, poly::ReductionMode::Relaxed);
    auto params = testParams(p);
    for (int round = 0; round < 4; ++round) {
      exec::Context par = kernels::makeContext(p, params);
      exec::Context seq = kernels::makeContext(p, params);
      exec::ParallelRunReport rep;
      exec::VerifyResult check = backend->verify(p, par, seq, pool, &rep);
      ASSERT_TRUE(check.passed()) << name << " round " << round;
      ASSERT_EQ(rep.nativeFallbacks, 0) << rep.summary();
    }
  }
}

}  // namespace
}  // namespace polyast
