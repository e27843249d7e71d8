#include "ir/cemit.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "exec/interp.hpp"
#include "flow/presets.hpp"
#include "kernels/polybench.hpp"

namespace polyast::ir {
namespace {

TEST(CEmit, GemmContainsExpectedPieces) {
  Program p = kernels::buildKernel("gemm");
  std::string src = emitC(p);
  EXPECT_NE(src.find("#define NI"), std::string::npos);
  EXPECT_NE(src.find("static double *C;"), std::string::npos);
  EXPECT_NE(src.find("polyast_seed(C, \"C\""), std::string::npos);
  EXPECT_NE(src.find("for (int64_t i = (0); i < (NI); i += 1)"),
            std::string::npos)
      << src;
  // Linearized access.
  EXPECT_NE(src.find("A[((i)) * (NK) + (k)]"), std::string::npos) << src;
}

TEST(CEmit, DoallGetsOpenmpPragma) {
  Program p = kernels::buildKernel("gemm");
  Program q = flow::makePipeline("polyast-noregtile").run(p);
  std::string src = emitC(q);
  EXPECT_NE(src.find("#pragma omp parallel for"), std::string::npos) << src;
  CEmitOptions noOmp;
  noOmp.openmp = false;
  std::string src2 = emitC(q, noOmp);
  EXPECT_EQ(src2.find("#pragma omp"), std::string::npos);
  EXPECT_NE(src2.find("/* polyast: doall */"), std::string::npos);
}

TEST(CEmit, PipelineMarkedAsComment) {
  Program p = kernels::buildKernel("seidel-2d");
  Program q = flow::makePipeline("polyast-notile").run(p);
  std::string src = emitC(q);
  // The mark comment carries the sync-chain depth the detector proved, so
  // a downstream pass knows which doacross construct the loop needs.
  EXPECT_NE(src.find("/* polyast: pipeline depth=3 */"), std::string::npos)
      << src;
}

TEST(CEmit, GuardsBecomeIfs) {
  Program p = kernels::buildKernel("gemm");
  flow::PipelineOptions o;
  o.ast.unrollInner = 2;
  Program q = flow::makePipeline("polyast", o).run(p);
  std::string src = emitC(q);
  EXPECT_NE(src.find("if ("), std::string::npos) << src;
}

/// End-to-end: emit C, compile it with the system compiler, run it, and
/// compare the checksum against the interpreter on identical seeds — for
/// both the original and the fully optimized program.
class CompileAndRun : public ::testing::TestWithParam<std::string> {};

namespace {

double interpreterChecksum(const Program& p) {
  exec::Context ctx(p);  // default (small) parameters, no prepare hooks —
  ctx.seedAll();         // mirrors the emitted main() exactly
  exec::run(p, ctx);
  double total = 0.0;
  for (const auto& a : p.arrays) {
    const auto& buf = ctx.buffer(a.name);
    double s = 0.0, w = 1.0;
    for (double x : buf) {
      s += w * x;
      w = (w >= 4.0) ? 1.0 : w + 1e-4;
    }
    total += s;
  }
  return total;
}

/// Compiles `src`, runs it, returns the reported total checksum (or
/// nullopt if no C compiler is available).
std::optional<double> compileRunChecksum(const std::string& src,
                                         const std::string& tag) {
  std::string base = "/tmp/polyast_cemit_" + tag;
  {
    std::ofstream f(base + ".c");
    f << src;
  }
  std::string compile = "cc -O2 -w -o " + base + " " + base + ".c -lm 2>/dev/null";
  if (std::system(compile.c_str()) != 0) return std::nullopt;
  std::string run = base + " > " + base + ".out";
  if (std::system(run.c_str()) != 0) return std::nullopt;
  std::ifstream out(base + ".out");
  std::string line;
  while (std::getline(out, line)) {
    if (line.rfind("total: ", 0) == 0)
      return std::stod(line.substr(7));
  }
  return std::nullopt;
}

}  // namespace

TEST_P(CompileAndRun, ChecksumMatchesInterpreter) {
  if (std::system("command -v cc > /dev/null 2>&1") != 0)
    GTEST_SKIP() << "no C compiler on PATH";
  Program p = kernels::buildKernel(GetParam());
  double want = interpreterChecksum(p);

  // Original program.
  CEmitOptions opt;
  opt.openmp = false;
  auto got = compileRunChecksum(emitC(p, opt), GetParam() + "_orig");
  ASSERT_TRUE(got.has_value()) << "compilation failed";
  EXPECT_NEAR(*got, want, 1e-6 * (std::abs(want) + 1.0));

  // Fully optimized program (same semantics, same seeds).
  flow::PipelineOptions fo;
  fo.ast.tileSize = 5;
  fo.ast.timeTileSize = 2;
  Program q = flow::makePipeline("polyast", fo).run(p);
  auto got2 = compileRunChecksum(emitC(q, opt), GetParam() + "_opt");
  ASSERT_TRUE(got2.has_value()) << "compilation of optimized code failed";
  EXPECT_NEAR(*got2, want, 1e-6 * (std::abs(want) + 1.0));
}

// cholesky and adi are excluded: with unconditioned random inputs (the
// emitted main seeds without the SPD / damping prepare hooks) they produce
// NaN on both sides, which EXPECT_NEAR cannot compare.
INSTANTIATE_TEST_SUITE_P(Kernels, CompileAndRun,
                         ::testing::Values("gemm", "2mm", "3mm", "atax",
                                           "mvt", "jacobi-1d-imper",
                                           "jacobi-2d-imper", "seidel-2d",
                                           "gesummv", "trisolv", "doitgen",
                                           "bicg", "syrk", "syr2k", "symm",
                                           "gemver", "covariance",
                                           "correlation", "fdtd-2d",
                                           "fdtd-apml"),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& c : n)
                             if (c == '-') c = '_';
                           return n;
                         });

}  // namespace
}  // namespace polyast::ir
