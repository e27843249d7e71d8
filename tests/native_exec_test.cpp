#include "exec/native_exec.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "exec/backend.hpp"
#include "flow/presets.hpp"
#include "ir/cemit.hpp"
#include "kernels/polybench.hpp"
#include "obs/attrib.hpp"
#include "runtime/parallel.hpp"

namespace polyast::exec {
namespace {

bool haveCompiler() {
  return std::system("command -v cc > /dev/null 2>&1") == 0;
}

/// Cache directory, fresh on every call so compile/cache counter
/// assertions are deterministic. Every one is removed at process exit, so
/// runs leave no compiled objects behind.
std::string freshCacheDir() {
  struct Dirs {
    std::vector<std::string> paths;
    ~Dirs() {
      for (const auto& path : paths) {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
      }
    }
  };
  static Dirs dirs;
  char tmpl[] = "/tmp/polyast_native_test_XXXXXX";
  char* dir = mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  if (!dir) return "/tmp/polyast_native_test_fallback";
  dirs.paths.emplace_back(dir);
  return dirs.paths.back();
}

/// Test-scale parameters (same choice as polyastc --execute): small, but
/// enough trips for every loop kind to fire.
std::map<std::string, std::int64_t> testParams(const ir::Program& p) {
  std::map<std::string, std::int64_t> params;
  for (const auto& name : p.params)
    params[name] = name == "TSTEPS" ? 3 : 7;
  return params;
}

ir::Program transformed(const std::string& kernel,
                        const std::string& pipeline) {
  ir::Program p = kernels::buildKernel(kernel);
  flow::PassContext ctx;
  return flow::makePipeline(pipeline).run(p, ctx);
}

NativeBackendOptions strictOptions(const std::string& cacheDir) {
  NativeBackendOptions opts;
  opts.cacheDir = cacheDir;
  // The emitted TU must be warning-clean even under -Wextra.
  opts.extraFlags = {"-Wextra", "-Werror"};
  return opts;
}

/// Every kernel x both flows: the native run must match the sequential
/// oracle within the reduction tolerance, must not degrade or fall back,
/// must report the same construct rows as the sequential interpreter
/// backend (the arbiter) on the same program, and its construct counters
/// must account for exactly those rows' encounters.
class NativeVsInterp
    : public ::testing::TestWithParam<std::pair<std::string, std::string>> {
};

TEST_P(NativeVsInterp, MatchesOracleAndInterpCounters) {
  if (!haveCompiler()) GTEST_SKIP() << "no C compiler on PATH";
  const auto& [kernel, pipeline] = GetParam();
  static std::string cacheDir = freshCacheDir();

  ir::Program p = transformed(kernel, pipeline);
  auto params = testParams(p);
  runtime::ThreadPool pool(4);

  NativeBackend native(strictOptions(cacheDir));
  native.prepare(p);
  ASSERT_EQ(native.degradedReason(), "");

  // Attribution parity rides along: with a profiler installed, the JIT
  // kernel must report the same construct rows through the ABI-v2 hooks
  // as the sequential interpreter does through direct calls.
  obs::ConstructProfiler prof;
  prof.install();

  Context ctx = kernels::makeContext(p, params);
  Context oracle = kernels::makeContext(p, params);
  ParallelRunReport rep;
  VerifyResult check = native.verify(p, ctx, oracle, pool, &rep);
  EXPECT_TRUE(check.passed())
      << kernel << "/" << pipeline << ": maxAbsDiff=" << check.maxAbsDiff
      << " tolerance=" << check.tolerance;
  EXPECT_EQ(rep.backend, "native");
  EXPECT_EQ(rep.nativeFallbacks, 0) << rep.summary();
  EXPECT_EQ(prof.backend(), "native");
  std::vector<obs::ConstructRow> nativeRows = prof.rows();

  InterpBackend interp;
  Context ictx = kernels::makeContext(p, params);
  ParallelRunReport irep = interp.run(p, ictx, pool);
  EXPECT_EQ(prof.backend(), "interp");
  std::vector<obs::ConstructRow> interpRows = prof.rows();
  prof.uninstall();

  ASSERT_EQ(nativeRows.size(), interpRows.size())
      << kernel << "/" << pipeline;
  for (std::size_t i = 0; i < nativeRows.size(); ++i) {
    EXPECT_EQ(nativeRows[i].id, interpRows[i].id);
    EXPECT_EQ(nativeRows[i].kind, interpRows[i].kind);
    EXPECT_EQ(nativeRows[i].iter, interpRows[i].iter);
    EXPECT_EQ(nativeRows[i].enters, interpRows[i].enters)
        << kernel << "/" << pipeline << " construct " << nativeRows[i].id;
  }

  EXPECT_EQ(irep.backend, "interp");
  EXPECT_EQ(rep.sequentialFallbacks, 0) << rep.summary();

  // Counter identity (ir/cemit.cpp spawn sites, counted in
  // runtime/capi.cpp): every construct_enter is followed by exactly one
  // kind count — DOALL, REDUCTION (also when a reduction without an
  // accumulate-only array runs as a plain doall), PIPELINE or
  // REDUCTION_PIPELINE — or by one count_fallback. GUIDED is counted only
  // on top of a DOALL, PIPELINE_3D / PIPELINE_DYNAMIC only on top of a
  // (reduction) pipeline, so they are subsets and not summed.
  std::int64_t enters = 0;
  for (const auto& row : nativeRows) enters += row.enters;
  EXPECT_EQ(rep.doallLoops + rep.reductionLoops + rep.pipelineLoops +
                rep.reductionPipelineLoops + rep.sequentialFallbacks,
            enters)
      << kernel << "/" << pipeline << ": " << rep.summary();
  EXPECT_LE(rep.guidedLoops, rep.doallLoops);
  EXPECT_LE(rep.pipeline3dLoops + rep.pipelineDynamicLoops,
            rep.pipelineLoops + rep.reductionPipelineLoops);
}

std::vector<std::pair<std::string, std::string>> allCases() {
  std::vector<std::pair<std::string, std::string>> cases;
  for (const auto& k : kernels::allKernels())
    for (const char* pipeline : {"polyast", "polyast-notile"})
      cases.emplace_back(k.name, pipeline);
  return cases;
}

std::string caseName(
    const ::testing::TestParamInfo<std::pair<std::string, std::string>>&
        info) {
  std::string s = info.param.first + "_" + info.param.second;
  for (char& c : s)
    if (c == '-') c = '_';
  return s;
}

INSTANTIATE_TEST_SUITE_P(AllKernels, NativeVsInterp,
                         ::testing::ValuesIn(allCases()), caseName);

/// The oracle is hookless, the interpreter backend brackets: with a
/// profiler installed and a run open, exec::run (Backend::verify's oracle)
/// records no construct row, while InterpBackend::run records exactly one
/// row per ir::collectParallelConstructs entry and leaves buffers
/// bit-identical to the oracle's. Needs no compiler.
TEST(InterpBackend, OracleIsHooklessBackendBrackets) {
  runtime::ThreadPool pool(2);
  for (const char* kernel : {"gemm", "seidel-2d"}) {
    ir::Program p = transformed(kernel, "polyast");
    auto params = testParams(p);
    const std::vector<ir::ParallelConstruct> constructs =
        ir::collectParallelConstructs(p);
    ASSERT_FALSE(constructs.empty()) << kernel;

    obs::ConstructProfiler prof;
    prof.install();
    Context oracle = kernels::makeContext(p, params);
    prof.beginRun("oracle");
    run(p, oracle);
    prof.endRun();
    EXPECT_TRUE(prof.rows().empty()) << kernel << ": oracle fired hooks";

    InterpBackend interp;
    Context ctx = kernels::makeContext(p, params);
    ParallelRunReport rep = interp.run(p, ctx, pool);
    std::vector<obs::ConstructRow> rows = prof.rows();
    EXPECT_EQ(prof.backend(), "interp");
    prof.uninstall();

    ASSERT_EQ(rows.size(), constructs.size()) << kernel;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(rows[i].id, constructs[i].id);
      EXPECT_EQ(rows[i].kind,
                ir::parallelKindName(constructs[i].loop->parallel));
      EXPECT_EQ(rows[i].iter, constructs[i].loop->iter);
      EXPECT_GE(rows[i].enters, 1);
    }
    EXPECT_EQ(rep.backend, "interp");
    EXPECT_EQ(Backend::toleranceFor(rep), 0.0);
    for (const auto& a : p.arrays) {
      const std::vector<double>& got = ctx.buffer(a.name);
      const std::vector<double>& want = oracle.buffer(a.name);
      ASSERT_EQ(got.size(), want.size());
      EXPECT_EQ(std::memcmp(got.data(), want.data(),
                            got.size() * sizeof(double)),
                0)
          << kernel << ": array " << a.name << " differs from the oracle";
    }
  }
}

/// Steady-state check at verification scale: the spatial extents cross
/// two full tiles plus a remainder, the time extent the time-tile size,
/// so the tiled fast path (not just boundary cases) runs natively.
TEST(NativeExec, VerificationScaleGemmAndSeidel) {
  if (!haveCompiler()) GTEST_SKIP() << "no C compiler on PATH";
  std::string cacheDir = freshCacheDir();
  runtime::ThreadPool pool(4);
  for (const char* kernel : {"gemm", "seidel-2d"}) {
    ir::Program p = transformed(kernel, "polyast");
    std::map<std::string, std::int64_t> params;
    for (const auto& name : p.params)
      params[name] = name == "TSTEPS" ? 7 : 69;  // 2*tile+5, timeTile+2
    NativeBackend native(strictOptions(cacheDir));
    Context ctx = kernels::makeContext(p, params);
    Context oracle = kernels::makeContext(p, params);
    ParallelRunReport rep;
    VerifyResult check = native.verify(p, ctx, oracle, pool, &rep);
    EXPECT_TRUE(check.passed())
        << kernel << ": maxAbsDiff=" << check.maxAbsDiff;
    EXPECT_EQ(rep.nativeFallbacks, 0) << rep.summary();
  }
}

TEST(NativeExec, CacheHitOnSecondBackend) {
  if (!haveCompiler()) GTEST_SKIP() << "no C compiler on PATH";
  std::string cacheDir = freshCacheDir();
  ir::Program p = transformed("gemm", "polyast");
  auto params = testParams(p);
  runtime::ThreadPool pool(2);

  NativeBackend first(strictOptions(cacheDir));
  Context c1 = kernels::makeContext(p, params);
  ParallelRunReport r1 = first.run(p, c1, pool);
  EXPECT_EQ(r1.nativeCompiles, 1);
  EXPECT_EQ(r1.nativeCacheHits, 0);

  // Same program content in a fresh backend instance: the shared object
  // is reused from disk, nothing recompiles.
  NativeBackend second(strictOptions(cacheDir));
  Context c2 = kernels::makeContext(p, params);
  ParallelRunReport r2 = second.run(p, c2, pool);
  EXPECT_EQ(r2.nativeCompiles, 0);
  EXPECT_EQ(r2.nativeCacheHits, 1);

  // Compile/cache-hit counts are consume-once: a re-run of an already
  // loaded kernel reports neither.
  Context c3 = kernels::makeContext(p, params);
  ParallelRunReport r3 = second.run(p, c3, pool);
  EXPECT_EQ(r3.nativeCompiles, 0);
  EXPECT_EQ(r3.nativeCacheHits, 0);
}

/// A cached shared object stamped with an older kernel ABI must be
/// evicted, not retried: the run that finds it degrades once (with the
/// abi-mismatch reason), deletes it, and the next backend instance
/// recompiles instead of re-degrading forever.
TEST(NativeExec, StaleAbiObjectIsEvictedNotRetried) {
  if (!haveCompiler()) GTEST_SKIP() << "no C compiler on PATH";
  namespace fs = std::filesystem;
  std::string cacheDir = freshCacheDir();
  ir::Program p = transformed("gemm", "polyast");
  auto params = testParams(p);
  runtime::ThreadPool pool(2);

  {
    // Scoped: the backend must dlclose its handle before the overwrite
    // below, or dlopen would hand the later instance the already-loaded
    // image for the same path instead of re-reading the file.
    NativeBackend first(strictOptions(cacheDir));
    Context c1 = kernels::makeContext(p, params);
    ParallelRunReport r1 = first.run(p, c1, pool);
    ASSERT_EQ(r1.nativeCompiles, 1);
    ASSERT_EQ(r1.nativeFallbacks, 0) << r1.summary();
  }

  // Overwrite the cached object with one stamped with the previous ABI,
  // as if it survived from before the hook-table bump.
  std::string so;
  for (const auto& e : fs::directory_iterator(cacheDir))
    if (e.path().extension() == ".so") so = e.path().string();
  ASSERT_FALSE(so.empty());
  std::string staleSrc = cacheDir + "/stale_abi.c";
  {
    std::ofstream f(staleSrc);
    f << "#include <stdint.h>\n"
         "int64_t polyast_kernel_abi(void) { return "
      << (ir::kNativeKernelAbi - 1)
      << "; }\n"
         "void polyast_kernel_run(const void* a) { (void)a; }\n";
  }
  std::string compile =
      "cc -shared -fPIC -O0 -o " + so + " " + staleSrc;
  ASSERT_EQ(std::system(compile.c_str()), 0);

  NativeBackend second(strictOptions(cacheDir));
  Context c2 = kernels::makeContext(p, params);
  ParallelRunReport r2 = second.run(p, c2, pool);
  EXPECT_EQ(r2.backend, "interp");
  EXPECT_EQ(r2.nativeFallbacks, 1);
  bool noted = false;
  for (const auto& n : r2.notes)
    if (n.find("abi-mismatch") != std::string::npos &&
        n.find("evicted") != std::string::npos)
      noted = true;
  EXPECT_TRUE(noted) << r2.summary();
  EXPECT_FALSE(fs::exists(so)) << "stale object still in the cache";

  NativeBackend third(strictOptions(cacheDir));
  Context c3 = kernels::makeContext(p, params);
  ParallelRunReport r3 = third.run(p, c3, pool);
  EXPECT_EQ(r3.backend, "native");
  EXPECT_EQ(r3.nativeCompiles, 1) << "eviction must force a recompile";
  EXPECT_EQ(r3.nativeFallbacks, 0) << r3.summary();
}

/// Regression for the stale-compiler cache-key bug: the shared-object
/// key must incorporate the compiler's identity probe (`--version`
/// output), so a toolchain upgrade — or a $POLYAST_JIT_CC switch between
/// same-named wrappers — recompiles instead of reusing an object built
/// by the old compiler. Same version → cache hit; changed version under
/// the identical compile command → recompile.
TEST(NativeExec, CompilerVersionChangeInvalidatesCacheKey) {
  if (!haveCompiler()) GTEST_SKIP() << "no C compiler on PATH";
  std::string cacheDir = freshCacheDir();
  std::string wrapper = cacheDir + "/cc-wrapper";
  auto writeWrapper = [&](const std::string& version) {
    {
      std::ofstream f(wrapper);
      f << "#!/bin/sh\n"
           "if [ \"$1\" = \"--version\" ]; then echo '"
        << version
        << "'; exit 0; fi\n"
           "exec cc \"$@\"\n";
    }
    std::filesystem::permissions(wrapper,
                                 std::filesystem::perms::owner_all |
                                     std::filesystem::perms::group_read |
                                     std::filesystem::perms::others_read);
  };
  writeWrapper("polyast test toolchain 1.0");
  const char* oldCc = std::getenv("POLYAST_JIT_CC");
  const std::string saved = oldCc ? oldCc : "";
  setenv("POLYAST_JIT_CC", wrapper.c_str(), 1);

  ir::Program p = transformed("gemm", "polyast");
  auto params = testParams(p);
  runtime::ThreadPool pool(2);

  {
    NativeBackend first(strictOptions(cacheDir));
    Context c1 = kernels::makeContext(p, params);
    ParallelRunReport r1 = first.run(p, c1, pool);
    EXPECT_EQ(r1.backend, "native") << r1.summary();
    EXPECT_EQ(r1.nativeCompiles, 1);
  }
  {
    // Same wrapper, same version: the probe is part of the key but
    // stable, so the object is reused.
    NativeBackend second(strictOptions(cacheDir));
    Context c2 = kernels::makeContext(p, params);
    ParallelRunReport r2 = second.run(p, c2, pool);
    EXPECT_EQ(r2.nativeCompiles, 0);
    EXPECT_EQ(r2.nativeCacheHits, 1);
  }
  writeWrapper("polyast test toolchain 2.0");
  {
    // Identical compile command, different --version output: the key
    // must change, so the stale object is NOT reused.
    NativeBackend third(strictOptions(cacheDir));
    Context c3 = kernels::makeContext(p, params);
    ParallelRunReport r3 = third.run(p, c3, pool);
    EXPECT_EQ(r3.backend, "native") << r3.summary();
    EXPECT_EQ(r3.nativeCompiles, 1) << "stale-compiler object reused";
    EXPECT_EQ(r3.nativeCacheHits, 0);
  }

  if (oldCc)
    setenv("POLYAST_JIT_CC", saved.c_str(), 1);
  else
    unsetenv("POLYAST_JIT_CC");
}

TEST(NativeExec, ForcedOffDegradesToInterp) {
  ir::Program p = transformed("gemm", "polyast");
  auto params = testParams(p);
  runtime::ThreadPool pool(2);

  NativeBackendOptions opts;
  opts.forceOff = true;
  NativeBackend native(opts);
  native.prepare(p);
  EXPECT_NE(native.degradedReason(), "");

  Context ctx = kernels::makeContext(p, params);
  Context oracle = kernels::makeContext(p, params);
  ParallelRunReport rep;
  VerifyResult check = native.verify(p, ctx, oracle, pool, &rep);
  // Degradation must still produce correct results via the interpreter.
  EXPECT_TRUE(check.passed());
  EXPECT_EQ(rep.backend, "interp");
  EXPECT_EQ(rep.nativeFallbacks, 1);
  bool noted = false;
  for (const auto& n : rep.notes)
    if (n.find("degraded to interpreter") != std::string::npos) noted = true;
  EXPECT_TRUE(noted) << rep.summary();
}

/// Satellite contract for CEmitOptions::withMain=false: a kernel-only
/// benchmark TU (no main, no seeder) that compiles standalone under
/// -Wall -Werror.
TEST(NativeExec, KernelOnlyTuCompilesWarningClean) {
  if (!haveCompiler()) GTEST_SKIP() << "no C compiler on PATH";
  ir::Program p = transformed("gemm", "polyast");
  ir::CEmitOptions opts;
  opts.openmp = false;
  opts.withMain = false;
  std::string src = ir::emitC(p, opts);
  EXPECT_EQ(src.find("int main"), std::string::npos);
  EXPECT_EQ(src.find("polyast_seed"), std::string::npos);

  std::string base = freshCacheDir() + "/kernel_only";
  {
    std::ofstream f(base + ".c");
    f << src;
  }
  std::string compile = "cc -c -std=c11 -O2 -Wall -Werror -o " + base +
                        ".o " + base + ".c";
  EXPECT_EQ(std::system(compile.c_str()), 0) << src;
}

}  // namespace
}  // namespace polyast::exec
