#include "exec/native_exec.hpp"

#include <dlfcn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "ir/cemit.hpp"
#include "obs/attrib.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/capi.hpp"
#include "support/error.hpp"

// The emitter and the shim must agree on the kernel ABI; bump both
// constants together (see runtime/capi.hpp).
static_assert(polyast::ir::kNativeKernelAbi == POLYAST_CAPI_ABI_VERSION,
              "ir/cemit.hpp and runtime/capi.hpp ABI versions diverged");

// A ThreadSanitizer host must run instrumented kernels too, or the race
// detector never sees the accesses the JIT'd parallel bodies make.
#if defined(__SANITIZE_THREAD__)
#define POLYAST_HOST_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define POLYAST_HOST_TSAN 1
#endif
#endif

namespace polyast::exec {

namespace {

namespace fs = std::filesystem;

using KernelEntry = void (*)(const polyast_kernel_args*);

std::string envOr(const char* name, const std::string& fallback) {
  const char* v = std::getenv(name);
  return (v && *v) ? v : fallback;
}

/// POSIX shell single-quoting: safe for any byte sequence including
/// spaces, quotes and metacharacters (a ' becomes '\'' ).
std::string shellQuote(const std::string& s) {
  std::string out = "'";
  for (char c : s) {
    if (c == '\'')
      out += "'\\''";
    else
      out += c;
  }
  out += "'";
  return out;
}

/// std::system with the wait status decoded: the raw return value is a
/// wait(2) status, not an exit code — comparing it to 0 happens to work
/// but misreads signal deaths. Returns the exit code, or -1 when the
/// shell could not run or the child died on a signal.
int runShell(const std::string& cmd) {
  const int rc = std::system(cmd.c_str());
  if (rc == -1) return -1;
  if (WIFEXITED(rc)) return WEXITSTATUS(rc);
  return -1;
}

/// First usable C compiler: $POLYAST_JIT_CC, $CC, then the first of
/// cc/gcc/clang on PATH. Empty when none exists. The env lookups stay
/// fresh per call (tests repoint $POLYAST_JIT_CC between backends); the
/// PATH scan is cached per process — it spawns a shell, which is
/// measurable in suites constructing hundreds of backends.
std::string findCompiler() {
  std::string fromEnv = envOr("POLYAST_JIT_CC", envOr("CC", ""));
  if (!fromEnv.empty()) return fromEnv;
  static const std::string scanned = []() -> std::string {
    for (const char* cand : {"cc", "gcc", "clang"})
      if (runShell(std::string("command -v ") + cand +
                   " >/dev/null 2>&1") == 0)
        return cand;
    return "";
  }();
  return scanned;
}

std::uint64_t fnv1a(std::uint64_t h, const std::string& s) {
  for (char c : s)
    h = (h ^ static_cast<std::uint64_t>(static_cast<unsigned char>(c))) *
        1099511628211ULL;
  return h;
}

/// Cache key: the TU text, the exact compile command shape, the compiler
/// identity/version probe, and the capi ABI version — any of them changing
/// must miss the cache. The version component is what keeps a cache
/// shared across toolchain upgrades honest: the same `cc` name pointing
/// at a different compiler must not serve stale objects.
std::string contentKey(const std::string& tu, const std::string& spec,
                       const std::string& compilerVersion) {
  std::uint64_t h = 1469598103934665603ULL;
  h = fnv1a(h, tu);
  h = fnv1a(h, "\x1f");
  h = fnv1a(h, spec);
  h = fnv1a(h, "\x1f");
  h = fnv1a(h, compilerVersion);
  h = fnv1a(h, "\x1f");
  h = fnv1a(h, std::to_string(POLYAST_CAPI_ABI_VERSION));
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

std::string readFileTail(const std::string& path, std::size_t maxBytes) {
  std::ifstream in(path);
  if (!in) return "";
  std::stringstream ss;
  ss << in.rdbuf();
  std::string text = ss.str();
  while (!text.empty() && (text.back() == '\n' || text.back() == '\r'))
    text.pop_back();
  if (text.size() > maxBytes)
    text = "..." + text.substr(text.size() - maxBytes);
  for (char& c : text)
    if (c == '\n') c = ' ';
  return text;
}

struct LoadedKernel {
  void* handle = nullptr;
  KernelEntry entry = nullptr;
  std::string error;  ///< why this program cannot run natively
  /// Stable category of `error` for metrics ("disabled", "no-compiler",
  /// "cache-io", "compile-error", "simd-compile-error", "dlopen-error",
  /// "dlsym-error", "abi-mismatch"); empty when the kernel loaded.
  std::string errorKind;
  /// Informational note attached to every run of this kernel (set on the
  /// scalar retry kernel when the toolchain rejected the SIMD TU).
  std::string note;
  /// Consumed by the next run()'s report, so bench loops that reuse a
  /// prepared kernel do not re-report the one-time compile every
  /// iteration.
  std::int64_t pendingCompiles = 0;
  std::int64_t pendingCacheHits = 0;
};

}  // namespace

struct NativeBackend::Impl {
  NativeBackendOptions opts;
  bool disabled = false;
  std::string disabledReason;
  std::string compiler;
  std::map<std::string, LoadedKernel> kernels;  // by content key
  std::string lastReason;  ///< degradedReason() of the latest prepare
  bool lastUsedSimd = false;  ///< latest prepared kernel is the SIMD TU

  /// Compiler identity probe (`cc --version`), folded into every cache
  /// key. Cached per backend instance — not per process — so tests (and
  /// long-lived hosts) that swap the toolchain behind an unchanged name
  /// observe fresh keys from a fresh backend.
  bool versionProbed = false;
  std::string compilerVersion;

  /// Lazy `-march=native` acceptance probe for SIMD TUs (rejected by e.g.
  /// aarch64 gcc, where the spelling is -mcpu). Probed at most once.
  bool marchProbed = false;
  std::string marchFlag;

  ~Impl() {
    for (auto& [key, k] : kernels)
      if (k.handle) dlclose(k.handle);
  }

  const std::string& compilerVersionId() {
    if (versionProbed || compiler.empty()) return compilerVersion;
    versionProbed = true;
    // The compiler string may legitimately carry flags ($CC="gcc -m32"),
    // so it is interpolated unquoted, like the compile command itself.
    FILE* p = popen((compiler + " --version 2>&1").c_str(), "r");
    if (p) {
      char buf[256];
      while (std::fgets(buf, sizeof(buf), p)) compilerVersion += buf;
      pclose(p);
    }
    return compilerVersion;
  }

  const std::string& nativeArchFlag() {
    if (marchProbed || compiler.empty()) return marchFlag;
    marchProbed = true;
    const fs::path dir = jitCacheDir(opts);
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec) return marchFlag;
    const std::string stem = "march-probe-" + std::to_string(getpid());
    const fs::path src = dir / (stem + ".c");
    const fs::path out = dir / (stem + ".so");
    {
      std::ofstream o(src);
      o << "int polyast_march_probe;\n";
      if (!o) return marchFlag;
    }
    const std::string cmd = compiler +
                            " -std=c11 -O2 -fPIC -shared -march=native -o " +
                            shellQuote(out.string()) + " " +
                            shellQuote(src.string()) + " >/dev/null 2>&1";
    if (runShell(cmd) == 0) marchFlag = " -march=native";
    fs::remove(src, ec);
    fs::remove(out, ec);
    return marchFlag;
  }

  std::string compileSpec(bool simdTu) {
    std::string spec =
        compiler + " -std=c11 -O2 -fPIC -shared -ffp-contract=off -Wall";
    if (simdTu) spec += " -fopenmp-simd" + nativeArchFlag();
#ifdef POLYAST_HOST_TSAN
    // Part of the spec, hence of the cache key: instrumented and plain
    // objects never share a cache entry.
    spec += " -fsanitize=thread";
#endif
    for (const auto& f : opts.extraFlags) spec += " " + f;
    return spec;
  }

  /// Emit the right TU shape for the program and load it, retrying a
  /// toolchain-rejected SIMD TU with the scalar TU (still a native run —
  /// the interpreter fallback is only for kernels that cannot load at
  /// all).
  LoadedKernel& prepareProgram(const ir::Program& program) {
    if (ir::programHasMicroKernels(program)) {
      LoadedKernel& k = prepareTu(ir::emitNativeKernelTU(program), true);
      if (k.entry || k.errorKind != "simd-compile-error") {
        lastUsedSimd = k.entry != nullptr;
        return k;
      }
      ir::NativeTUOptions scalarOpt;
      scalarOpt.simd = false;
      LoadedKernel& s =
          prepareTu(ir::emitNativeKernelTU(program, scalarOpt), false);
      if (s.note.empty())
        s.note = "native simd TU rejected by toolchain"
                 " [simd-compile-error]; running scalar native: " +
                 k.error;
      lastUsedSimd = false;
      return s;
    }
    lastUsedSimd = false;
    return prepareTu(ir::emitNativeKernelTU(program), false);
  }

  LoadedKernel& prepareTu(const std::string& tu, bool simdTu) {
    const std::string key =
        contentKey(tu, disabled ? "off" : compileSpec(simdTu),
                   disabled ? "" : compilerVersionId());
    auto [it, fresh] = kernels.try_emplace(key);
    LoadedKernel& k = *&it->second;
    if (!fresh) {
      lastReason = k.error;
      return k;
    }
    if (disabled) {
      k.error = disabledReason;
      k.errorKind = "disabled";
      lastReason = k.error;
      return k;
    }
    if (compiler.empty()) {
      k.error =
          "no C compiler found (tried $POLYAST_JIT_CC, $CC, cc, gcc, clang)";
      k.errorKind = "no-compiler";
      lastReason = k.error;
      return k;
    }

    const fs::path dir = jitCacheDir(opts);
    const fs::path so = dir / (key + ".so");
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec) {
      k.error = "cannot create JIT cache dir " + dir.string() + ": " +
                ec.message();
      k.errorKind = "cache-io";
      lastReason = k.error;
      return k;
    }

    if (fs::exists(so, ec)) {
      k.pendingCacheHits = 1;
    } else {
      const fs::path src = dir / (key + ".c");
      const fs::path log = dir / (key + ".log");
      const fs::path tmp =
          dir / (key + ".so.tmp." + std::to_string(getpid()));
      {
        std::ofstream out(src);
        out << tu;
        if (!out) {
          k.error = "cannot write " + src.string();
          k.errorKind = "cache-io";
          lastReason = k.error;
          return k;
        }
      }
      // Compile to a private temp name, then rename: concurrent processes
      // racing on one cache entry each publish a complete object.
      const std::string cmd = compileSpec(simdTu) + " -o " +
                              shellQuote(tmp.string()) + " " +
                              shellQuote(src.string()) + " -lm 2>" +
                              shellQuote(log.string());
      if (runShell(cmd) != 0) {
        k.error = "compile failed (" + compiler +
                  "): " + readFileTail(log.string(), 400);
        k.errorKind = simdTu ? "simd-compile-error" : "compile-error";
        if (simdTu) {
          auto& m = obs::Registry::global();
          m.counter("exec.native.fallback.simd-compile-error").add(1);
          m.note("exec.native.simd_degraded", k.error);
        }
        lastReason = k.error;
        return k;
      }
      fs::rename(tmp, so, ec);
      if (ec) {
        k.error = "cannot publish " + so.string() + ": " + ec.message();
        k.errorKind = "cache-io";
        lastReason = k.error;
        return k;
      }
      k.pendingCompiles = 1;
    }

    k.handle = dlopen(so.c_str(), RTLD_NOW | RTLD_LOCAL);
    if (!k.handle) {
      const char* err = dlerror();
      k.error = std::string("dlopen failed: ") + (err ? err : "(unknown)");
      k.errorKind = "dlopen-error";
      lastReason = k.error;
      return k;
    }
    auto abi = reinterpret_cast<std::int64_t (*)(void)>(
        dlsym(k.handle, "polyast_kernel_abi"));
    auto entry =
        reinterpret_cast<KernelEntry>(dlsym(k.handle, "polyast_kernel_run"));
    if (!abi || !entry) {
      k.error = "dlsym failed: kernel entry points missing";
      k.errorKind = "dlsym-error";
    } else if (abi() != POLYAST_CAPI_ABI_VERSION) {
      k.error = "kernel ABI v" + std::to_string(abi()) +
                " does not match runtime ABI v" +
                std::to_string(POLYAST_CAPI_ABI_VERSION);
      k.errorKind = "abi-mismatch";
    } else {
      k.entry = entry;
    }
    if (!k.error.empty()) {
      dlclose(k.handle);
      k.handle = nullptr;
      // A published object that loads but exports the wrong (or no) kernel
      // ABI can only be a stale artifact (e.g. written by an older build
      // whose cache key hashed the same inputs differently) — evict it so
      // the next backend instance recompiles instead of re-degrading on
      // every run forever.
      std::error_code evictEc;
      if (fs::remove(so, evictEc))
        k.error += " (evicted stale " + so.filename().string() + ")";
    }
    lastReason = k.error;
    return k;
  }
};

NativeBackend::NativeBackend(NativeBackendOptions options)
    : impl_(std::make_unique<Impl>()) {
  impl_->opts = std::move(options);
  if (impl_->opts.forceOff) {
    impl_->disabled = true;
    impl_->disabledReason = "native JIT forced off";
  } else if (jitDisabledByEnv()) {
    impl_->disabled = true;
    impl_->disabledReason = "native JIT disabled by POLYAST_JIT";
  } else {
    impl_->compiler = findCompiler();
  }
}

NativeBackend::~NativeBackend() = default;

void NativeBackend::prepare(const ir::Program& program) {
  impl_->prepareProgram(program);
}

std::string NativeBackend::degradedReason() const {
  return impl_->lastReason;
}

bool NativeBackend::usedSimd() const { return impl_->lastUsedSimd; }

ParallelRunReport NativeBackend::run(const ir::Program& program,
                                     Context& ctx,
                                     runtime::ThreadPool& pool,
                                     obs::PerfAggregate* perf) {
  LoadedKernel& k = impl_->prepareProgram(program);
  if (!k.entry) {
    // Degrade to the sequential interpreter (which records its own run
    // metrics), and make the degradation itself observable.
    ParallelRunReport report = InterpBackend().run(program, ctx, pool, perf);
    report.nativeFallbacks = 1;
    report.notes.push_back("native backend degraded to interpreter [" +
                           k.errorKind + "]: " + k.error);
    auto& m = obs::Registry::global();
    m.counter("exec.native.fallbacks").add(1);
    m.note("exec.native.degraded", k.error);
    // The stable category ("no-compiler", "compile-error", "dlopen-error",
    // "abi-mismatch", ...) as its own named note, so --obs-summary readers
    // and dashboards can key on *why* without parsing the prose.
    m.note("exec.native.degraded_reason", k.errorKind);
    m.counter("exec.native.fallback." + k.errorKind).add(1);
    return report;
  }

  obs::Span span(obs::Tracer::global(), "exec.parallel", "exec");
  span.attr("program", program.name);
  span.attr("threads", static_cast<std::int64_t>(pool.threadCount()));
  span.attr("backend", "native");

  std::vector<std::int64_t> params;
  params.reserve(program.params.size());
  for (const auto& name : program.params) params.push_back(ctx.param(name));
  std::vector<double*> buffers;
  buffers.reserve(program.arrays.size());
  for (const auto& a : program.arrays)
    buffers.push_back(ctx.buffer(a.name).data());

  polyast_kernel_args args;
  args.params = params.data();
  args.buffers = buffers.data();
  args.pool = &pool;
  args.rt = polyast_runtime_api_get();

  runtime::capi::resetRunCounters();
  if (perf) pool.runOnAll([&](unsigned) { perf->beginThread(); });
  // Per-construct attribution: the kernel reports construct boundaries
  // back through args.rt->construct_enter/exit on this (driving) thread.
  obs::ConstructProfiler* cprof = obs::ConstructProfiler::current();
  if (cprof) cprof->beginRun("native");
  k.entry(&args);
  if (cprof) cprof->endRun();
  if (perf) pool.runOnAll([&](unsigned) { perf->endThread(); });
  const runtime::capi::RunCounters counters =
      runtime::capi::takeRunCounters();

  ParallelRunReport report;
  report.backend = "native";
  report.doallLoops = counters.doallLoops;
  report.guidedLoops = counters.guidedLoops;
  report.reductionLoops = counters.reductionLoops;
  report.pipelineLoops = counters.pipelineLoops;
  report.pipelineDynamicLoops = counters.pipelineDynamicLoops;
  report.pipeline3dLoops = counters.pipeline3dLoops;
  report.reductionPipelineLoops = counters.reductionPipelineLoops;
  report.sequentialFallbacks = counters.sequentialFallbacks;
  report.notes = counters.notes;
  if (!k.note.empty()) report.notes.push_back(k.note);
  report.nativeCompiles = k.pendingCompiles;
  report.nativeCacheHits = k.pendingCacheHits;
  k.pendingCompiles = 0;
  k.pendingCacheHits = 0;
  recordRunMetrics(report);
  return report;
}

std::string jitCacheDir(const NativeBackendOptions& options) {
  if (!options.cacheDir.empty()) return options.cacheDir;
  std::string fromEnv = envOr("POLYAST_JIT_CACHE", "");
  if (!fromEnv.empty()) return fromEnv;
  return "/tmp/polyast-jit-" + std::to_string(getuid());
}

bool jitDisabledByEnv() {
  const char* v = std::getenv("POLYAST_JIT");
  if (!v) return false;
  const std::string s = v;
  return s == "off" || s == "0" || s == "false";
}

}  // namespace polyast::exec
