// Native execution backend: JIT-compiles a transformed Program into a
// shared object and runs the machine-code kernel on the shared-memory
// runtime.
//
// Pipeline per program: ir::emitNativeKernelTU emits a self-contained C
// TU (parallelism marks lowered to outlined bodies driven through the
// runtime/capi.hpp function-pointer table); the TU is compiled with the
// system C toolchain (`$POLYAST_JIT_CC`, `$CC`, or the first of cc/gcc/
// clang on PATH) into a shared object cached on disk under a
// content-hash key (source text + compile command + capi ABI version);
// the object is dlopen'd, its polyast_kernel_abi() stamp checked, and
// polyast_kernel_run driven with the Context's parameters and buffers on
// the caller's ThreadPool.
//
// This is the only executor that lowers parallelism marks onto the
// runtime; the interpreter runs programs sequentially.
//
// Degradation is graceful and observable: with no usable compiler, a
// failed compile, a dlopen/dlsym error, or POLYAST_JIT=off, run() falls
// back to the sequential interpreter (InterpBackend) — the report carries
// a note naming the reason, nativeFallbacks is set, and the
// exec.native.fallbacks metric is bumped. A fallback never silently
// changes results: both paths are differentially verified against the
// same oracle.
//
// When the host binary is itself built with ThreadSanitizer, kernels are
// compiled with -fsanitize=thread as well (detected at compile time; the
// flag is part of the compile command and therefore of the cache key).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "exec/backend.hpp"

namespace polyast::exec {

struct NativeBackendOptions {
  /// Shared-object cache directory. Empty → $POLYAST_JIT_CACHE →
  /// /tmp/polyast-jit-<uid>.
  std::string cacheDir;
  /// Extra flags appended to the compile command (tests use
  /// -Wextra -Werror to prove the emitted TU is warning-clean).
  std::vector<std::string> extraFlags;
  /// Behave as if POLYAST_JIT=off: never compile, always degrade.
  bool forceOff = false;
};

class NativeBackend : public Backend {
 public:
  explicit NativeBackend(NativeBackendOptions options = {});
  ~NativeBackend() override;

  std::string name() const override { return "native"; }

  /// Emit + compile + load (or reuse the cached object). Idempotent per
  /// program content; never throws — failure is recorded and the next
  /// run() degrades to the interpreter.
  void prepare(const ir::Program& program) override;

  ParallelRunReport run(const ir::Program& program, Context& ctx,
                        runtime::ThreadPool& pool,
                        obs::PerfAggregate* perf = nullptr) override;

  /// Why the most recently prepared program cannot run natively (empty
  /// when it can).
  std::string degradedReason() const;

  /// True when the most recently prepared program loaded the packed-SIMD
  /// TU (microkernel tags present and the toolchain accepted the vector
  /// extensions); false for scalar TUs, scalar retries and degradations.
  bool usedSimd() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Resolves the cache directory the options imply (creates nothing).
std::string jitCacheDir(const NativeBackendOptions& options);

/// True when $POLYAST_JIT is "off", "0" or "false".
bool jitDisabledByEnv();

}  // namespace polyast::exec
