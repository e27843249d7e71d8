// C source emission: turns a Program (original or transformed) into C
// source — the source-to-source output of the compiler (the paper's
// methodology: the polyhedral/AST flow emits C, ICC/XLC does the backend
// work).
//
// Two translation-unit shapes are produced on top of one shared kernel
// emission core (emitKernelFunction):
//
//   * emitC — the standalone benchmark TU: POLYAST_MAX/MIN helpers,
//     parameter macros (overridable with -DNAME=value), heap-allocated
//     arrays with the library's deterministic seeding (so the binary's
//     checksum is directly comparable with the interpreter's), the kernel
//     function (parallel loops carry OpenMP pragmas or `/* polyast: ... */`
//     markers), and a main() that times the kernel and prints a checksum.
//     With withMain=false the TU is kernel-only: declarations + the kernel
//     function, no seeding/checksum/main helpers — it compiles clean under
//     -Wall -Werror as a library TU.
//
//   * emitNativeKernelTU — the JIT TU of the native execution backend
//     (exec/native_exec): fully self-contained C with parallelism marks
//     lowered to outlined bodies driven through the runtime/capi.hpp
//     function-pointer table (doall chunks, privatized reductions, 2D/3D/
//     dynamic pipelines, chosen by the ir/ast.hpp shape queries; this is
//     the only lowering of the marks onto the runtime), plus an
//     extern "C" entry point `polyast_kernel_run(polyast_kernel_args)`
//     and the ABI stamp `polyast_kernel_abi()`.
#pragma once

#include <cstdint>
#include <string>

#include "ir/ast.hpp"

namespace polyast::ir {

struct CEmitOptions {
  /// Emit OpenMP pragmas on doall loops (otherwise plain comments).
  bool openmp = true;
  /// Emit the benchmark main() plus the seeding/checksum helpers it needs
  /// (otherwise a self-contained kernel-only TU).
  bool withMain = true;
};

/// Emits a complete C file for the program.
std::string emitC(const Program& program, const CEmitOptions& options = {});

/// How emitKernelFunction lowers parallelism marks.
enum class ParallelLowering {
  OpenMP,    ///< `#pragma omp parallel for` on doalls, comments otherwise
  Comments,  ///< `/* polyast: ... */` comments only
  Runtime,   ///< outlined bodies calling the runtime/capi.hpp shim table
};

struct KernelFunctionOptions {
  ParallelLowering parallel = ParallelLowering::OpenMP;
  /// Name of the emitted `void <name>(void)` kernel function.
  std::string name = "kernel";
  /// Give the kernel function external linkage. A kernel-only TU
  /// (CEmitOptions::withMain == false) needs this: a static kernel nobody
  /// calls is an -Werror=unused-function in a standalone compile, and the
  /// point of that TU is to be linked against a harness.
  bool external = false;
  /// Lower ir::MicroKernelTag nests to packed SIMD microkernels. Requires
  /// the TU preamble to define the polyast_v4d vector type (the native TU
  /// does, emitC does not — the source-to-source output stays portable
  /// scalar C). Off emits tagged nests as the plain rolled loops.
  bool simd = false;
};

/// The reusable kernel-emission core: returns the kernel function
/// definition, preceded (under ParallelLowering::Runtime) by the outlined
/// env structs and chunk/cell bodies its spawn sites reference. The caller
/// provides the TU around it: parameter/array definitions, the
/// POLYAST_MAX/MIN macros, and — for Runtime lowering — the capi table
/// declarations (`polyast_rt`, `polyast_pool` statics).
std::string emitKernelFunction(const Program& program,
                               const KernelFunctionOptions& options = {});

struct NativeTUOptions {
  /// Lower ir::MicroKernelTag nests to packed SIMD microkernels (portable
  /// GCC/Clang vector extensions + `#pragma omp simd`, no intrinsics). Off
  /// emits the plain rolled point loops — the scalar retry TU the backend
  /// falls back to when a toolchain rejects the vector TU.
  bool simd = true;
};

/// Emits the self-contained JIT TU for the native execution backend.
std::string emitNativeKernelTU(const Program& program,
                               const NativeTUOptions& options = {});

/// ABI version stamped into native TUs via polyast_kernel_abi(). Mirrors
/// POLYAST_CAPI_ABI_VERSION in runtime/capi.hpp (bump both together; the
/// native backend static_asserts their equality).
constexpr std::int64_t kNativeKernelAbi = 2;

}  // namespace polyast::ir
