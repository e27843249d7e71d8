// Execution-backend abstraction: one interface over the two ways a
// transformed Program can run.
//
//   * InterpBackend — the sequential interpreter (exec/interp): the
//     program runs on the calling thread in textual order, parallelism
//     marks ignored. It is the semantics arbiter, always available, and
//     dispatches no runtime construct; with construct hooks active it
//     still brackets every parallel construct, so attribution works
//     without a compiler.
//   * NativeBackend (exec/native_exec.hpp) — emits the program as a C
//     kernel TU, compiles it with the system toolchain into a shared
//     object (content-hash cached on disk), dlopens it, and runs the
//     machine-code kernel on the ThreadPool through the runtime/capi.hpp
//     shim. This is the only lowering of the parallelism marks onto the
//     runtime. Degrades to the interpreter when no toolchain is available.
//
// Both backends fill the same ParallelRunReport, record the same exec.*
// metrics, and are differentially verified against the sequential
// interpreter through Backend::verify — which is what
// `polyastc --execute --backend=NAME` runs.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "exec/interp.hpp"
#include "obs/perf.hpp"
#include "runtime/parallel.hpp"

namespace polyast::exec {

/// What the executing backend did with the program's parallelism marks.
/// The native backend fills the construct counters from the runtime
/// shim's spawn-site counters (per dynamic encounter, counted even when
/// the trip space turns out empty); the sequential interpreter dispatches
/// nothing, so its counters stay 0.
struct ParallelRunReport {
  std::string backend = "interp";   ///< which backend produced this report
  std::int64_t doallLoops = 0;      ///< loops executed via parallelForBlocked
  std::int64_t guidedLoops = 0;     ///< doall loops on the guided schedule
  std::int64_t reductionLoops = 0;  ///< loops executed via parallelReduce
  std::int64_t pipelineLoops = 0;   ///< loop pairs executed via pipeline2D
  std::int64_t pipelineDynamicLoops = 0;  ///< pairs via pipelineDynamic2D
  std::int64_t pipeline3dLoops = 0;       ///< triples via pipeline3D
  std::int64_t reductionPipelineLoops = 0;  ///< pipelines with privatization
  std::int64_t sequentialFallbacks = 0;  ///< marked loops run sequentially
  std::int64_t nativeCompiles = 0;   ///< native backend: TUs compiled
  std::int64_t nativeCacheHits = 0;  ///< native backend: cached .so reused
  std::int64_t nativeFallbacks = 0;  ///< native backend: degraded to interp
  std::vector<std::string> notes;   ///< one line per fallback, with reason

  std::string summary() const;
};

/// Records a finished run's counters into the global metrics registry:
/// `exec.par.*` for the mark counters, `exec.native.*` for the native
/// backend's compile/cache/fallback counters (only when nonzero), and the
/// `exec.backend` note naming the backend that executed. Every backend
/// calls this exactly once per run.
void recordRunMetrics(const ParallelRunReport& report);

/// Outcome of one differential run against the sequential oracle.
struct VerifyResult {
  double maxAbsDiff = 0.0;  ///< over all buffers, backend vs oracle
  double tolerance = 0.0;   ///< 0 exact; 1e-9 when reductions reassociate
  bool passed() const { return maxAbsDiff <= tolerance; }
};

class Backend {
 public:
  virtual ~Backend() = default;

  /// Stable identifier ("interp", "native"); appears in reports, spans and
  /// the exec.backend metric note.
  virtual std::string name() const = 0;

  /// One-time per-program setup (native: emit + compile + load the shared
  /// object). Idempotent; never throws — preparation failures surface as
  /// degraded runs. The interpreter needs none.
  virtual void prepare(const ir::Program& program);

  /// Executes `program` over `ctx` on `pool`. With `perf`, every thread
  /// that executes the program opens a hardware-counter session for the
  /// duration of the run.
  virtual ParallelRunReport run(const ir::Program& program, Context& ctx,
                                runtime::ThreadPool& pool,
                                obs::PerfAggregate* perf = nullptr) = 0;

  /// Runs `program` twice — sequentially interpreted over `oracle`, then
  /// through this backend over `ctx` — and compares all buffers.
  /// `reportOut` (optional) receives the backend's run report.
  VerifyResult verify(const ir::Program& program, Context& ctx,
                      Context& oracle, runtime::ThreadPool& pool,
                      ParallelRunReport* reportOut = nullptr,
                      obs::PerfAggregate* perf = nullptr);

  /// Comparison tolerance implied by what a run did: doall/pipeline
  /// execution reorders whole statement instances (bit-identical cells),
  /// reduction privatization reassociates the accumulated sums.
  static double toleranceFor(const ParallelRunReport& report);
};

/// The sequential interpreter behind the Backend interface. `pool` is
/// unused: the program runs on the calling thread, which is also the only
/// thread a `perf` session is opened on.
class InterpBackend : public Backend {
 public:
  std::string name() const override { return "interp"; }
  ParallelRunReport run(const ir::Program& program, Context& ctx,
                        runtime::ThreadPool& pool,
                        obs::PerfAggregate* perf = nullptr) override;
};

/// Registered backend names, in presentation order.
std::vector<std::string> backendNames();

bool hasBackend(const std::string& name);

/// Constructs a backend by name; POLYAST_CHECKs that the name is known.
std::unique_ptr<Backend> makeBackend(const std::string& name);

}  // namespace polyast::exec
